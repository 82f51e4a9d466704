"""The delta-stream maintenance engine.

:class:`DBSPEngine` maintains every boolean stratified view (and the
store of an :class:`~repro.service.dbsp.AlternatingEngine`).  The
resident model is the least model of the EDB the update stream has
built so far; one call to :meth:`apply_stream` is one step of the
incrementalized circuit:

* the batch stream is **differentiated** into one net ``plus`` /
  ``minus`` pair of EDB row sets (a burst of N batches collapses into
  one delta — an insertion and a retraction of the same fact cancel
  before any rule runs);
* the prepared plan's component schedule is the circuit, and every
  component is maintained by over-delete and re-derive (DRed), keeping
  no state beyond the model itself.  A **non-recursive** component
  takes one step: its candidates are the present head rows with an
  ``OLD`` instance through what moved below it, or a direct delete;
  each candidate stays if it is still an EDB fact or a head-bound probe
  of one of its rules fires over the already-maintained lower state,
  and the ``NEW`` firings over what arrived are added.  Over the
  boolean semiring a support probe is exact, so no derivation count is
  kept;
* every **recursive** component is a *nested fixpoint* operator: the
  inner fixpoint's own delta stream is replayed as retraction closure,
  support re-derivation, and insertion closure — the incrementalization
  of ``fix`` the DBSP literature builds from ``δ₀``/``∫``, realised here
  set-at-a-time so the nested stream is never materialised;
* the net per-predicate set-level deltas are committed to the resident
  state and returned, preserving the engine summary contract the view
  layer feeds to ``ModelSnapshot.apply_delta``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence
from typing import Set, Tuple

from ...datalog.database import Database
from ...datalog.kernel import NEW, OLD, JoinKernel, Plan
from ...datalog.stratification import NotStratifiedError
from ...relations.universe import FunctionRegistry
from ...relations.values import Value
from ...robustness import BudgetExceeded, fault_point
from ..metrics import ViewMetrics
from ..registry import Component, PreparedProgram

if TYPE_CHECKING:
    from ...robustness import EvaluationBudget

__all__ = ["DBSPEngine"]

Row = Tuple[Value, ...]
FactDelta = Dict[str, Set[Row]]
Batch = Tuple[Iterable[Tuple[str, Row]], Iterable[Tuple[str, Row]]]

# Every firing below is one compiled plan of the join kernel
# (:mod:`repro.datalog.kernel`): the literal that carries the delta — a
# plain row set — leads, and the other literals are index probes read
# at the NEW view (current state) or the OLD one (state rewound by the
# net deltas so far).  A negated lead is handed the set of atoms whose
# flip is the trigger.


class DBSPEngine:
    """A resident model maintained over a stream of update batches.

    The engine seam every view engine shares: ``edb``, ``state``,
    ``model()``, ``rows()``, ``initialize()``, ``budget`` and
    :meth:`apply_stream`, the one write entry: a single batch is a
    burst of one.
    """

    def __init__(
        self,
        prepared: PreparedProgram,
        database: Optional[Database] = None,
        registry: Optional[FunctionRegistry] = None,
        metrics: Optional[ViewMetrics] = None,
        max_rounds: int = 100_000,
        budget: Optional[EvaluationBudget] = None,
    ):
        if not prepared.stratified:
            raise NotStratifiedError(
                f"program {prepared.name!r} is not stratified; delta-stream "
                "maintenance requires the stratified fast path"
            )
        self.prepared = prepared
        self.registry = registry
        self.metrics = metrics if metrics is not None else ViewMetrics()
        self.max_rounds = max_rounds
        self.budget = budget
        self.edb = (database or Database()).copy()
        for predicate, row in prepared.seed_facts:
            if not self.edb.holds(predicate, *row):
                self.edb.add(predicate, *row)
        self.state = JoinKernel(registry)
        # Predicates some rule derives; a seed for any other changes the
        # model directly.
        self._derived: FrozenSet[str] = frozenset().union(
            *(
                component.predicates
                for component in prepared.schedule
                if component.has_rules()
            )
        )
        # The counters of the pass in progress, reported in one update
        # when it is through (a pass that raises reports none).
        self._work: Dict[str, int] = {}
        self.initialize()

    # -- initial evaluation ---------------------------------------------------

    def initialize(self) -> None:
        """(Re)compute the model from scratch."""
        fault_point("incremental.initialize")
        self.state = JoinKernel(self.registry)
        for component in self.prepared.schedule:
            self.state.register(*component.circuit.plans())
        for predicate in self.edb.predicates():
            self.state.add_all(predicate, self.edb.rows(predicate))
        for component in self.prepared.schedule:
            if component.has_rules():
                self._initial_fixpoint(component)
        self.metrics.bump_many(
            {"rules_fired": self.state.rules_fired, "rows_matched": self.state.rows_matched}
        )

    def _initial_fixpoint(self, component: Component) -> None:
        add_all = self.state.add_all
        self._closure(
            component,
            "component",
            "dbsp-initialize",
            [(plan, None) for plan in component.circuit.naive],
            lambda plan, produced: add_all(plan.head, produced),
        )

    def _closure(
        self,
        component: Component,
        what: str,
        phase: str,
        start: List[Tuple[Plan, object]],
        admit,
        delta: Optional[FactDelta] = None,
        view: int = NEW,
    ) -> None:
        """Close a component on the kernel's fixpoint driver:
        ``start``, then the component's own leads, all read at ``view``;
        ``admit`` takes each firing's head rows as a set."""

        def step(index: int, delta: FactDelta) -> None:
            if index == self.max_rounds:
                raise BudgetExceeded(
                    f"{what} {sorted(component.predicates)} did not converge "
                    f"within {self.max_rounds} rounds",
                    progress=self.budget.progress if self.budget is not None else None,
                )
            if delta and self.budget is not None:
                self.budget.note_iteration(phase=phase)

        internal = component.circuit.internal
        leads = [(variant.predicate, variant.plan) for variant in internal]
        self.state.close(start, leads, admit, step, delta, view, view, as_set=True)

    def _triggers(
        self, component: Component, positive: FactDelta, negated: FactDelta
    ) -> List[Tuple[Plan, Set[Row]]]:
        """Each lead over an earlier component with the rows that moved
        its literal — from ``positive`` for a positive literal, from
        ``negated`` for a negated one: a closure's round 0, or a probe
        step's candidates and arrivals."""
        return [
            (variant.plan, rows)
            for variant in component.circuit.external
            if (rows := (negated if variant.negated else positive).get(variant.predicate))
        ]

    # -- the model ------------------------------------------------------------

    def model(self) -> Dict[str, FrozenSet[Row]]:
        """The resident model, predicate → rows (EDB and IDB alike)."""
        return {
            predicate: frozenset(rows)
            for predicate, rows in self.state.facts.items()
        }

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Current rows of one predicate."""
        return frozenset(self.state.facts.get(predicate, ()))

    # -- update batches -------------------------------------------------------

    def apply_stream(self, batches: Sequence[Batch]) -> Dict[str, object]:
        """Absorb a burst of update batches in **one** circuit pass.

        The batches are differentiated into a single net EDB delta
        before any rule fires, so a fact inserted then deleted inside
        the burst costs nothing downstream, and the whole burst yields
        one net per-predicate delta for a single snapshot publish: the
        returned ``plus``/``minus`` sets are net, and applying
        ``(rows - minus) | plus`` to the pre-burst model yields the
        post-burst model (load-bearing for snapshot maintenance).
        """
        fault_point("incremental.apply")
        if self.budget is not None:
            self.budget.check(phase="dbsp-apply")
        # The net EDB change: a fact both retracted and inserted within
        # the burst ends up in neither set.
        seed_plus: FactDelta = {}
        seed_minus: FactDelta = {}
        applied_inserts = applied_deletes = 0
        for inserts, deletes in batches:
            for predicate, row in deletes:
                row = tuple(row)
                if self.edb.holds(predicate, *row):
                    self.edb.discard(predicate, *row)
                    _flip(seed_plus, seed_minus, predicate, row)
                    applied_deletes += 1
            for predicate, row in inserts:
                row = tuple(row)
                if not self.edb.holds(predicate, *row):
                    self.edb.add(predicate, *row)
                    _flip(seed_minus, seed_plus, predicate, row)
                    applied_inserts += 1

        plus: FactDelta = {}
        minus: FactDelta = {}
        self.state.plus = plus
        self.state.minus = minus

        state = self.state
        fired, pulled = state.rules_fired, state.rows_matched
        work = self._work = {"overdeleted_total": 0, "rederived_total": 0}
        self._run_circuit(seed_plus, seed_minus)

        batch_count = len(batches)
        delta_plus = sum(len(rows) for rows in plus.values())
        delta_minus = sum(len(rows) for rows in minus.values())
        work.update(
            rules_fired=state.rules_fired - fired,
            rows_matched=state.rows_matched - pulled,
            update_batches=batch_count,
            incremental_batches=batch_count,
            circuit_steps=1,
            delta_batches_coalesced=batch_count - 1,
            inserts_applied=applied_inserts,
            deletes_applied=applied_deletes,
            delta_plus_total=delta_plus,
            delta_minus_total=delta_minus,
        )
        self.metrics.bump_many(work)
        return {
            "delta_plus": delta_plus,
            "delta_minus": delta_minus,
            "batches": batch_count,
            "plus": {p: frozenset(rows) for p, rows in plus.items() if rows},
            "minus": {p: frozenset(rows) for p, rows in minus.items() if rows},
        }

    def _run_circuit(self, seed_plus: FactDelta, seed_minus: FactDelta) -> None:
        """One step of the lifted circuit over the net EDB delta."""
        state = self.state
        plus, minus = state.plus, state.minus
        # Predicates no rule derives change the model directly.
        for predicate, rows in seed_minus.items():
            if predicate not in self._derived:
                for row in rows:
                    state.commit_remove(predicate, row)
        for predicate, rows in seed_plus.items():
            if predicate not in self._derived:
                state.commit_add_all(predicate, rows)

        for component in self.prepared.schedule:
            if not component.has_rules() or not any(
                plus.get(p) or minus.get(p) or seed_plus.get(p) or seed_minus.get(p)
                for p in component.circuit.watch
            ):
                continue
            fault_point("incremental.component")
            if self.budget is not None:
                self.budget.note_iteration(phase="dbsp-maintain")
            if component.recursive:
                self._fixpoint_delta(component, seed_plus, seed_minus)
            else:
                self._probe_delta(component, seed_plus, seed_minus)

    # -- non-recursive components: one probe step -----------------------------

    def _probe_delta(
        self, component: Component, seed_plus: FactDelta, seed_minus: FactDelta
    ) -> None:
        """Maintain a non-recursive component without state of its own.

        The candidates are the present head rows with an ``OLD``
        instance through a lost positive row or a negated atom that
        became true, and the direct deletes.  A candidate stays if it
        is still an EDB fact or a head-bound probe of one of its rules
        fires over the lower components, already maintained; then the
        ``NEW`` firings over what arrived, and the direct inserts, join.
        """
        (predicate,) = component.predicates
        state = self.state
        candidates = set(seed_minus.get(predicate, ()))
        for plan, rows in self._triggers(component, state.minus, state.plus):
            candidates |= state.fire(plan, rows, OLD, OLD, as_set=True)
        candidates.intersection_update(state.facts.get(predicate, ()))
        if candidates:
            # The head is in no body here, so one firing per probe plan
            # over all the candidates sees the same state as per-row ones.
            kept = {row for row in candidates if self.edb.holds(predicate, *row)}
            for plan in component.circuit.probes[predicate]:
                kept |= state.fire(plan, candidates - kept, as_set=True)
            for row in candidates - kept:
                state.commit_remove(predicate, row)
            self._work["overdeleted_total"] += len(candidates)
            self._work["rederived_total"] += len(kept)
        arrived = set(seed_plus.get(predicate, ()))
        for plan, rows in self._triggers(component, state.plus, state.minus):
            arrived |= state.fire(plan, rows, as_set=True)
        state.commit_add_all(predicate, arrived)

    # -- recursive components: the nested fixpoint operator -------------------

    def _fixpoint_delta(
        self, component: Component, seed_plus: FactDelta, seed_minus: FactDelta
    ) -> None:
        """Maintain a recursive component as one nested-fixpoint step.

        The incrementalization of the inner fixpoint runs in three
        sub-streams, none of which materialises the nested trace:
        retraction closure (the negative half of the delta, propagated
        to fixpoint against the old view), support re-derivation (rows
        whose retraction was an over-approximation rejoin), and
        insertion closure (the positive half, semi-naive against the
        new view).
        """
        with self.metrics.phase("overdelete"):
            retracted = self._retract_closure(component, seed_minus)
            for predicate, rows in retracted.items():
                for row in rows:
                    self.state.commit_remove(predicate, row)
        with self.metrics.phase("rederive"):
            support_seeds = self._support_rederive(component, retracted)
        with self.metrics.phase("insert_close"):
            self._insert_closure(component, seed_plus, support_seeds)

    def _retract_closure(
        self, component: Component, seed_minus: FactDelta
    ) -> FactDelta:
        """Close the retraction delta: every row whose old derivation
        touched a retracted fact.  The component's own facts are still
        untouched in ``state`` (their old view); earlier components are
        rewound via the net deltas committed so far."""
        state = self.state
        retracted: FactDelta = {}
        delta: FactDelta = {}
        for predicate in component.predicates:
            for row in seed_minus.get(predicate, ()):
                if row in state.facts.get(predicate, ()):
                    retracted.setdefault(predicate, set()).add(row)
                    delta.setdefault(predicate, set()).add(row)

        def admit(plan: Plan, produced) -> Set[Row]:
            """The present rows not yet retracted: now retracted."""
            fresh = produced.intersection(state.facts.get(plan.head, ()))
            fresh.difference_update(retracted.get(plan.head, ()))
            if fresh:
                retracted.setdefault(plan.head, set()).update(fresh)
            return fresh

        # Round 0: derivations broken by *earlier-component* deltas — a
        # positive literal that lost rows, or a negated atom that
        # became true.  Every literal reads the old view.
        triggers = self._triggers(component, state.minus, state.plus)
        self._closure(
            component, "retraction closure of", "dbsp-retract", triggers, admit, delta, OLD
        )
        self._work["overdeleted_total"] += sum(len(rows) for rows in retracted.values())
        return retracted

    def _support_rederive(
        self, component: Component, retracted: FactDelta
    ) -> FactDelta:
        """Rows with alternative support rejoin: still a base fact, or
        derivable from the post-retraction state (a per-row constrained
        query, not a full join)."""
        probes = component.circuit.probes
        seeds: FactDelta = {}
        rederived = 0
        for predicate, rows in retracted.items():
            for row in rows:
                if self.edb.holds(predicate, *row) or any(
                    self.state.fire(plan, (row,)) for plan in probes.get(predicate, ())
                ):
                    self.state.commit_add(predicate, row)
                    seeds.setdefault(predicate, set()).add(row)
                    rederived += 1
        self._work["rederived_total"] += rederived
        return seeds

    def _insert_closure(
        self,
        component: Component,
        seed_plus: FactDelta,
        support_seeds: FactDelta,
    ) -> None:
        """Close the insertion delta semi-naively over the new view."""
        state = self.state
        delta: FactDelta = {}
        for predicate, rows in support_seeds.items():
            delta.setdefault(predicate, set()).update(rows)
        for predicate in component.predicates:
            fresh = state.commit_add_all(predicate, seed_plus.get(predicate, ()))
            if fresh:
                delta.setdefault(predicate, set()).update(fresh)

        # Round 0 triggers from earlier components: a positive literal
        # that gained rows, or a negated atom that became false.
        def admit(plan: Plan, produced) -> Set[Row]:
            return state.commit_add_all(plan.head, produced)

        triggers = self._triggers(component, state.plus, state.minus)
        self._closure(
            component, "insertion closure of", "dbsp-insert-close", triggers, admit, delta
        )


def _flip(undo: FactDelta, do: FactDelta, predicate: str, row: Row) -> None:
    """Record one EDB change in the ``do`` set, or cancel its opposite."""
    pending = undo.get(predicate)
    if pending is not None and row in pending:
        pending.discard(row)
    else:
        do.setdefault(predicate, set()).add(row)
