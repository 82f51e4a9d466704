"""The delta-stream maintenance engine.

:class:`DBSPEngine` maintains every boolean stratified view (and each
level of an :class:`~repro.service.dbsp.AlternatingEngine`).  The
resident model is the *integral* of a stream of update batches; one
call to :meth:`apply_stream` is one step of the incrementalized
circuit:

* the batch stream is **differentiated** into a single net Z-set of EDB
  changes (a burst of N batches collapses into one delta — insertions
  and retractions of the same fact cancel before any rule runs);
* the prepared plan's component schedule is the circuit: every
  **non-recursive** component is a linear rule-delta operator feeding an
  :class:`~repro.service.dbsp.circuit.IncrementalDistinct` node.  The
  rule delta is the bilinearity expansion
  ``Δ(L₁ ⋈ … ⋈ Lₖ) = Σᵢ new₍<ᵢ₎ ⋈ ΔLᵢ ⋈ old₍>ᵢ₎`` — each body literal
  takes its turn as the differentiated input, earlier literals are read
  at the new view, later ones at the old view, and a negated literal
  contributes the negated delta (``Δ(¬q) = −Δq``, the 3-valued
  stratified reading);
* every **recursive** component is a *nested fixpoint* operator: the
  inner fixpoint's own delta stream is replayed as retraction closure
  (weights ≤ 0 propagate until fixpoint), support re-derivation, and
  insertion closure — the incrementalization of ``fix`` the DBSP
  literature builds from ``δ₀``/``∫``, realised here set-at-a-time so
  the nested stream is never materialised;
* the net per-predicate set-level deltas are committed to the resident
  state and returned, preserving the engine summary contract the view
  layer feeds to ``ModelSnapshot.apply_delta``.

Negative integrated weights (a retraction that was never counted) raise
:class:`IncrementalMaintenanceError`, the correctness valve the view
layer answers with a from-scratch rebuild.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ...datalog.database import Database
from ...datalog.kernel import NEW, OLD, JoinKernel, Plan
from ...datalog.stratification import NotStratifiedError
from ...relations.universe import FunctionRegistry
from ...relations.values import Value
from ...robustness import (
    BudgetExceeded,
    EvaluationBudget,
    ReproError,
    fault_point,
)
from ..metrics import ViewMetrics
from ..registry import Component, PreparedProgram
from .circuit import IncrementalDistinct, NegativeWeightError
from .zset import ZSet

__all__ = ["DBSPEngine", "IncrementalMaintenanceError"]

Row = Tuple[Value, ...]
FactDelta = Dict[str, Set[Row]]
Batch = Tuple[Iterable[Tuple[str, Row]], Iterable[Tuple[str, Row]]]

# Every firing below is one compiled plan of the join kernel
# (:mod:`repro.datalog.kernel`): the literal that carries the delta — a
# Z-set whose weights multiply into the product, or a plain row set —
# leads, and the other literals are index probes read at the NEW view
# (current state) or the OLD one (state rewound by the net deltas so
# far).  A negated lead is handed the sign-flipped delta, or the set of
# atoms whose flip is the trigger.


class IncrementalMaintenanceError(ReproError):
    """An internal bookkeeping invariant broke.

    The view layer treats this as "fall back to full recomputation" —
    the incremental path is an optimisation, never a correctness risk.
    (A :class:`~repro.robustness.ReproError`, so the service maps it to
    a structured wire error when even the fallback cannot recover.)
    """

    code = "incremental-maintenance"


class DBSPEngine:
    """A resident model maintained as the integral of a delta stream.

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
        # Predicates some component schedules; a seed for any other
        # changes the model directly.
        self._scheduled: FrozenSet[str] = frozenset().union(
            *(component.predicates for component in prepared.schedule)
        )
        # One IncrementalDistinct node per non-recursive rule head: its
        # integrated weights count derivations (plus 1 per EDB row), so
        # presence is simply "integrated weight > 0".
        self.distinct_nodes: Dict[str, IncrementalDistinct] = {}
        self._linear: Set[str] = {
            predicate
            for component in prepared.schedule
            if component.has_rules() and not component.recursive
            for predicate in component.predicates
        }
        self.initialize()

    # -- initial evaluation ---------------------------------------------------

    def initialize(self) -> None:
        """(Re)compute the model from scratch, establishing integrals."""
        fault_point("incremental.initialize")
        self.state = JoinKernel(self.registry)
        for component in self.prepared.schedule:
            self.state.register(*component.circuit.plans())
        self.distinct_nodes = {
            predicate: IncrementalDistinct() for predicate in self._linear
        }
        for predicate in self.edb.predicates():
            node = self.distinct_nodes.get(predicate)
            for row in self.edb.rows(predicate):
                self.state.add(predicate, row)
                if node is not None:
                    node.weights[row] = node.weights.get(row, 0) + 1
        for component in self.prepared.schedule:
            if not component.has_rules():
                continue
            if component.recursive:
                self._initial_fixpoint(component)
            else:
                self._initial_linear(component)
        self._account(0, 0)

    def _account(self, fired: int, pulled: int) -> None:
        """Report the kernel's firings and rows matched since ``fired`` /
        ``pulled``: counted once a pass is through, not per firing."""
        state = self.state
        self.metrics.bump("rules_fired", state.rules_fired - fired)
        self.metrics.bump("rows_matched", state.rows_matched - pulled)

    def _initial_linear(self, component: Component) -> None:
        (predicate,) = component.predicates
        node = self.distinct_nodes[predicate]
        for plan in component.circuit.naive:
            for head_row, weight in self.state.fire(plan):
                node.weights[head_row] = node.weights.get(head_row, 0) + weight
                self.state.add(predicate, head_row)

    def _initial_fixpoint(self, component: Component) -> None:
        add = self.state.add
        self._closure(
            component,
            "component",
            "dbsp-initialize",
            [(plan, None) for plan in component.circuit.naive],
            lambda plan, produced: [row for row, _ in produced if add(plan.head, row)],
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
        """Close a recursive component on the kernel's fixpoint driver:
        ``start``, then the component's own leads, all read at ``view``."""

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
        self.state.close(start, leads, admit, step, delta, view, view)

    def _triggers(
        self, component: Component, positive: FactDelta, negated: FactDelta
    ) -> List[Tuple[Plan, Set[Row]]]:
        """A closure's round 0: each lead over an earlier component with
        the rows that moved its literal — from ``positive`` for a positive
        literal, from ``negated`` for a negated one."""
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
        seed: Dict[str, ZSet] = {}
        applied_inserts = applied_deletes = 0
        for inserts, deletes in batches:
            for predicate, row in deletes:
                row = tuple(row)
                if self.edb.holds(predicate, *row):
                    self.edb.discard(predicate, *row)
                    seed.setdefault(predicate, ZSet()).add(row, -1)
                    applied_deletes += 1
            for predicate, row in inserts:
                row = tuple(row)
                if not self.edb.holds(predicate, *row):
                    self.edb.add(predicate, *row)
                    seed.setdefault(predicate, ZSet()).add(row, 1)
                    applied_inserts += 1
        seed = {predicate: z for predicate, z in seed.items() if z}

        plus: FactDelta = {}
        minus: FactDelta = {}
        self.state.plus = plus
        self.state.minus = minus

        fired, pulled = self.state.rules_fired, self.state.rows_matched
        try:
            self._run_circuit(seed)
        except NegativeWeightError as exc:
            raise IncrementalMaintenanceError(str(exc)) from exc
        self._account(fired, pulled)

        batch_count = len(batches)
        self.metrics.bump("update_batches", batch_count)
        self.metrics.bump("incremental_batches", batch_count)
        self.metrics.bump("circuit_steps")
        if batch_count > 1:
            self.metrics.bump("delta_batches_coalesced", batch_count - 1)
        self.metrics.bump("inserts_applied", applied_inserts)
        self.metrics.bump("deletes_applied", applied_deletes)
        delta_plus = sum(len(rows) for rows in plus.values())
        delta_minus = sum(len(rows) for rows in minus.values())
        self.metrics.bump("delta_plus_total", delta_plus)
        self.metrics.bump("delta_minus_total", delta_minus)
        return {
            "delta_plus": delta_plus,
            "delta_minus": delta_minus,
            "batches": batch_count,
            "plus": {p: frozenset(rows) for p, rows in plus.items() if rows},
            "minus": {p: frozenset(rows) for p, rows in minus.items() if rows},
        }

    def _run_circuit(self, seed: Dict[str, ZSet]) -> None:
        """One step of the lifted circuit over the net EDB delta."""
        plus, minus = self.state.plus, self.state.minus
        # Predicates no rule mentions change the model directly.
        for predicate, zset in seed.items():
            if predicate not in self._scheduled:
                self._commit_zset(predicate, zset)

        for component in self.prepared.schedule:
            if not component.has_rules():
                for predicate in component.predicates:
                    zset = seed.get(predicate)
                    if zset:
                        self._commit_zset(predicate, zset)
                continue
            if not any(
                plus.get(p) or minus.get(p) or seed.get(p)
                for p in component.circuit.watch
            ):
                continue
            fault_point("incremental.component")
            if self.budget is not None:
                self.budget.note_iteration(phase="dbsp-maintain")
            if component.recursive:
                self._fixpoint_delta(component, seed)
            else:
                self._linear_delta(component, seed)

    # -- net-delta bookkeeping ------------------------------------------------

    def _commit_zset(self, predicate: str, delta: ZSet) -> None:
        for row, weight in delta.items():
            if weight > 0:
                self.state.commit_add(predicate, row)
            else:
                self.state.commit_remove(predicate, row)

    # -- linear components: one bilinearity sweep -----------------------------

    def _trigger(self, predicate: str, negate: bool = False) -> Optional[ZSet]:
        """The set-level delta of an already-maintained predicate, as a
        Z-set — sign-flipped for a negated occurrence (``Δ(¬q) = −Δq``)."""
        plus = self.state.plus.get(predicate)
        minus = self.state.minus.get(predicate)
        if not plus and not minus:
            return None
        zset = ZSet()
        positive = -1 if negate else 1
        for row in plus or ():
            zset.add(row, positive)
        for row in minus or ():
            zset.add(row, -positive)
        return zset or None

    def _linear_delta(self, component: Component, seed: Dict[str, ZSet]) -> None:
        """Maintain a non-recursive component in one weighted sweep.

        Each rule's delta is the bilinearity expansion: every body
        literal takes one turn as the differentiated input while
        earlier literals read the new view and later ones the old view
        — each surviving rule instance is counted exactly once, with
        the product sign.  The head's IncrementalDistinct node turns
        the weighted delta into the set-level commit.
        """
        (predicate,) = component.predicates
        delta = ZSet()
        seeded = seed.get(predicate)
        if seeded is not None:
            delta.update(seeded)
        for plan, body_pred, negated in component.circuit.external:
            trigger = self._trigger(body_pred, negate=negated)
            if trigger is not None:
                for head_row, weight in self.state.fire(plan, trigger, NEW, OLD):
                    delta.add(head_row, weight)
        if delta:
            self._commit_zset(
                predicate, self.distinct_nodes[predicate].step(delta)
            )

    # -- recursive components: the nested fixpoint operator -------------------

    def _fixpoint_delta(self, component: Component, seed: Dict[str, ZSet]) -> None:
        """Maintain a recursive component as one nested-fixpoint step.

        The incrementalization of the inner fixpoint runs in three
        sub-streams, none of which materialises the nested trace:
        retraction closure (the negative half of the delta, propagated
        to fixpoint against the old view), support re-derivation (rows
        whose retraction was an over-approximation rejoin), and
        insertion closure (the positive half, semi-naive against the
        new view).
        """
        seed_minus: FactDelta = {}
        seed_plus: FactDelta = {}
        for predicate in component.predicates:
            zset = seed.get(predicate)
            if not zset:
                continue
            negatives = set(zset.neg().rows())
            positives = set(zset.pos().rows())
            if negatives:
                seed_minus[predicate] = negatives
            if positives:
                seed_plus[predicate] = positives
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
            present = state.facts.get(plan.head, ())
            gone = retracted.get(plan.head, ())
            fresh = {row for row, _ in produced if row in present and row not in gone}
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
        total = sum(len(rows) for rows in retracted.values())
        if total:
            self.metrics.bump("overdeleted_total", total)
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
        if rederived:
            self.metrics.bump("rederived_total", rederived)
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
            for row in seed_plus.get(predicate, ()):
                if state.commit_add(predicate, row):
                    delta.setdefault(predicate, set()).add(row)

        # Round 0 triggers from earlier components: a positive literal
        # that gained rows, or a negated atom that became false.
        def admit(plan: Plan, produced) -> List[Row]:
            return [row for row, _ in produced if state.commit_add(plan.head, row)]

        triggers = self._triggers(component, state.plus, state.minus)
        self._closure(
            component, "insertion closure of", "dbsp-insert-close", triggers, admit, delta
        )
