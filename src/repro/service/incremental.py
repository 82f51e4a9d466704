"""Counting/DRed maintenance of stratified models (the legacy engine).

**Demoted to the** ``maintenance="legacy"`` **bench baseline**: the
primary maintenance core is now the delta-stream circuit of
:mod:`repro.service.dbsp` (weighted Z-set deltas, one circuit pass per
update burst).  This engine is kept as the comparison baseline for
bench P12 and as a second implementation the differential fuzz suites
cross-check the circuit against.

The from-scratch engine (:mod:`repro.datalog.seminaive`) already works
delta-at-a-time; this module keeps the model **resident** and extends
the same discipline to updates, in the DBSP/DRed tradition:

* the prepared plan's component schedule (SCCs of the predicate graph
  in topological order) is walked once per update batch;
* **non-recursive** components maintain an exact derivation count per
  row ("counting" maintenance): each rule instance is enumerated
  exactly once via a first-changed-literal discipline, counts move up
  and down, and a row lives iff its count is positive or it is a base
  fact — deletions are O(affected instances), no re-derivation needed;
* **recursive** components use DRed: over-delete everything whose old
  derivation touched a deleted fact, re-derive rows with an alternative
  support (a per-row constrained query, not a full join), then close
  insertions semi-naively.

Negated literals always point at earlier components (stratification),
so by the time a component is maintained its negative dependencies are
final.  The *old* database view needed by over-deletion is reconstructed
from the net per-predicate deltas committed so far — no snapshot copy.

Consistency contract (tested property-style): after any interleaving of
insert/delete batches, :meth:`IncrementalEngine.model` equals
``seminaive_stratified`` run from scratch on the updated database.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..datalog.database import Database
from ..datalog.kernel import BOTH, NEW, OLD, JoinKernel, Plan
from ..datalog.stratification import NotStratifiedError
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from ..robustness import BudgetExceeded, EvaluationBudget, ReproError, fault_point
from .metrics import ViewMetrics
from .registry import Component, PreparedProgram, Variant

__all__ = ["IncrementalEngine", "IncrementalMaintenanceError"]

Row = Tuple[Value, ...]
FactDelta = Dict[str, Set[Row]]


class IncrementalMaintenanceError(ReproError):
    """An internal bookkeeping invariant broke.

    The view layer treats this as "fall back to full recomputation" —
    the incremental path is an optimisation, never a correctness risk.
    (A :class:`~repro.robustness.ReproError`, so the service maps it to
    a structured wire error when even the fallback cannot recover.)
    """

    code = "incremental-maintenance"


# Every firing is one compiled plan of the join kernel
# (:mod:`repro.datalog.kernel`): the changed literal leads with its
# delta rows (for a negated literal, the atoms whose flip is the
# trigger), the others are probed at the NEW view (current state), the
# OLD one (rewound by the batch's net deltas) or BOTH (rows true before
# *and* after, i.e. unchanged).


class IncrementalEngine:
    """A resident stratified model maintained under fact deltas."""

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
                f"program {prepared.name!r} is not stratified; incremental "
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
        # Exact derivation counts, kept only for non-recursive components.
        self.support: Dict[str, Dict[Row, int]] = {}
        self._counting: Set[str] = {
            predicate
            for component in prepared.schedule
            if component.has_rules() and not component.recursive
            for predicate in component.predicates
        }
        self.initialize()

    # -- initial evaluation ---------------------------------------------------

    def initialize(self) -> None:
        """(Re)compute the model from scratch, establishing counts."""
        fault_point("incremental.initialize")
        self.state = JoinKernel(self.registry)
        for component in self.prepared.schedule:
            self.state.register(*component.circuit.plans())
        self.support = {predicate: {} for predicate in self._counting}
        for predicate in self.edb.predicates():
            for row in self.edb.rows(predicate):
                self.state.add(predicate, row)
        for component in self.prepared.schedule:
            if not component.has_rules():
                continue
            if component.recursive:
                self._initial_recursive(component)
            else:
                self._initial_counting(component)

    def _join(
        self, plan: Plan, lead=None, before: int = NEW, after: int = NEW
    ) -> List[Row]:
        """Fire one compiled plan; each row is one rule *instance* (a
        full body binding) — the unit the counting path tallies."""
        state = self.state
        pulled = state.rows_matched
        produced = state.fire(plan, lead, before, after)
        self.metrics.bump("rules_fired")
        self.metrics.bump("rows_matched", state.rows_matched - pulled)
        return [row for row, _weight in produced]

    def _initial_counting(self, component: Component) -> None:
        for plan in component.circuit.naive:
            counts = self.support[plan.head]
            for head_row in self._join(plan):
                counts[head_row] = counts.get(head_row, 0) + 1
                self.state.add(plan.head, head_row)

    def _initial_recursive(self, component: Component) -> None:
        circuit = component.circuit
        delta: FactDelta = {}
        for plan in circuit.naive:
            for row in self._join(plan):
                if self.state.add(plan.head, row):
                    delta.setdefault(plan.head, set()).add(row)
        for _round in range(self.max_rounds):
            if not delta:
                return
            if self.budget is not None:
                self.budget.note_iteration(phase="incremental-initialize")
            next_delta: FactDelta = {}
            for plan, predicate, _negated in circuit.internal:
                rows = delta.get(predicate)
                if not rows:
                    continue
                for row in self._join(plan, rows):
                    if self.state.add(plan.head, row):
                        next_delta.setdefault(plan.head, set()).add(row)
            delta = next_delta
        raise BudgetExceeded(
            f"component {sorted(component.predicates)} did not converge "
            f"within {self.max_rounds} rounds",
            progress=self.budget.progress if self.budget is not None else None,
        )

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

    def apply(
        self,
        inserts: Iterable[Tuple[str, Row]] = (),
        deletes: Iterable[Tuple[str, Row]] = (),
    ) -> Dict[str, object]:
        """Maintain the model under a batch of fact updates.

        Deletions are applied before insertions; updates that do not
        change the database (inserting a present fact, deleting an
        absent one) are ignored.  Returns a summary with the net
        per-predicate deltas actually applied to the model.

        The ``plus``/``minus`` sets in the summary are *net*: no row
        appears in both, and applying ``(rows - minus) | plus`` to the
        pre-batch model yields exactly the post-batch model.  The view
        layer feeds these sets to ``ModelSnapshot.apply_delta`` to keep
        the published read snapshot current without copying the model,
        so this net-ness is a load-bearing contract, not a convenience.
        """
        fault_point("incremental.apply")
        if self.budget is not None:
            self.budget.check(phase="incremental-apply")
        seed_minus: FactDelta = {}
        seed_plus: FactDelta = {}
        for predicate, row in deletes:
            row = tuple(row)
            if self.edb.holds(predicate, *row):
                self.edb.discard(predicate, *row)
                seed_minus.setdefault(predicate, set()).add(row)
        for predicate, row in inserts:
            row = tuple(row)
            if not self.edb.holds(predicate, *row):
                self.edb.add(predicate, *row)
                seed_plus.setdefault(predicate, set()).add(row)
                seed_minus.get(predicate, set()).discard(row)

        plus: FactDelta = {}
        minus: FactDelta = {}
        self.state.plus = plus
        self.state.minus = minus
        commit_add = self.state.commit_add
        commit_remove = self.state.commit_remove

        scheduled = set()
        for component in self.prepared.schedule:
            scheduled |= component.predicates
        # Predicates no rule mentions change the model directly.
        for predicate in set(seed_plus) | set(seed_minus):
            if predicate not in scheduled:
                for row in seed_minus.get(predicate, ()):
                    commit_remove(predicate, row)
                for row in seed_plus.get(predicate, ()):
                    commit_add(predicate, row)

        for component in self.prepared.schedule:
            if not component.has_rules():
                for predicate in component.predicates:
                    for row in seed_minus.get(predicate, ()):
                        commit_remove(predicate, row)
                    for row in seed_plus.get(predicate, ()):
                        commit_add(predicate, row)
                continue
            touched = any(
                plus.get(p) or minus.get(p) or seed_plus.get(p) or seed_minus.get(p)
                for p in component.circuit.watch
            )
            if not touched:
                continue
            fault_point("incremental.component")
            if self.budget is not None:
                self.budget.note_iteration(phase="incremental-maintain")
            if component.recursive:
                self._apply_recursive(component, seed_plus, seed_minus)
            else:
                self._apply_counting(component, seed_plus, seed_minus)

        self.metrics.bump("update_batches")
        self.metrics.bump("incremental_batches")
        self.metrics.bump(
            "inserts_applied", sum(len(rows) for rows in seed_plus.values())
        )
        self.metrics.bump(
            "deletes_applied", sum(len(rows) for rows in seed_minus.values())
        )
        delta_plus = sum(len(rows) for rows in plus.values())
        delta_minus = sum(len(rows) for rows in minus.values())
        self.metrics.bump("delta_plus_total", delta_plus)
        self.metrics.bump("delta_minus_total", delta_minus)
        return {
            "delta_plus": delta_plus,
            "delta_minus": delta_minus,
            "plus": {p: frozenset(rows) for p, rows in plus.items() if rows},
            "minus": {p: frozenset(rows) for p, rows in minus.items() if rows},
        }

    def apply_stream(self, batches) -> Dict[str, object]:
        """Absorb a burst of update batches with one merged summary.

        The legacy engine has no burst-level circuit: each batch runs
        its own counting/DRed pass, and the per-batch net deltas are
        folded into one net summary (a row inserted by one batch and
        deleted by a later one cancels).  This exists so the coalescing
        update queue can drain into either engine; the delta-stream
        engine (:class:`~repro.service.dbsp.DBSPEngine`) absorbs the
        same burst in a single pass, which is what bench P12 measures.
        """
        total_plus: FactDelta = {}
        total_minus: FactDelta = {}
        totals = {"delta_plus": 0, "delta_minus": 0}
        for inserts, deletes in batches:
            summary = self.apply(inserts=inserts, deletes=deletes)
            for predicate, rows in summary["minus"].items():
                plus = total_plus.get(predicate, set())
                for row in rows:
                    if row in plus:
                        plus.discard(row)
                    else:
                        total_minus.setdefault(predicate, set()).add(row)
            for predicate, rows in summary["plus"].items():
                minus = total_minus.get(predicate, set())
                for row in rows:
                    if row in minus:
                        minus.discard(row)
                    else:
                        total_plus.setdefault(predicate, set()).add(row)
        totals["delta_plus"] = sum(len(rows) for rows in total_plus.values())
        totals["delta_minus"] = sum(len(rows) for rows in total_minus.values())
        return {
            "delta_plus": totals["delta_plus"],
            "delta_minus": totals["delta_minus"],
            "batches": len(batches),
            "plus": {
                p: frozenset(rows) for p, rows in total_plus.items() if rows
            },
            "minus": {
                p: frozenset(rows) for p, rows in total_minus.items() if rows
            },
        }

    # -- counting maintenance (non-recursive components) ----------------------

    def _apply_counting(
        self, component: Component, seed_plus: FactDelta, seed_minus: FactDelta
    ) -> None:
        (predicate,) = component.predicates
        counts = self.support[predicate]
        touched: Set[Row] = set()
        touched |= seed_plus.get(predicate, set())
        touched |= seed_minus.get(predicate, set())

        plus, minus = self.state.plus, self.state.minus
        # Each rule instance is enumerated once, at its first changed
        # literal: every earlier literal unchanged-true, later ones at
        # the old view (dying instances) or the new one (newborn).
        for plan, body_pred, negated in component.circuit.external:
            lost, gained = (plus, minus) if negated else (minus, plus)
            for trigger, after, step in (
                (lost.get(body_pred), OLD, -1),
                (gained.get(body_pred), NEW, 1),
            ):
                if trigger:
                    for head_row in self._join(plan, trigger, BOTH, after):
                        counts[head_row] = counts.get(head_row, 0) + step
                        touched.add(head_row)

        for row in touched:
            count = counts.get(row, 0)
            if count < 0:
                raise IncrementalMaintenanceError(
                    f"negative support count for {predicate}{row!r}"
                )
            if count == 0:
                counts.pop(row, None)
            present_now = count > 0 or self.edb.holds(predicate, *row)
            if present_now:
                self.state.commit_add(predicate, row)
            else:
                self.state.commit_remove(predicate, row)

    # -- DRed maintenance (recursive components) ------------------------------

    def _apply_recursive(
        self, component: Component, seed_plus: FactDelta, seed_minus: FactDelta
    ) -> None:
        # Each DRed phase is timed separately so the service-level phase
        # histograms can tell an over-deletion storm from a slow closure.
        with self.metrics.phase("overdelete"):
            overdeleted = self._overdelete(component, seed_minus)
            for predicate, rows in overdeleted.items():
                for row in rows:
                    self.state.commit_remove(predicate, row)
        with self.metrics.phase("rederive"):
            rederive_seeds = self._rederive(component, overdeleted)
        with self.metrics.phase("insert_close"):
            self._insert_close(component, seed_plus, rederive_seeds, overdeleted)

    def _overdelete(
        self, component: Component, seed_minus: FactDelta
    ) -> FactDelta:
        """DRed phase 1: everything whose old derivation is broken.

        The component's own facts are still untouched in ``state`` (=
        their old view); earlier components are rewound via the net
        deltas.  Removals are committed by the caller afterwards, in
        bulk, so every round matches against the full old view.
        """
        deleted: FactDelta = {}
        delta: FactDelta = {}
        for predicate in component.predicates:
            for row in seed_minus.get(predicate, ()):
                if row in self.state.facts.get(predicate, ()):
                    deleted.setdefault(predicate, set()).add(row)
                    delta.setdefault(predicate, set()).add(row)

        def collect(variant: Variant, rows) -> None:
            predicate = variant.plan.head
            for head_row in self._join(variant.plan, rows, OLD, OLD):
                if head_row not in self.state.facts.get(predicate, ()):
                    continue
                if head_row in deleted.get(predicate, ()):
                    continue
                deleted.setdefault(predicate, set()).add(head_row)
                next_delta.setdefault(predicate, set()).add(head_row)

        # Round 0: derivations broken by *earlier-component* changes — a
        # positive literal that lost its row, or a negated atom that
        # became true.  Everything else in the body is read at the old
        # view, so exactly the derivations that existed before fire.
        circuit = component.circuit
        next_delta: FactDelta = {}
        for variant in circuit.external:
            changed = self.state.plus if variant.negated else self.state.minus
            trigger = changed.get(variant.predicate)
            if trigger:
                collect(variant, trigger)
        for predicate, rows in next_delta.items():
            delta.setdefault(predicate, set()).update(rows)

        for _round in range(self.max_rounds):
            if not delta:
                break
            if self.budget is not None:
                self.budget.note_iteration(phase="incremental-overdelete")
            next_delta = {}
            for variant in circuit.internal:
                rows = delta.get(variant.predicate)
                if rows:
                    collect(variant, rows)
            delta = next_delta
        else:
            raise BudgetExceeded(
                f"over-deletion of {sorted(component.predicates)} did not "
                f"converge within {self.max_rounds} rounds",
                progress=self.budget.progress if self.budget is not None else None,
            )
        total = sum(len(rows) for rows in deleted.values())
        if total:
            self.metrics.bump("overdeleted_total", total)
        return deleted

    def _rederive(
        self, component: Component, overdeleted: FactDelta
    ) -> FactDelta:
        """DRed phase 2: restore over-deleted rows with alternative
        support — base facts still in the EDB, or a derivation from the
        post-deletion state (a per-row constrained query)."""
        probes = component.circuit.probes
        seeds: FactDelta = {}
        rederived = 0
        for predicate, rows in overdeleted.items():
            for row in rows:
                if self.edb.holds(predicate, *row) or any(
                    self._join(plan, (row,)) for plan in probes.get(predicate, ())
                ):
                    self.state.commit_add(predicate, row)
                    seeds.setdefault(predicate, set()).add(row)
                    rederived += 1
        if rederived:
            self.metrics.bump("rederived_total", rederived)
        return seeds

    def _insert_close(
        self,
        component: Component,
        seed_plus: FactDelta,
        rederive_seeds: FactDelta,
        overdeleted: FactDelta,
    ) -> None:
        """DRed phase 3: close insertions semi-naively over the new view."""
        delta: FactDelta = {}
        for predicate, rows in rederive_seeds.items():
            delta.setdefault(predicate, set()).update(rows)
        for predicate in component.predicates:
            for row in seed_plus.get(predicate, ()):
                if self.state.commit_add(predicate, row):
                    delta.setdefault(predicate, set()).add(row)

        def produce(variant: Variant, rows, sink: FactDelta) -> None:
            predicate = variant.plan.head
            for head_row in self._join(variant.plan, rows):
                if self.state.commit_add(predicate, head_row):
                    sink.setdefault(predicate, set()).add(head_row)

        # Round 0 triggers from earlier components: a positive literal
        # that gained rows, or a negated atom that became false.
        circuit = component.circuit
        for variant in circuit.external:
            changed = self.state.minus if variant.negated else self.state.plus
            trigger = changed.get(variant.predicate)
            if trigger:
                produce(variant, trigger, delta)

        for _round in range(self.max_rounds):
            if not delta:
                return
            if self.budget is not None:
                self.budget.note_iteration(phase="incremental-insert-close")
            next_delta: FactDelta = {}
            for variant in circuit.internal:
                rows = delta.get(variant.predicate)
                if rows:
                    produce(variant, rows, next_delta)
            delta = next_delta
        raise BudgetExceeded(
            f"insertion closure of {sorted(component.predicates)} did not "
            f"converge within {self.max_rounds} rounds",
            progress=self.budget.progress if self.budget is not None else None,
        )
