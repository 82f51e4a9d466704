"""Annotated-view maintenance: K-relation models behind the service.

:class:`AnnotatedEngine` is the maintenance engine a view registered
with a non-boolean ``--semiring`` runs on.  It keeps the full
annotation map (predicate → row → carrier value) of the view's
stratified program, and beside it a
:class:`~repro.datalog.kernel.JoinKernel` holding the *support* (the
rows whose annotation is non-zero) — what joins and negation gates read.
A burst of update batches is folded into one net EDB change and
absorbed component by component, in schedule order, under **one
discipline for every semiring**:

1. **invalidate** — against the pre-batch (``OLD``) view, close forward
   from every lower row that was present and whose annotation or
   presence changed, and from every negated atom that became present:
   the *cone* is every row with an old derivation through something
   that moved, closed by :meth:`~repro.datalog.kernel.JoinKernel.close`
   on the set leaf;
2. **reset** the cone's rows to their EDB base annotation (absent if
   they have none);
3. **re-derive from below** — the cone, plus the heads reached from
   rows that are new or changed (and negated atoms that vanished), are
   *dirty*; each dirty row is recomputed in full as base ``⊕`` the sum
   of its instances (one firing per rule with all dirty rows leading,
   see :func:`~repro.datalog.annotated.instance_plan`), and rows whose
   value changed make their consumers dirty, until a round changes
   nothing.

Rows outside the cone sit at the least fixpoint of the program without
the rows that moved, which is below the new one, so Kleene iteration
from that state is exact for any ω-continuous semiring: nothing is ever
subtracted.  The round cap raising
:class:`~repro.robustness.BudgetExceeded` is the valve for the one
shipped divergence (``naturals`` over a cyclic derivation space).

Maintenance mutates in place behind an undo log (the first annotation
each touched row held), so a failure anywhere — fault point, budget,
divergence — puts the EDB with its explicit annotations, the maps and
the kernel back exactly, and the view layer's rollback finds nothing to
undo.  A build (:meth:`AnnotatedEngine.initialize`) is the same pass from
∅ — empty maps, a fresh kernel, every EDB fact staged as an insert, and
each rule without a positive literal (which no row can lead) fired once
— and as atomic.  Registration, restore and recovery build; a burst
only ever maintains.

To the view layer this is a :class:`~repro.service.dbsp.engine.DBSPEngine`
(``edb``, ``state.facts``, ``model()``, ``rows()``, ``apply_stream()``,
``initialize()``, ``budget``) plus the annotations: each batch's own
explicit values beside it in ``apply_stream``, ``maps``,
:meth:`wire_annotations` and the ``annotated_plus`` /
``annotated_minus`` delta of every summary, which snapshots carry.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.annotated import InstancePlan, accumulate, instance_plan
from ..datalog.database import Database
from ..datalog.kernel import OLD, JoinKernel, Plan
from ..datalog.stratification import NotStratifiedError
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from ..robustness import BudgetExceeded, EvaluationBudget, fault_point
from ..semiring import Semiring
from .metrics import ViewMetrics
from .registry import Component, PreparedProgram

__all__ = ["AnnotatedEngine"]

Row = Tuple[Value, ...]
Fact = Tuple[str, Row]
Batch = Tuple[Iterable[Fact], Iterable[Fact]]
#: Explicit per-fact annotations riding along with a batch's inserts.
Annotations = Mapping[Fact, object]
#: A fact's EDB state: ``(present, explicit annotation or None)``.
EdbState = Tuple[bool, object]
#: predicate → row → the annotation the row held before the batch
#: first overwrote it (``None`` = it was absent).
UndoLog = Dict[str, Dict[Row, object]]


class AnnotatedEngine:
    """A resident annotated model over a pluggable semiring."""

    def __init__(
        self,
        prepared: PreparedProgram,
        semiring: Semiring,
        database: Optional[Database] = None,
        registry: Optional[FunctionRegistry] = None,
        metrics: Optional[ViewMetrics] = None,
        max_rounds: int = 1_000,
        budget: Optional[EvaluationBudget] = None,
    ):
        if not prepared.stratified:
            raise NotStratifiedError(
                f"program {prepared.name!r} is not stratified; annotated "
                "evaluation requires the stratified fast path"
            )
        self.prepared = prepared
        self.semiring = semiring
        self.registry = registry
        self.metrics = metrics if metrics is not None else ViewMetrics()
        self.max_rounds = max_rounds
        self.budget = budget
        self.edb = (database or Database()).copy()
        for predicate, row in prepared.seed_facts:
            if not self.edb.holds(predicate, *row):
                self.edb.add(predicate, *row)
        # Each rule component with, per head predicate, its rules'
        # goal-led instance plans (the full recomputation of a dirty row),
        # and the no-lead plans of its rules without a positive literal:
        # no row ever leads those, so a build fires them once.
        self._circuits = [
            (
                component,
                {
                    head: tuple(
                        instance_plan(rule, goal=True)
                        for rule, _order in component.rules
                        if rule.head.predicate == head
                    )
                    for head in component.predicates
                },
                tuple(
                    plan
                    for plan, (rule, _order) in zip(component.circuit.naive, component.rules)
                    if not rule.positive_literals()
                ),
            )
            for component in prepared.schedule
            if component.has_rules()
        ]
        # Predicates some rule derives; a change to any other is its own
        # whole effect on the model.
        self._derived = {p for component, *_ in self._circuits for p in component.predicates}
        #: predicate → row → annotation, and the kernel over its support.
        self.maps, self.state = {}, JoinKernel(registry)
        self.initialize()

    # -- lifecycle ------------------------------------------------------------

    def initialize(self) -> None:
        """(Re)build the model: the maintenance pass from ∅, fed every EDB
        fact as one insert.  A build that raises keeps the previous one."""
        fault_point("incremental.initialize")
        kept = self.maps, self.state
        self.maps = {predicate: {} for predicate in self.edb.predicates()}
        self.state = JoinKernel(self.registry)
        for component, instances, leadless in self._circuits:
            circuit = component.circuit
            self.state.register(
                *leadless,
                *(variant.plan for variant in circuit.internal + circuit.external),
                *(compiled.plan for plans in instances.values() for compiled in plans),
            )
        staged = {
            (p, row): ((False, None), (True, self.edb.annotation(p, row)))
            for p in self.edb.predicates() for row in self.edb.rows(p)
        }
        try:
            self._maintain(staged, {}, seed=True)
        except BaseException:
            self.maps, self.state = kept
            raise
        self.metrics.bump("annotated_initializes")

    # -- reads ----------------------------------------------------------------

    def model(self) -> Dict[str, FrozenSet[Row]]:
        """The resident support, predicate → rows (EDB and IDB alike)."""
        return {predicate: frozenset(rows) for predicate, rows in self.maps.items()}

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Current (non-zero) rows of one predicate."""
        return frozenset(self.maps.get(predicate, ()))

    def wire_annotations(self) -> Dict[str, Dict[Row, str]]:
        """The whole model's annotations in canonical wire text — what
        a full snapshot publish carries (a maintained batch publishes
        its summary's annotation delta instead)."""
        text = self.semiring.format
        return {
            predicate: {row: text(annotation) for row, annotation in rows.items()}
            for predicate, rows in self.maps.items()
        }

    def _effective(self, predicate: str, row: Row, state: Optional[EdbState] = None):
        """The annotation a fact in EDB ``state`` (default: as the EDB
        has it now) contributes — explicit or the semiring's default;
        None when the fact is absent."""
        present, explicit = state or (
            self.edb.holds(predicate, *row),
            self.edb.annotation(predicate, row),
        )
        if not present:
            return None
        if explicit is not None:
            return explicit
        return self.semiring.from_edb(predicate, row)

    # -- updates --------------------------------------------------------------

    def apply_stream(
        self,
        batches: Sequence[Batch],
        annotations: Optional[Sequence[Optional[Annotations]]] = None,
    ) -> Dict[str, object]:
        """Absorb a burst of batches in **one** maintenance pass,
        atomically: the burst is folded into its net EDB change first,
        so a fact inserted then deleted inside it fires nothing.

        ``annotations`` (aligned with ``batches``, ``None`` for a bare
        batch) attaches explicit carrier values to each batch's own
        inserts, keyed ``(predicate, row)``.  Annotations are
        *absolute*: an insert with one replaces the fact's previous
        annotation, an insert without one on a present fact is a no-op
        — both idempotent, which WAL replay relies on.  Zero
        annotations are rejected (zero denotes absence; use a delete).
        """
        fault_point("incremental.apply")
        if self.budget is not None:
            self.budget.check(phase="annotated-apply")
        annotations = annotations or [None] * len(batches)
        for batch_annotations in annotations:
            for key, value in (batch_annotations or {}).items():
                if self.semiring.is_zero(value):
                    raise ValueError(
                        f"zero annotation on insert {key[0]}{tuple(key[1])!r} "
                        "denotes absence; use a delete instead"
                    )
        staged, applied_inserts, applied_deletes = self._stage(batches, annotations)
        undo: UndoLog = {}
        self.state.plus, self.state.minus = {}, {}
        try:
            self._write_edb(staged, 1)
            if staged:
                self._maintain(staged, undo)
        except BaseException:
            self._write_edb(staged, 0)
            for predicate, rows in undo.items():
                for row, annotation in rows.items():
                    self._put(predicate, row, annotation)
            raise
        # The net delta: of the support, and of the annotation texts as
        # (row, text) pairs — both straight off the undo log.
        plus, minus, annotated_plus, annotated_minus = deltas = {}, {}, {}, {}
        text = self.semiring.format
        for predicate, rows in undo.items():
            table = self.maps.get(predicate, {})
            for row, old in rows.items():
                new = table.get(row)
                if new == old:
                    continue
                if old is None:
                    plus.setdefault(predicate, set()).add(row)
                else:
                    annotated_minus.setdefault(predicate, set()).add((row, text(old)))
                if new is None:
                    minus.setdefault(predicate, set()).add(row)
                else:
                    annotated_plus.setdefault(predicate, set()).add((row, text(new)))
        batch_count = len(batches)
        delta_plus = sum(len(rows) for rows in plus.values())
        delta_minus = sum(len(rows) for rows in minus.values())
        bump = self.metrics.bump
        bump("update_batches", batch_count)
        bump("incremental_batches", batch_count)
        bump("circuit_steps")
        bump("delta_batches_coalesced", batch_count - 1)
        bump("inserts_applied", applied_inserts)
        bump("deletes_applied", applied_deletes)
        bump("delta_plus_total", delta_plus)
        bump("delta_minus_total", delta_minus)
        summary = {"delta_plus": delta_plus, "delta_minus": delta_minus, "batches": batch_count}
        for name, delta in zip(("plus", "minus", "annotated_plus", "annotated_minus"), deltas):
            summary[name] = {p: frozenset(rows) for p, rows in delta.items()}
        return summary

    def _stage(
        self,
        batches: Sequence[Batch],
        annotations: Sequence[Optional[Annotations]],
    ) -> Tuple[Dict[Fact, Tuple[EdbState, EdbState]], int, int]:
        """The burst's net effect on the EDB, fact → (state before,
        state after) where they differ, plus the inserts and deletes
        that took effect in sequence (deletes first within a batch, the
        wire order; a duplicate mention stages its *net* effect).  Each
        batch's inserts read that batch's own annotations, so the burst
        stages exactly what its batches one at a time would leave."""
        before: Dict[Fact, EdbState] = {}
        after: Dict[Fact, EdbState] = {}
        applied_inserts = applied_deletes = 0

        def current(key: Fact) -> EdbState:
            if key not in after:
                before[key] = after[key] = (
                    self.edb.holds(key[0], *key[1]),
                    self.edb.annotation(*key),
                )
            return after[key]

        for (inserts, deletes), batch_annotations in zip(batches, annotations):
            batch_annotations = batch_annotations or {}
            for predicate, row in deletes:
                key = (predicate, tuple(row))
                if current(key)[0]:
                    after[key] = (False, None)
                    applied_deletes += 1
            for predicate, row in inserts:
                key = (predicate, tuple(row))
                annotation = batch_annotations.get(key)
                state = current(key)
                if not state[0] or (
                    annotation is not None
                    and annotation != self._effective(*key, state)
                ):
                    after[key] = (True, annotation)
                    applied_inserts += 1
        staged = {
            key: (before[key], state)
            for key, state in after.items()
            if state != before[key]
        }
        return staged, applied_inserts, applied_deletes

    def _write_edb(self, staged: Mapping[Fact, Tuple[EdbState, EdbState]], side: int) -> None:
        """Move the staged facts to their after (1) or before (0) state."""
        for (predicate, row), states in staged.items():
            present, explicit = states[side]
            self.edb.discard(predicate, *row)
            if present:
                self.edb.add(predicate, *row, annotation=explicit)

    # -- the maintenance pass -------------------------------------------------

    def _put(self, predicate: str, row: Row, annotation, undo: Optional[UndoLog] = None) -> bool:
        """Set one row's annotation (None or zero = absent), keeping the
        kernel's support and net deltas in step; True when it changed."""
        table = self.maps.setdefault(predicate, {})
        old = table.get(row)
        if annotation is not None and self.semiring.is_zero(annotation):
            annotation = None
        if annotation == old:
            return False
        if undo is not None:
            undo.setdefault(predicate, {}).setdefault(row, old)
        if annotation is None:
            del table[row]
            self.state.commit_remove(predicate, row)
        else:
            table[row] = annotation
            if old is None:
                self.state.commit_add(predicate, row)
        return True

    def _maintain(
        self,
        staged: Mapping[Fact, Tuple[EdbState, EdbState]],
        undo: UndoLog,
        seed: bool = False,
    ) -> None:
        """One pass over the schedule for the staged EDB change; a build
        (``seed``) also fires every rule no row can lead."""
        fired, pulled = self.state.rules_fired, self.state.rows_matched
        # predicate → rows whose base (EDB) annotation the burst moved.
        moved: Dict[str, Set[Row]] = {}
        for (predicate, row), (was, now) in staged.items():
            if self._effective(predicate, row, was) != self._effective(predicate, row, now):
                moved.setdefault(predicate, set()).add(row)
        for predicate in moved.keys() - self._derived:
            for row in moved[predicate]:
                self._put(predicate, row, self._effective(predicate, row), undo)
        for component, instances, leadless in self._circuits:
            own = {p: moved[p] for p in component.predicates if p in moved}
            seeds = leadless if seed else ()
            if own or seeds or any(undo.get(p) for p in component.circuit.watch):
                fault_point("incremental.component")
                if self.budget is not None:
                    self.budget.note_iteration(phase="annotated-maintain")
                self._maintain_component(component, instances, own, undo, seeds)
        self.metrics.bump("rules_fired", self.state.rules_fired - fired)
        self.metrics.bump("rows_matched", self.state.rows_matched - pulled)

    def _maintain_component(
        self,
        component: Component,
        instances: Dict[str, Tuple[InstancePlan, ...]],
        own: Dict[str, Set[Row]],
        undo: UndoLog,
        seeds: Tuple[Plan, ...] = (),
    ) -> None:
        """Invalidate the cone, reset it, re-derive from below and the seeds."""
        state, maps, circuit = self.state, self.maps, component.circuit

        def changed(predicate: str, was: bool) -> List[Row]:
            """Rows of a maintained lower predicate that were (``was``)
            or are now present, with a different annotation or none."""
            table = maps.get(predicate, {})
            return [
                row
                for row, old in undo.get(predicate, {}).items()
                if table.get(row) != old
                and (old if was else table.get(row)) is not None
            ]

        def heads(plan: Plan, rows) -> Set[Row]:
            """The head rows one NEW firing of ``plan`` derives."""
            return state.fire(plan, rows, budget=self.budget, as_set=True)

        # 1. The cone: rows with an OLD derivation through what moved,
        # closed forward by JoinKernel.close from the moved rows.
        cone: Dict[str, Set[Row]] = {
            predicate: rows & state.rows(predicate) for predicate, rows in own.items()
        }

        def admit(plan: Plan, produced: Set[Row]) -> Set[Row]:
            found = cone.setdefault(plan.head, set())
            fresh = (produced & state.rows(plan.head)) - found
            found |= fresh
            return fresh

        start = []
        for plan, predicate, negated in circuit.external:
            rows = state.plus.get(predicate) if negated else changed(predicate, True)
            if rows:
                start.append((plan, rows))
        state.close(
            start,
            [(predicate, plan) for plan, predicate, _negated in circuit.internal],
            admit,
            lambda _round, _delta: None,
            delta={predicate: set(rows) for predicate, rows in cone.items()},
            before=OLD,
            after=OLD,
            budget=self.budget,
            as_set=True,
        )

        # 2. Reset it to what the EDB alone still says.
        for predicate, rows in cone.items():
            for row in rows:
                self._put(predicate, row, self._effective(predicate, row), undo)
        self.metrics.bump("overdeleted_total", sum(map(len, cone.values())))

        # 3. Re-derive from below: the cone, the rows whose base moved, the
        # seeds' heads and the heads reachable (at NEW) from what is new.
        dirty: Dict[str, Set[Row]] = {p: set(rows) for p, rows in cone.items()}
        for predicate, rows in own.items():
            dirty.setdefault(predicate, set()).update(rows)
        for plan in seeds:
            dirty.setdefault(plan.head, set()).update(heads(plan, None))

        for plan, predicate, negated in circuit.external:
            rows = state.minus.get(predicate) if negated else changed(predicate, False)
            if rows:
                dirty.setdefault(plan.head, set()).update(heads(plan, rows))
        for _round in range(self.max_rounds):
            if not any(dirty.values()):
                break
            if self.budget is not None:
                self.budget.note_iteration(phase="annotated-rederive")
            risen: Dict[str, List[Row]] = {}
            for predicate, rows in dirty.items():
                if not rows:
                    continue
                values: Dict[Row, object] = {}
                for row in rows:
                    base = self._effective(predicate, row)
                    if base is not None:
                        values[row] = base
                for compiled in instances[predicate]:
                    accumulate(
                        state.fire(compiled.plan, rows, budget=self.budget),
                        compiled,
                        maps,
                        self.semiring,
                        values,
                    )
                risen[predicate] = [
                    row for row in rows if self._put(predicate, row, values.get(row), undo)
                ]
            dirty = {}
            for plan, predicate, _negated in circuit.internal:
                if risen.get(predicate):
                    dirty.setdefault(plan.head, set()).update(heads(plan, risen[predicate]))
        else:
            raise BudgetExceeded(
                f"annotations of {sorted(component.predicates)} did not stabilize "
                f"within {self.max_rounds} rounds under semiring {self.semiring.name!r}"
                " (naturals over a cyclic derivation space diverge by design)",
                progress=self.budget.progress if self.budget is not None else None,
            )
        self.metrics.bump(
            "rederived_total",
            sum(len(rows & state.rows(predicate)) for predicate, rows in cone.items()),
        )
