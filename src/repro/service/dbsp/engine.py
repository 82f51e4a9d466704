"""The maintenance engine: one pass for every stratified view.

:class:`DBSPEngine` maintains every stratified view, under any semiring
(:mod:`repro.semiring`), and the store of an
:class:`~repro.service.dbsp.AlternatingEngine`.  The model is a
K-relation (PAPERS.md, *Codd's Theorem for Databases over Semirings*):
the join kernel holds its *support*, what joins and negation gates
read, and ``maps`` the annotations.  One :meth:`apply_stream` is one
step of the incrementalized circuit: stage the burst's net EDB change;
walk the component schedule; close each reached component's *cone* at
``OLD`` (own rows whose base fell or changed, and present rows with an
old instance through what moved below); reset it to what the EDB says;
re-derive.  The pass mutates in place behind an undo log (the kernel's
net ``plus`` / ``minus``, and each touched row's first annotation), so
a failure anywhere puts everything back, and the net delta comes off
the same log.

Only the re-derive depends on the semiring, and a law picks it.  Where
every non-zero annotation is ``1`` and ``1 ⊕ x = 1``
(:attr:`~repro.semiring.Semiring.one_derivation_settles`: ``bool``),
one surviving derivation settles a row: a cone row stays if its base
holds or a head-bound probe of its rules fires, then what was kept or
arrived closes semi-naively at ``NEW``; no annotation is stored, and a
build is that closure from each rule's naive firing.  Elsewhere a probe
keeps a row but not its value (tropical: the cheapest derivation may
be the one that went), so each dirty row is recomputed in full, base
``⊕`` its instances, until a round changes nothing — exact from below
in any ω-continuous semiring, the round cap the valve for ``naturals``
on a cycle; a build is that pass from ∅.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import repeat
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional
from typing import Sequence, Set, Tuple

from ...datalog.database import Database
from ...datalog.kernel import NEW, OLD, JoinKernel, Plan
from ...datalog.schedule import Component
from ...datalog.stratification import NotStratifiedError
from ...relations.universe import FunctionRegistry
from ...relations.values import Value
from ...robustness import BudgetExceeded, fault_point
from ...semiring import Semiring, get_semiring
from ..metrics import ViewMetrics
from ..registry import PreparedProgram

if TYPE_CHECKING:
    from ...robustness import EvaluationBudget

__all__ = ["DBSPEngine"]

Row = Tuple[Value, ...]
Fact = Tuple[str, Row]
FactDelta = Dict[str, Set[Row]]
Batch = Tuple[Iterable[Fact], Iterable[Fact]]
#: Explicit per-fact annotations riding along with a batch's inserts.
Annotations = Mapping[Fact, object]
#: A fact's EDB state: ``(present, explicit annotation or None)``.
EdbState = Tuple[bool, object]
#: predicate → row → the annotation it held before the pass first
#: overwrote it (``None``: absent).
UndoLog = Dict[str, Dict[Row, object]]
#: predicate → own row whose base moved → ``(base before, base after)``.
Moved = Dict[str, Dict[Row, Tuple[object, object]]]

# Every firing is one compiled plan of the join kernel: the literal that
# carries the delta (a row set; for a negated lead, the atoms whose flip
# is the trigger) leads, and the other literals are index probes read at
# NEW (current state) or OLD (rewound by the net deltas so far).

_UNTIMED = nullcontext()
_ABSENT: EdbState = (False, None)


def stage(
    edb: Database,
    batches: Sequence[Batch],
    before: Dict[Fact, EdbState],
    annotations: Optional[Sequence[Optional[Annotations]]] = None,
    semiring: Optional[Semiring] = None,
) -> Tuple[Dict[Fact, EdbState], int, int]:
    """Write a burst to ``edb``, each touched fact's first state into
    ``before``; each one's state after, and the inserts and deletes that
    took effect in wire order (deletes first within a batch, each
    batch's inserts with its own annotations, values of ``semiring``)."""
    # A fact the burst has not touched yet has the annotation it had.
    annotated, after = edb.has_annotations(), {}
    inserted = deleted = 0
    for (inserts, deletes), given in zip(batches, annotations or repeat(None)):
        for predicate, row in deletes:
            key = (predicate, row)
            if key not in after:
                held = edb.annotation(*key) if annotated else None
                before[key] = after[key] = (edb.holds(predicate, *row), held)
            if after[key][0]:
                edb.discard(predicate, *row)
                after[key] = _ABSENT
                deleted += 1
        for predicate, row in inserts:
            key = (predicate, row)
            state = after.get(key)
            if state is None:
                held = edb.annotation(*key) if annotated else None
                state = before[key] = after[key] = (edb.holds(predicate, *row), held)
            present, old = state
            annotation = given.get(key) if given else None
            if annotation is None:
                if not present:
                    edb.add(predicate, *row)
                    after[key] = (True, None)
                    inserted += 1
                continue
            if semiring.is_zero(annotation):
                raise ValueError(
                    f"zero annotation on insert {predicate}{row!r} denotes "
                    "absence; use a delete instead"
                )
            if not present or annotation != (semiring.from_edb(*key) if old is None else old):
                edb.add(predicate, *row, annotation=annotation)
                after[key] = (True, annotation)
                inserted += 1
    return after, inserted, deleted


class DBSPEngine:
    """A resident K-relation model maintained over a stream of batches.

    The seam every view engine shares — ``edb``, ``state``, ``model()``,
    ``rows()``, ``initialize()``, ``budget`` and :meth:`apply_stream`,
    the one write entry — plus the annotations: each batch's explicit
    values beside it, ``maps``, :meth:`wire_annotations` and the
    ``annotated_plus`` / ``annotated_minus`` delta of every summary.
    """

    def __init__(
        self,
        prepared: PreparedProgram,
        database: Optional[Database] = None,
        registry: Optional[FunctionRegistry] = None,
        metrics: Optional[ViewMetrics] = None,
        max_rounds: Optional[int] = None,
        budget: Optional[EvaluationBudget] = None,
        semiring: Optional[Semiring] = None,
    ):
        if not prepared.stratified:
            raise NotStratifiedError(
                f"program {prepared.name!r} is not stratified; maintenance "
                "requires the stratified fast path"
            )
        self.prepared = prepared
        self.semiring = semiring = semiring or get_semiring("bool")
        self.registry = registry
        self.metrics = metrics if metrics is not None else ViewMetrics()
        self.budget = budget
        self.edb = (database or Database()).copy()
        for predicate, row in prepared.seed_facts:
            self.edb.add(predicate, *row)  # an explicit annotation stays
        components = [c for c in prepared.schedule if c.has_rules()]
        self._plans = [plan for c in components for plan in c.circuit.plans()]
        # The law picks the re-derive, the build that follows from it,
        # the budget phases' prefix and the round cap (a closure of rows
        # always ends; a recomputed sum may not).
        self._settles = semiring.one_derivation_settles
        if self._settles:
            self._maintain_component, self._build = self._settle, self._close_all
            self._phase, rounds = "dbsp", 100_000
            self._circuits = [(component, None, ()) for component in components]
        else:
            from ...datalog.annotated import accumulate, instance_plan

            self._maintain_component, self._build = self._recompute, self._build_pass
            self._phase, rounds = "annotated", 1_000
            self._accumulate = accumulate
            self._circuits = []
            for component in components:
                # Per head, its rules' goal-led instance plans (a dirty
                # row recomputed in full); and the naive plans of rules
                # without a positive literal, which no row leads, so a
                # build fires them once.
                instances = dict.fromkeys(component.predicates, ())
                leadless = []
                for rule, naive in zip(component.rules, component.circuit.naive):
                    compiled = instance_plan(rule, goal=True)
                    instances[rule.head.predicate] += (compiled,)
                    self._plans.append(compiled.plan)
                    if not rule.positive_literals():
                        leadless.append(naive)
                self._circuits.append((component, instances, tuple(leadless)))
        self.max_rounds = max_rounds if max_rounds is not None else rounds
        # Predicates some rule derives; a change to any other is its own
        # whole effect on the model.
        self._derived = frozenset().union(*(c.predicates for c in components))
        #: predicate → row → annotation (none kept where one derivation
        #: settles a row: the support is then the model).
        self.maps: Dict[str, Dict[Row, object]] = {}
        self.state = JoinKernel(registry)
        self.initialize()

    # -- the build --------------------------------------------------------------

    def initialize(self) -> None:
        """(Re)build the model from the EDB; a failed build keeps the last."""
        fault_point("incremental.initialize")
        kept = self.maps, self.state
        self.maps = {predicate: {} for predicate in self.edb.predicates()}
        self.state = JoinKernel(self.registry)
        self.state.register(*self._plans)
        try:
            self.metrics.bump_many(self._build())
        except BaseException:
            self.maps, self.state = kept
            raise

    def _close_all(self) -> Dict[str, int]:
        """The settle law's build: the EDB, then each component closed
        semi-naively from its rules' naive firings."""
        state = self.state
        for predicate in self.edb.predicates():
            state.add_all(predicate, self.edb.rows(predicate))
        for component, _instances, _leadless in self._circuits:
            naive = [(plan, None) for plan in component.circuit.naive]
            self._close(component, "initialize", naive, lambda p, rows: state.add_all(p.head, rows))
        return {"rules_fired": state.rules_fired, "rows_matched": state.rows_matched}

    def _build_pass(self) -> Dict[str, int]:
        """The recompute's build: the pass from ∅, every EDB fact an insert."""
        edb, work = self.edb, {"overdeleted_total": 0, "rederived_total": 0}
        facts = [(p, row) for p in edb.predicates() for row in edb.rows(p)]
        after = {fact: (True, edb.annotation(*fact)) for fact in facts}
        self._work = work
        self._maintain(dict.fromkeys(facts, _ABSENT), after, undo={}, seed=True)
        work.update(rules_fired=self.state.rules_fired, rows_matched=self.state.rows_matched)
        return {**work, "annotated_initializes": 1}

    # -- reads ----------------------------------------------------------------

    def model(self) -> Dict[str, FrozenSet[Row]]:
        """The resident support, predicate → rows (EDB and IDB alike)."""
        return {predicate: frozenset(rows) for predicate, rows in self.state.facts.items()}

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Current (non-zero) rows of one predicate."""
        return frozenset(self.state.facts.get(predicate, ()))

    def model_rows(self) -> int:
        """Resident rows (the ``model_rows`` stat)."""
        return sum(len(rows) for rows in self.state.facts.values())

    def wire_annotations(self) -> Dict[str, Dict[Row, str]]:
        """The model's annotations in wire text, for a full publish."""
        text = self.semiring.format
        return {p: {row: text(a) for row, a in rows.items()} for p, rows in self.maps.items()}

    def _effective(self, predicate: str, row: Row):
        """A fact's base annotation: explicit or the semiring's default;
        None when it is absent."""
        if not self.edb.holds(predicate, *row):
            return None
        explicit = self.edb.annotation(predicate, row)
        return self.semiring.from_edb(predicate, row) if explicit is None else explicit

    # -- update batches -------------------------------------------------------

    def apply_stream(
        self,
        batches: Sequence[Batch],
        annotations: Optional[Sequence[Optional[Annotations]]] = None,
    ) -> Dict[str, object]:
        """Absorb a burst of batches in **one** pass, atomically.

        The summary's ``plus`` / ``minus`` are net: ``(rows - minus) |
        plus`` on the pre-burst model is the post-burst model.
        ``annotations`` (aligned with ``batches``) gives each batch's
        inserts explicit values, keyed ``(predicate, row)``: absolute,
        so replay is idempotent; an insert without one on a present fact
        is a no-op, and a zero is rejected (absence is a delete).
        """
        fault_point("incremental.apply")
        if self.budget is not None:
            self.budget.check(phase=f"{self._phase}-apply")
        state = self.state
        state.plus, state.minus = {}, {}
        before: Dict[Fact, EdbState] = {}
        undo: UndoLog = {}
        fired, pulled = state.rules_fired, state.rows_matched
        # The pass's counters, reported in one update when it is through
        # (a pass that raises reports none).
        work = self._work = {"overdeleted_total": 0, "rederived_total": 0}
        try:
            after, inserted, deleted = stage(self.edb, batches, before, annotations, self.semiring)
            if after:
                self._maintain(before, after, undo)
        except BaseException:
            self._restore(before, undo)
            raise
        plus = {p: frozenset(rows) for p, rows in state.plus.items() if rows}
        minus = {p: frozenset(rows) for p, rows in state.minus.items() if rows}
        # The annotation texts' delta, as (row, text) pairs off the log.
        annotated: Tuple[FactDelta, FactDelta] = ({}, {})
        text = self.semiring.format
        for predicate, rows in undo.items():
            table = self.maps[predicate]
            for row, old in rows.items():
                new = table.get(row)
                if new != old and new is not None:
                    annotated[0].setdefault(predicate, set()).add((row, text(new)))
                if new != old and old is not None:
                    annotated[1].setdefault(predicate, set()).add((row, text(old)))
        if undo:
            annotated = tuple({p: frozenset(pairs) for p, pairs in d.items()} for d in annotated)
        count = len(batches)
        delta_plus = sum(len(rows) for rows in plus.values())
        delta_minus = sum(len(rows) for rows in minus.values())
        work.update(
            rules_fired=state.rules_fired - fired,
            rows_matched=state.rows_matched - pulled,
            update_batches=count,
            incremental_batches=count,
            circuit_steps=1,
            delta_batches_coalesced=count - 1,
            inserts_applied=inserted,
            deletes_applied=deleted,
            delta_plus_total=delta_plus,
            delta_minus_total=delta_minus,
        )
        self.metrics.bump_many(work)
        return {
            "delta_plus": delta_plus,
            "delta_minus": delta_minus,
            "batches": count,
            "plus": plus,
            "minus": minus,
            "annotated_plus": annotated[0],
            "annotated_minus": annotated[1],
        }

    def _restore(self, before: Mapping[Fact, EdbState], undo: UndoLog) -> None:
        """Put back each touched fact's first state, the support the
        kernel's net deltas moved, and each touched row's first value."""
        edb, state = self.edb, self.state
        for (predicate, row), (present, explicit) in before.items():
            edb.discard(predicate, *row)
            if present:
                edb.add(predicate, *row, annotation=explicit)
        for deltas, undo_one in ((state.plus, state.remove), (state.minus, state.add)):
            for predicate, rows in deltas.items():
                for row in rows:
                    undo_one(predicate, row)
        for predicate, rows in undo.items():
            table = self.maps[predicate]
            for row, old in rows.items():
                if old is None:
                    table.pop(row, None)
                else:
                    table[row] = old

    # -- the pass -------------------------------------------------------------

    def _put(self, predicate: str, values: Mapping[Row, object], undo: UndoLog) -> List[Row]:
        """Set rows' annotations (None or zero: absent), the support and
        its net deltas in step; the rows that changed."""
        state = self.state
        if self._settles:  # every non-zero annotation is one
            changed = []
            for row, value in values.items():
                if (state.commit_remove if value is None else state.commit_add)(predicate, row):
                    changed.append(row)
            return changed
        table, changed = self.maps.setdefault(predicate, {}), []
        for row, annotation in values.items():
            old = table.get(row)
            if annotation is not None and self.semiring.is_zero(annotation):
                annotation = None
            if annotation == old:
                continue
            undo.setdefault(predicate, {}).setdefault(row, old)
            changed.append(row)
            if annotation is None:
                del table[row]
                state.commit_remove(predicate, row)
            else:
                table[row] = annotation
                if old is None:
                    state.commit_add(predicate, row)
        return changed

    def _maintain(self, before, after, undo: UndoLog, seed: bool = False) -> None:
        """One walk of the schedule for the EDB change ``before`` →
        ``after``; a build (``seed``) fires every rule no row leads."""
        moved: Moved = {}
        direct: Dict[str, Dict[Row, object]] = {}  # predicates no rule derives
        derived, from_edb = self._derived, self.semiring.from_edb
        for key, (now, new) in after.items():
            was, old = before[key]
            # Each side's base, as _effective reads it (inline: a hot loop).
            old = (from_edb(*key) if old is None else old) if was else None
            new = (from_edb(*key) if new is None else new) if now else None
            if old == new:
                continue
            predicate, row = key
            if predicate in derived:
                moved.setdefault(predicate, {})[row] = (old, new)
            else:
                direct.setdefault(predicate, {})[row] = new
        for predicate, values in direct.items():
            self._put(predicate, values, undo)
        plus, minus = self.state.plus, self.state.minus
        for component, instances, leadless in self._circuits:
            own = {p: moved[p] for p in component.predicates if p in moved} if moved else {}
            seeds = leadless if seed else ()
            if own or seeds or any(
                plus.get(p) or minus.get(p) or undo.get(p) for p in component.circuit.watch
            ):
                fault_point("incremental.component")
                if self.budget is not None:
                    self.budget.note_iteration(phase=f"{self._phase}-maintain")
                self._maintain_component(component, own, undo, instances, seeds)

    def _triggers(self, component: Component, undo: UndoLog, view: int) -> List[tuple]:
        """Each lead over an earlier component with the rows that moved
        its literal: at ``OLD`` a positive literal's rows that left the
        support and a negated one's that entered it, at ``NEW`` the
        other way round; and a positive literal's rows that stayed with
        a new annotation, at either."""
        state = self.state
        positive, negated = (state.minus, state.plus) if view == OLD else (state.plus, state.minus)
        external = component.circuit.external
        if undo:
            positive = dict(positive)
            for predicate in {v.predicate for v in external if not v.negated} & undo.keys():
                table = self.maps[predicate]
                revalued = {
                    row
                    for row, old in undo[predicate].items()
                    if old is not None and table.get(row) not in (None, old)
                }
                if revalued:
                    positive[predicate] = revalued.union(positive.get(predicate, ()))
        return [
            (plan, rows)
            for plan, predicate, is_negated in external
            if (rows := (negated if is_negated else positive).get(predicate))
        ]

    def _close(self, component: Component, phase, start, admit, delta=None, view=NEW) -> None:
        """Close a component on the kernel's fixpoint driver: ``start``,
        then its own leads, all at ``view``; ``admit`` takes each
        firing's head rows as a set.  A round with rows is noted under
        ``phase`` (None: a non-recursive step, not noted)."""
        budget, max_rounds = self.budget, self.max_rounds

        def step(index: int, delta: FactDelta) -> None:
            if index == max_rounds:
                raise BudgetExceeded(
                    f"{phase} closure of {sorted(component.predicates)} did not "
                    f"converge within {max_rounds} rounds",
                    progress=budget.progress if budget is not None else None,
                )
            if delta and budget is not None and phase:
                budget.note_iteration(phase=f"{self._phase}-{phase}")

        leads = [(variant.predicate, variant.plan) for variant in component.circuit.internal]
        self.state.close(start, leads, admit, step, delta, view, view, as_set=True)

    def _invalidate(self, component: Component, own: Moved, undo: UndoLog) -> FactDelta:
        """The cone, closed at ``OLD`` (the component's own rows are
        untouched yet; the ones below are rewound by the net deltas) and
        reset to its base."""
        state = self.state
        cone: FactDelta = {}
        for predicate, rows in own.items():
            present = state.facts.get(predicate, ())
            fell = {row for row, (old, _new) in rows.items() if old is not None and row in present}
            if fell:
                cone[predicate] = fell
        triggers = self._triggers(component, undo, OLD)
        if not (triggers or cone):
            return cone

        def admit(plan: Plan, produced: Set[Row]) -> Set[Row]:
            """The present rows not in the cone yet: now in it."""
            fresh = produced.intersection(state.facts.get(plan.head, ()))
            fresh.difference_update(cone.get(plan.head, ()))
            if fresh:
                cone.setdefault(plan.head, set()).update(fresh)
            return fresh

        phase = "retract" if component.recursive else None
        delta = {predicate: set(rows) for predicate, rows in cone.items()}
        self._close(component, phase, triggers, admit, delta, OLD)
        for predicate, rows in cone.items():
            if predicate in self.edb:  # else no row of it has a base
                self._put(predicate, {row: self._effective(predicate, row) for row in rows}, undo)
            else:
                self._put(predicate, dict.fromkeys(rows), undo)
        self._work["overdeleted_total"] += sum(map(len, cone.values()))
        return cone

    # -- the re-derive where one derivation settles a row ---------------------

    def _settle(self, component: Component, own: Moved, undo: UndoLog, _instances, _seeds) -> None:
        """Invalidate; keep each cone row whose base holds (the reset
        left it) or whose rules' head-bound probe fires — a row at a time
        in a recursive component, so one kept row can support the next,
        else one firing per probe plan; close what was kept or arrived.
        A recursive component's three sub-streams are timed as phases."""
        state, recursive = self.state, component.recursive
        timed = self.metrics.phase if recursive else lambda _name: _UNTIMED
        with timed("overdelete"):
            cone = self._invalidate(component, own, undo)
        with timed("rederive"):
            delta: FactDelta = {}
            for predicate, rows in cone.items():
                present = state.facts.get(predicate, set())
                plans = component.circuit.probes.get(predicate, ())
                if recursive:
                    kept = set()
                    for row in rows:
                        if row in present or (
                            any(state.fire(plan, (row,)) for plan in plans)
                            and state.commit_add(predicate, row)
                        ):
                            kept.add(row)
                else:
                    kept = rows & present
                    for plan in plans:
                        kept |= state.fire(plan, rows - kept, as_set=True)
                    state.commit_add_all(predicate, kept)
                if kept:
                    delta[predicate] = kept
                    self._work["rederived_total"] += len(kept)
        with timed("insert_close"):
            for predicate, rows in own.items():
                fresh = state.commit_add_all(
                    predicate, [row for row, (_old, new) in rows.items() if new is not None]
                )
                if fresh:
                    delta.setdefault(predicate, set()).update(fresh)
            triggers = self._triggers(component, undo, NEW)
            if triggers or delta:
                admit = lambda plan, rows: state.commit_add_all(plan.head, rows)  # noqa: E731
                phase = "insert-close" if recursive else None
                self._close(component, phase, triggers, admit, delta)

    # -- the re-derive under every other semiring -------------------------------

    def _recompute(self, component: Component, own: Moved, undo: UndoLog, instances, seeds) -> None:
        """Invalidate, then recompute the dirty rows from below — the
        cone, the own rows whose base moved, the seeds' heads and the
        heads reached at ``NEW`` from what moved below — round by round
        until nothing changes; each firing ticks the budget."""
        state, maps, budget = self.state, self.maps, self.budget
        cone = self._invalidate(component, own, undo)

        def heads(plan: Plan, rows) -> Set[Row]:
            return state.fire(plan, rows, budget=budget, as_set=True)

        dirty: FactDelta = {p: set(rows) for p, rows in cone.items()}
        for predicate, rows in own.items():
            dirty.setdefault(predicate, set()).update(rows)
        for plan, rows in [(seed, None) for seed in seeds] + self._triggers(component, undo, NEW):
            dirty.setdefault(plan.head, set()).update(heads(plan, rows))
        for _round in range(self.max_rounds):
            if not any(dirty.values()):
                break
            if budget is not None:
                budget.note_iteration(phase="annotated-rederive")
            risen: Dict[str, List[Row]] = {}
            for predicate, rows in dirty.items():
                # Each row's base (None: absent), then ⊕ its instances.
                values = {row: self._effective(predicate, row) for row in rows}
                for compiled in instances[predicate] if rows else ():
                    found = state.fire(compiled.plan, rows, budget=budget)
                    self._accumulate(found, compiled, maps, self.semiring, values)
                risen[predicate] = self._put(predicate, values, undo)
            dirty = {}
            for plan, predicate, _negated in component.circuit.internal:
                if risen.get(predicate):
                    dirty.setdefault(plan.head, set()).update(heads(plan, risen[predicate]))
        else:
            raise BudgetExceeded(
                f"annotations of {sorted(component.predicates)} did not stabilize "
                f"within {self.max_rounds} rounds under semiring {self.semiring.name!r}"
                " (naturals over a cyclic derivation space diverge by design)",
                progress=budget.progress if budget is not None else None,
            )
        rows_of = state.rows
        self._work["rederived_total"] += sum(len(rows & rows_of(p)) for p, rows in cone.items())
