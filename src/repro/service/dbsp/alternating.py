"""The alternating fixpoint as one store of ranked rows.

The valid computation of the paper's §2.2 — and the well-founded
alternating fixpoint it coincides with — iterates one operator.  Write
``Γ(S)`` for the least model of the program in which every negated IDB
literal ``not q(t̄)`` reads the *fixed* relation ``S`` instead of the
model under construction.  ``Γ`` is antimonotone, and

    ``U₀ = Γ(∅)``, ``T₁ = Γ(U₀)``, ``U₂ = Γ(T₁)``, ``T₃ = Γ(U₂)``, …

alternates shrinking over-estimates ``U`` of the derivable facts with
growing under-estimates ``T`` of the certainly true ones.  Where
``T_n = T_{n−2}`` the pair ``(T_n, U_{n−1})`` is the model: **true**
rows are ``T_n``, **undefined** rows ``U_{n−1} − T_n``.

The program is rewritten once (:func:`read_previous`: ``not q(t̄)``
becomes ``not q@prev(t̄)`` over a helper predicate; ``@`` cannot be
parsed, so the name can neither collide nor be typed by a client).  The
result is semipositive, and with every helper empty its least model is
``U₀`` — which one :class:`~repro.service.dbsp.engine.DBSPEngine`
maintains over the view's EDB: the **store**.

Every level is a subset of ``U₀`` (``∅`` is below every helper input,
and ``Γ`` is antimonotone), and a row's membership over the levels is
an interval on each side: it enters ``T`` at some odd level and stays,
or leaves ``U`` at some even level and stays out, or neither
(undefined).  So the chain is kept as differences, DBSP's way of
keeping an iterated fixpoint: every row of a level-dependent predicate
in the store carries one **rank** — ``u`` for a row that leaves ``U``
at level ``u``, ``UNDEFINED``, or ``TRUE + 1 − t`` for a row that enters
``T`` at level ``t`` — and level *k* is the store filtered by rank
(``rank > k`` at even *k*, ``rank > TRUE − k`` at odd *k*).

A rule instance holds at the levels below its own rank: the least rank
of its positive rows and of the shifted ``φ(rank)`` of its negated ones
(a negated literal reads the level below).  The join kernel computes
that rank inside the firing (its *ranked* view), so a row's rank is the
best of its instances' — one head-bound probe per rule.  A write:

* steps the store once over the client's batches (``U₀``, one DRed
  step, as for any stratified view);
* marks the rows whose instances the step touched, and the rows that
  entered or left the store;
* settles marked rows level by level, lowest first (a heap): a row of a
  non-recursive component takes the rank its instances give it now; a
  row whose rank changes marks the rows it is read by, at the first
  level where the two ranks differ (one more for a negated read).  A
  component with positive recursion is settled by over-delete and
  re-derive at each level it is marked at, and steps on until its rows
  are decided;
* stops at the first odd level no negated row enters (``T_n =
  T_{n−2}``) once nothing is marked below it — the chain's new top; a
  row still ranked beyond it is undefined.

So a write costs the rows whose level status changes, times their
rules — not levels × delta.  The build is the same pass from an empty
chain: every row of ``U₀`` undefined, marked at level 1.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ...datalog.ast import Literal, PredAtom, Program, Rule
from ...datalog.database import Database
from ...datalog.kernel import NEW, OLD, TRUE, UNDEFINED
from ...datalog.schedule import Component
from ...relations.universe import FunctionRegistry
from ...relations.values import Value
from ...robustness import EvaluationBudget, fault_point
from ..metrics import ViewMetrics
from ..registry import PreparedProgram, prepare_program
from .engine import DBSPEngine

__all__ = ["AlternatingEngine", "read_previous"]

Row = Tuple[Value, ...]
Key = Tuple[str, Row]
Delta = Dict[str, FrozenSet[Row]]
Batch = Tuple[Iterable[Tuple[str, Row]], Iterable[Tuple[str, Row]]]

#: What the store reports into the view's counters: its batches and its
#: work (the chain reports the visible net deltas itself).
_COUNTED = frozenset(
    {
        "rules_fired",
        "rows_matched",
        "circuit_steps",
        "overdeleted_total",
        "rederived_total",
        "update_batches",
        "incremental_batches",
        "delta_batches_coalesced",
        "inserts_applied",
        "deletes_applied",
    }
)


def read_previous(program: Program) -> Tuple[Program, Dict[str, str]]:
    """``program`` with every negated IDB literal ``not q(t̄)`` reading
    ``q@prev`` instead, and the ``q → q@prev`` map of the helpers used.

    The result negates only predicates no rule derives, so it is
    stratified whatever the input was.
    """
    idb = program.idb_predicates()
    helpers: Dict[str, str] = {}
    rules = []
    for rule in program.rules:
        body = []
        for item in rule.body:
            if (
                isinstance(item, Literal)
                and not item.positive
                and item.atom.predicate in idb
            ):
                helper = helpers.setdefault(
                    item.atom.predicate, f"{item.atom.predicate}@prev"
                )
                item = Literal(PredAtom(helper, item.atom.args), False)
            body.append(item)
        rules.append(Rule(rule.head, tuple(body)))
    return Program(tuple(rules), name=program.name), helpers


def _decided(rank: int) -> float:
    """The level that decides a row of this rank: where it leaves ``U``
    or enters ``T`` (0 for a row outside the store; never, undefined)."""
    if rank < UNDEFINED:
        return rank
    if rank > UNDEFINED:
        return TRUE + 1 - rank
    return float("inf")


def _position(level: int) -> int:
    """The rank a row must exceed to belong to ``level``."""
    return level if level % 2 == 0 else TRUE - level


class _LevelMetrics:
    """The store's window onto the view's metrics: phases all, counters
    only those in ``counters``."""

    def __init__(self, view_metrics: ViewMetrics, counters: FrozenSet[str]):
        self._view_metrics = view_metrics
        self._counters = counters
        self.phase = view_metrics.phase

    def bump_many(self, amounts: Dict[str, int]) -> None:
        counters = self._counters
        self._view_metrics.bump_many(
            {counter: amount for counter, amount in amounts.items() if counter in counters}
        )


class AlternatingEngine:
    """A three-valued model maintained as one store of ranked rows.

    Engine-compatible with :class:`DBSPEngine` (``edb``, ``budget``,
    ``initialize()``, ``apply_stream()``, ``model()``,
    ``rows()``) plus the second truth status: ``undefined_model()`` /
    ``undefined_rows()``, and ``undefined_plus`` / ``undefined_minus``
    beside ``plus`` / ``minus`` in every summary.  No helper predicate
    appears in anything it returns.
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
        self.registry = registry
        self.metrics = metrics if metrics is not None else ViewMetrics()
        self.max_rounds = max_rounds
        self.budget = budget
        program, self._helpers = read_previous(prepared.program)
        self._helper_names = frozenset(self._helpers.values())
        level_program = prepare_program(prepared.name, program)
        schedule = level_program.schedule
        # Rows vary by level in the predicates that read a helper, on
        # any path.  A negated predicate that does not is ranked too:
        # its rows are true from T₁ (U₀ reads every helper as empty).
        moving: Set[str] = set()
        for component in schedule:
            if component.has_rules() and component.circuit.watch & (
                self._helper_names | moving
            ):
                moving |= component.predicates
        self._moving = frozenset(moving)
        self._ranked = frozenset(moving | set(self._helpers))
        #: The kernel view every ranked firing reads.
        self._view = self._ranked | self._helper_names
        self._schedule = schedule
        self._slot = {
            predicate: index
            for index, component in enumerate(schedule)
            for predicate in component.predicates & moving
        }
        self._probes: Dict[str, tuple] = {}
        # Predicate → the plans a row of it leads: positive reads, and
        # negated ones (of ``q@prev`` for an IDB ``q``).
        self._reads: Dict[str, list] = {}
        self._negated_reads: Dict[str, list] = {}
        base = {helper: predicate for predicate, helper in self._helpers.items()}
        for component in schedule:
            if not component.predicates & moving:
                continue
            circuit = component.circuit
            self._probes.update(circuit.probes)
            for variant in circuit.internal + circuit.external:
                if variant.negated:
                    predicate = base.get(variant.predicate, variant.predicate)
                    self._negated_reads.setdefault(predicate, []).append(variant.plan)
                else:
                    self._reads.setdefault(variant.predicate, []).append(variant.plan)
        self._ranks: Dict[str, Dict[Row, int]] = {p: {} for p in self._ranked}
        edb = (database or Database()).copy()
        for predicate, row in prepared.seed_facts:
            edb.add(predicate, *row)
        self._store = DBSPEngine(
            level_program,
            database=edb,
            registry=registry,
            metrics=_LevelMetrics(self.metrics, _COUNTED),
            max_rounds=max_rounds,
            budget=budget,
        )
        # The store never holds a helper row, so its database *is* the
        # view's: what the view rolls back, checkpoints and fingerprints.
        self.edb = self._store.edb
        self._build()

    # -- the ranks ------------------------------------------------------------

    def _install(self) -> None:
        """Hand the store's kernel the rank tables (a helper reads its
        predicate's)."""
        index = self._store.state.index
        for predicate, table in self._ranks.items():
            index.setdefault(predicate, {})[None] = table
        for predicate, helper in self._helpers.items():
            index.setdefault(helper, {})[None] = self._ranks[predicate]

    def _build(self) -> None:
        """Rank every row of the store from an empty chain."""
        state = self._store.state
        fired, pulled = state.rules_fired, state.rows_matched
        for table in self._ranks.values():
            table.clear()
        #: Decided level → the rows decided there.
        self._levels: Dict[int, Set[Key]] = {}
        #: Odd level → negated-predicate rows entering ``T`` there.
        self._entered: Dict[int, int] = {}
        self._deepest = 0
        self._top = 1
        self._install()
        self._begin()
        facts = state.facts
        for predicate in self._ranked:
            for row in facts.get(predicate, ()):
                key = (predicate, row)
                if predicate in self._moving:
                    self._put(key, UNDEFINED)
                    self._mark(1, key)
                else:
                    self._put(key, TRUE)
        self._settle("dbsp-initialize")
        self.metrics.bump_many(
            {
                "rules_fired": state.rules_fired - fired,
                "rows_matched": state.rows_matched - pulled,
            }
        )

    def _put(self, key: Key, rank: int) -> int:
        """Give ``key`` its rank (0: out of the store); the old one."""
        predicate, row = key
        table = self._ranks[predicate]
        old = table.get(row, 0)
        if old == rank:
            return old
        self._before.setdefault(key, old)
        negated = predicate in self._helpers
        if old:
            level = _decided(old)
            if level != float("inf"):
                self._levels[level].discard(key)
                if negated and level % 2:
                    self._entered[level] -= 1
                    if not self._entered[level]:
                        self._emptied.add(level)
        if rank:
            table[row] = rank
            level = _decided(rank)
            if level != float("inf"):
                self._levels.setdefault(level, set()).add(key)
                if level > self._deepest:
                    self._deepest = level
                if negated and level % 2:
                    self._entered[level] = self._entered.get(level, 0) + 1
        else:
            del table[row]
        return old

    def _mark(self, level: int, key: Key) -> None:
        """Settle ``key`` again at ``level`` (in its component's turn)."""
        slot = (level, self._slot[key[0]])
        rows = self._marked.get(slot)
        if rows is None:
            self._marked[slot] = {key}
            heapq.heappush(self._heap, slot)
        else:
            rows.add(key)

    def _changed(
        self, key: Key, old: int, new: int, views=(NEW,), hold: int = -1
    ) -> None:
        """Mark what reads ``key``, whose rank went ``old → new``, found
        by firing at each of ``views`` (a store step's change has
        readers at ``OLD`` it lost and at ``NEW`` it gained): positive
        readers at the first level the ranks differ, readers through a
        helper one level up (they read the level below; an EDB negation
        reads every level alike).  Readers in component ``hold`` are
        already settled at that level: one level up too."""
        first = min(_decided(old), _decided(new))
        predicate, row = key
        fire, moving = self._store.state.fire, self._moving
        lead = (row,)
        shifted = max(first + (predicate in self._ranked), 1)
        for plans, negated in (
            (self._reads.get(predicate, ()), False),
            (self._negated_reads.get(predicate, ()), True),
        ):
            for plan in plans:
                if plan.head not in moving:
                    continue
                if negated:
                    level = shifted
                else:
                    level = max(first, 1) + (self._slot[plan.head] == hold)
                for view in views:
                    for head in fire(plan, lead, view, view, as_set=True):
                        self._mark(level, (plan.head, head))

    def _derive(self, predicate: str, row: Row) -> int:
        """The best rank an instance of ``row`` has now."""
        if self.edb.holds(predicate, *row):
            return TRUE
        fire, view = self._store.state.fire, self._view
        best = 0
        lead = (row,)
        for plan in self._probes[predicate]:
            for _head, rank in fire(plan, lead, view, view):
                if rank > best:
                    best = rank
        return best

    # -- settling -------------------------------------------------------------

    def _begin(self) -> None:
        self._before: Dict[Key, int] = {}
        self._marked: Dict[Tuple[int, int], Set[Key]] = {}
        self._heap: List[Tuple[int, int]] = []
        self._emptied: Set[int] = set()
        self._stepped = 0

    def _first_empty(self, floor: int) -> int:
        """The first odd level from ``floor`` that no negated row enters."""
        entered = self._entered
        # Below the old top only a level this write emptied can be empty.
        self._emptied = {level for level in self._emptied if not entered.get(level)}
        best = min((level for level in self._emptied if level >= floor), default=None)
        level = max(floor, self._top) | 1
        while entered.get(level) and (best is None or level < best):
            level += 2
        return level if best is None else min(best, level)

    def _settle(self, phase: str = "dbsp-chain") -> None:
        """Settle every marked row, lowest level first, up to the new top."""
        heap, marked = self._heap, self._marked
        floor = 1
        while heap:
            level, slot = heap[0]
            if self._first_empty(floor) < level:
                break
            heapq.heappop(heap)
            rows = marked.pop((level, slot))
            fault_point("incremental.component")
            if self.budget is not None:
                self.budget.check(phase=phase)
            if level > floor or not self._stepped:
                self._stepped += 1
            floor = level
            component = self._schedule[slot]
            if component.recursive:
                self._settle_recursive(level, component, rows)
                continue
            for key in rows:
                old = self._ranks[key[0]].get(key[1], 0)
                if not old or _decided(old) < level:
                    continue  # out of the store, or decided below
                new = self._derive(*key)
                if new != old:
                    self._put(key, new)
                    self._changed(key, old, new)
        top = self._first_empty(floor)
        # Past the top nothing is decided: what still ranks there is
        # undefined.
        for level in range(top + 1, self._deepest + 1):
            for key in list(self._levels.get(level, ())):
                self._put(key, UNDEFINED)
        self._deepest = min(self._deepest, top)
        self._top = top
        marked.clear()
        heap.clear()
        self._emptied.clear()

    def _settle_recursive(self, level: int, component: Component, rows: Set[Key]) -> None:
        """Settle a recursive component's marked rows at ``level`` by
        over-delete and re-derive, the others read at their ranks; rows
        it leaves undecided step on to the next level."""
        position = _position(level)
        ranks, fire, view = self._ranks, self._store.state.fire, self._view
        leads = [(variant.predicate, variant.plan) for variant in component.circuit.internal]

        def open_(key: Key) -> bool:
            """In the store and not decided below ``level`` (a decided
            row is final)."""
            rank = ranks[key[0]].get(key[1], 0)
            return bool(rank) and _decided(rank) >= level

        def member(key: Key) -> bool:
            return ranks[key[0]][key[1]] > position

        rows = {key for key in rows if open_(key)}

        def reached(frontier: Set[Key]) -> Set[Key]:
            """Rows an instance through ``frontier`` derives at ``level``."""
            by_predicate: Dict[str, List[Row]] = {}
            for predicate, row in frontier:
                by_predicate.setdefault(predicate, []).append(row)
            found = set()
            for predicate, plan in leads:
                lead = by_predicate.get(predicate)
                if lead:
                    for head, rank in fire(plan, lead, view, view):
                        if rank > position:
                            found.add((plan.head, head))
            return found

        def derivable(key: Key) -> bool:
            return self._derive(*key) > position

        start = {key: ranks[key[0]][key[1]] for key in rows}
        # Over-delete: every member row an instance through a marked
        # member derives.
        gone = {key for key in rows if member(key)}
        frontier = set(gone)
        while frontier:
            frontier = {
                key for key in reached(frontier) if open_(key) and member(key)
            } - gone
            gone |= frontier
        for key in gone:
            start.setdefault(key, ranks[key[0]][key[1]])
            self._put(key, level if level % 2 == 0 else level + 1)
        # Re-derive and insert: a row joins the level when an instance
        # holds there; then what instances through it derive.
        joined = {key for key in start if derivable(key)}
        frontier = joined
        while frontier:
            for key in frontier:
                was = start.get(key)
                if level % 2:
                    self._put(key, TRUE + 1 - level)
                elif was is not None and was > position:
                    self._put(key, was)
                else:
                    self._put(key, level + 2)
            frontier = {
                key for key in reached(frontier) if open_(key) and not member(key)
            }
            for key in frontier:
                start.setdefault(key, ranks[key[0]][key[1]])
        for key, old in start.items():
            new = ranks[key[0]][key[1]]
            if new != old:
                self._changed(key, old, new, hold=self._slot[key[0]])
            if _decided(new) > level:
                self._mark(level + 1, key)

    # -- the model ------------------------------------------------------------

    @property
    def levels(self) -> int:
        """Levels in the chain: ``U₀ … T_n``."""
        return self._top + 1

    def model(self) -> Dict[str, FrozenSet[Row]]:
        """The certainly-true rows, predicate → rows (EDB and IDB)."""
        return {
            predicate: self.rows(predicate)
            for predicate in self._store.state.facts
            if predicate not in self._helper_names
        }

    def undefined_model(self) -> Dict[str, FrozenSet[Row]]:
        """The undefined rows (only predicates that have any)."""
        model = {}
        for predicate in self._moving:
            rows = self.undefined_rows(predicate)
            if rows:
                model[predicate] = rows
        return model

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Certainly-true rows of one predicate."""
        table = self._ranks.get(predicate)
        if table is None:
            return frozenset(self._store.state.facts.get(predicate, ()))
        return frozenset(row for row, rank in table.items() if rank > UNDEFINED)

    def undefined_rows(self, predicate: str) -> FrozenSet[Row]:
        """Undefined rows of one predicate."""
        table = self._ranks.get(predicate)
        if table is None:
            return frozenset()
        return frozenset(row for row, rank in table.items() if rank == UNDEFINED)

    def model_rows(self) -> int:
        """Resident certainly-true rows (the ``model_rows`` stat)."""
        return sum(len(rows) for rows in self.model().values())

    # -- update batches -------------------------------------------------------

    def initialize(self) -> None:
        """Rebuild the store from the database, then rank it."""
        self._store.budget = self.budget
        self._store.initialize()
        self._build()

    def apply_stream(self, batches: Sequence[Batch]) -> Dict[str, object]:
        """Absorb a burst: one store step, then the ranks it moved.

        The returned ``plus`` / ``minus`` and ``undefined_plus`` /
        ``undefined_minus`` are net against the model before the burst,
        so the view publishes by delta, both truth statuses.
        """
        batches = [(list(inserts), list(deletes)) for inserts, deletes in batches]
        store = self._store
        store.budget = self.budget
        summary = store.apply_stream(batches)
        state = store.state
        fired, pulled = state.rules_fired, state.rows_matched
        self._begin()
        moving, ranked = self._moving, self._ranked
        # A client fact of a level-dependent predicate ranks its row at
        # the top whatever its rules say.
        for inserts, deletes in batches:
            for predicate, row in inserts + deletes:
                if predicate in moving and tuple(row) in self._ranks[predicate]:
                    self._mark(1, (predicate, tuple(row)))
        plus, minus = state.plus, state.minus
        for predicate, rows in minus.items():
            for row in rows:
                key = (predicate, row)
                old = self._put(key, 0) if predicate in ranked else TRUE
                self._changed(key, old, 0, (OLD, NEW))
        for predicate, rows in plus.items():
            for row in rows:
                key = (predicate, row)
                rank = UNDEFINED if predicate in moving else TRUE
                if predicate in ranked:
                    self._put(key, rank)
                if predicate in moving:
                    self._mark(1, key)
                self._changed(key, 0, rank, (OLD, NEW))
        self._settle()

        true_plus: Dict[str, Set[Row]] = {}
        true_minus: Dict[str, Set[Row]] = {}
        undefined_plus: Dict[str, Set[Row]] = {}
        undefined_minus: Dict[str, Set[Row]] = {}
        for predicate, rows in plus.items():
            if predicate not in ranked and rows:
                true_plus[predicate] = set(rows)
        for predicate, rows in minus.items():
            if predicate not in ranked and rows:
                true_minus[predicate] = set(rows)
        ranks = self._ranks
        for (predicate, row), old in self._before.items():
            new = ranks[predicate].get(row, 0)
            if old > UNDEFINED:
                if new <= UNDEFINED:
                    true_minus.setdefault(predicate, set()).add(row)
            elif new > UNDEFINED:
                true_plus.setdefault(predicate, set()).add(row)
            if (old == UNDEFINED) != (new == UNDEFINED):
                (undefined_plus if new == UNDEFINED else undefined_minus).setdefault(
                    predicate, set()
                ).add(row)

        def frozen(delta: Dict[str, Set[Row]]) -> Delta:
            return {predicate: frozenset(rows) for predicate, rows in delta.items()}

        plus_out, minus_out = frozen(true_plus), frozen(true_minus)
        delta_plus = sum(len(rows) for rows in plus_out.values())
        delta_minus = sum(len(rows) for rows in minus_out.values())
        self.metrics.bump_many(
            {
                "rules_fired": state.rules_fired - fired,
                "rows_matched": state.rows_matched - pulled,
                "circuit_steps": self._stepped,
                "delta_plus_total": delta_plus,
                "delta_minus_total": delta_minus,
            }
        )
        return {
            "delta_plus": delta_plus,
            "delta_minus": delta_minus,
            "batches": summary["batches"],
            "plus": plus_out,
            "minus": minus_out,
            "undefined_plus": frozen(undefined_plus),
            "undefined_minus": frozen(undefined_minus),
        }
