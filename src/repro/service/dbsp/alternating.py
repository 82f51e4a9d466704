"""The alternating fixpoint as a chain of delta circuits.

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

A least model whose negation reads only a fixed relation is a
semipositive — hence stratified — program, which is exactly what
:class:`~repro.service.dbsp.engine.DBSPEngine` maintains.  So the
program is rewritten once (:func:`read_previous`: ``not q(t̄)`` becomes
``not q@prev(t̄)`` over a helper EDB predicate; ``@`` cannot be parsed,
so the name can neither collide nor be typed by a client) and
:class:`AlternatingEngine` keeps one ordinary engine per iterate:
level 0 holds ``q@prev = ∅``, level *i* holds ``q@prev`` = level
*i − 1*'s rows of ``q``.  A write hands every level the client's EDB
delta together with the previous level's net ``plus`` / ``minus`` as
its ``@prev`` delta — one ``apply_stream`` per level — so a write costs
levels × delta, and nothing is ever grounded.

Because ``T_{n−2} ⊆ T_n`` always holds between passes, convergence is
a comparison of row *counts* over the negated predicates; the chain is
trimmed to the first converged level and extended by from-scratch
levels when a write deepens the alternation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ...datalog.ast import Literal, PredAtom, Program, Rule
from ...datalog.database import Database
from ...relations.universe import FunctionRegistry
from ...relations.values import Value
from ...robustness import EvaluationBudget
from ..metrics import ViewMetrics
from ..registry import PreparedProgram, prepare_program
from .engine import DBSPEngine

__all__ = ["AlternatingEngine", "read_previous"]

Row = Tuple[Value, ...]
Delta = Dict[str, FrozenSet[Row]]
Batch = Tuple[Iterable[Tuple[str, Row]], Iterable[Tuple[str, Row]]]

_NONE: FrozenSet[Row] = frozenset()

#: What every level reports into the view's counters: the work it did.
_WORK = frozenset(
    {
        "rules_fired",
        "rows_matched",
        "circuit_steps",
        "overdeleted_total",
        "rederived_total",
    }
)
#: Level 0 receives exactly the client's batches, so it also accounts
#: them; the other levels' batch counters (each sees an extra ``@prev``
#: batch) would only multiply the view's by the chain length.
_BATCHES = _WORK | {
    "update_batches",
    "incremental_batches",
    "delta_batches_coalesced",
    "inserts_applied",
    "deletes_applied",
}


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


class _LevelMetrics:
    """A level's window onto the view's metrics: phases all, counters
    only those in ``counters``."""

    def __init__(self, view_metrics: ViewMetrics, counters: FrozenSet[str]):
        self._view_metrics = view_metrics
        self._counters = counters
        self.phase = view_metrics.phase

    def bump(self, counter: str, amount: int = 1) -> None:
        if counter in self._counters:
            self._view_metrics.bump(counter, amount)


class AlternatingEngine:
    """A three-valued model maintained as ``levels`` of delta circuits.

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
        self._level_program = prepare_program(prepared.name, program)
        edb = (database or Database()).copy()
        for predicate, row in prepared.seed_facts:
            edb.add(predicate, *row)
        self.levels: List[DBSPEngine] = [self._level(edb, _BATCHES)]
        # Level 0 never holds an ``@prev`` row, so its database *is* the
        # view's: what the view rolls back, checkpoints and fingerprints.
        self.edb = self.levels[0].edb
        self._settle()

    # -- the chain ------------------------------------------------------------

    def _level(self, database: Database, counters: FrozenSet[str]) -> DBSPEngine:
        return DBSPEngine(
            self._level_program,
            database=database,
            registry=self.registry,
            metrics=_LevelMetrics(self.metrics, counters),
            max_rounds=self.max_rounds,
            budget=self.budget,
        )

    def _next_level(self) -> DBSPEngine:
        """``Γ`` of the last level, evaluated from scratch."""
        database = self.edb.copy()
        facts = self.levels[-1].state.facts
        for predicate, helper in self._helpers.items():
            for row in facts.get(predicate, ()):
                database.add(helper, *row)
        return self._level(database, _WORK)

    def _negated_rows(self, level: DBSPEngine) -> int:
        facts = level.state.facts
        return sum(len(facts.get(predicate, ())) for predicate in self._helpers)

    def _settle(self) -> None:
        """Cut or grow the chain to the first ``T_n = T_{n−2}``.

        ``T_{n−2} ⊆ T_n`` on a chain whose every level is ``Γ`` of the
        one below, so the sets are equal when their sizes are.
        """
        levels = self.levels
        below, top = 0, 1  # |T_{−1}| = 0
        while True:
            while len(levels) <= top:
                levels.append(self._next_level())
            size = self._negated_rows(levels[top])
            if size == below:
                break
            below, top = size, top + 2
        del levels[top + 1 :]

    def initialize(self) -> None:
        """Rebuild every level from the database (level 0's)."""
        base = self.levels[0]
        del self.levels[1:]
        base.budget = self.budget
        base.initialize()
        self._settle()

    # -- the model ------------------------------------------------------------

    def _visible(self, table) -> Iterable[Tuple[str, Set[Row]]]:
        """``table``'s items without the helper predicates."""
        helpers = self._helper_names
        return (
            (predicate, rows)
            for predicate, rows in table.items()
            if predicate not in helpers
        )

    def model(self) -> Dict[str, FrozenSet[Row]]:
        """The certainly-true rows, predicate → rows (EDB and IDB)."""
        return {
            predicate: frozenset(rows)
            for predicate, rows in self._visible(self.levels[-1].state.facts)
        }

    def undefined_model(self) -> Dict[str, FrozenSet[Row]]:
        """The undefined rows: derivable at the last over-estimate, not
        certainly true (only predicates that have any)."""
        true = self.levels[-1].state.facts
        return {
            predicate: frozenset(rows - true.get(predicate, _NONE))
            for predicate, rows in self._visible(self.levels[-2].state.facts)
            if len(rows) > len(true.get(predicate, ()))
        }

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Certainly-true rows of one predicate."""
        return frozenset(self.levels[-1].state.facts.get(predicate, ()))

    def undefined_rows(self, predicate: str) -> FrozenSet[Row]:
        """Undefined rows of one predicate."""
        over = self.levels[-2].state.facts.get(predicate, _NONE)
        return frozenset(over - self.levels[-1].state.facts.get(predicate, _NONE))

    def model_rows(self) -> int:
        """Resident certainly-true rows (the ``model_rows`` stat)."""
        return sum(
            len(rows) for _p, rows in self._visible(self.levels[-1].state.facts)
        )

    # -- update batches -------------------------------------------------------

    def apply_stream(self, batches: Sequence[Batch]) -> Dict[str, object]:
        """Absorb a burst in one pass per level.

        The returned ``plus`` / ``minus`` and ``undefined_plus`` /
        ``undefined_minus`` are net against the model before the burst
        — also when the burst changed the chain's length — so the view
        publishes by delta, both truth statuses.
        """
        batches = [(list(inserts), list(deletes)) for inserts, deletes in batches]
        over_delta, true_delta = self._pass(batches)
        count = len(self.levels)
        self._settle()
        if len(self.levels) > count:
            # A cut leaves levels equal to the old top pair, whose own
            # deltas therefore already are the answer; growth follows
            # each old top level's delta with the step to the level
            # that took its place.
            levels = self.levels
            over_delta = self._followed(over_delta, levels[count - 2], levels[-2])
            true_delta = self._followed(true_delta, levels[count - 1], levels[-1])
        undefined_plus, undefined_minus = self._undefined_delta(
            over_delta, true_delta
        )

        def visible(delta) -> Delta:
            return {
                predicate: frozenset(rows)
                for predicate, rows in self._visible(delta)
                if rows
            }

        plus, minus = visible(true_delta[0]), visible(true_delta[1])
        delta_plus = sum(len(rows) for rows in plus.values())
        delta_minus = sum(len(rows) for rows in minus.values())
        self.metrics.bump("delta_plus_total", delta_plus)
        self.metrics.bump("delta_minus_total", delta_minus)
        return {
            "delta_plus": delta_plus,
            "delta_minus": delta_minus,
            "batches": len(batches),
            "plus": plus,
            "minus": minus,
            "undefined_plus": visible(undefined_plus),
            "undefined_minus": visible(undefined_minus),
        }

    def _pass(self, batches: List[Batch]):
        """Step every level; the ``(plus, minus)`` of the last two."""
        helpers = self._helpers
        deltas = []
        feed: Optional[Batch] = None
        for level in self.levels:
            level.budget = self.budget
            summary = level.apply_stream(
                batches if feed is None else batches + [feed]
            )
            plus, minus = summary["plus"], summary["minus"]
            # The next level's ``@prev`` delta: this level's net change
            # on the negated predicates.
            feed = (
                [
                    (helper, row)
                    for predicate, helper in helpers.items()
                    for row in plus.get(predicate, ())
                ],
                [
                    (helper, row)
                    for predicate, helper in helpers.items()
                    for row in minus.get(predicate, ())
                ],
            )
            deltas = deltas[-1:] + [(plus, minus)]
        return deltas

    @staticmethod
    def _followed(delta, was: DBSPEngine, now: DBSPEngine):
        """``delta`` (net, onto ``was``) followed by ``was → now``."""
        plus, minus = delta
        gone, come = {}, {}
        before, after = was.state.facts, now.state.facts
        for predicate in before.keys() | after.keys():
            old = before.get(predicate, _NONE)
            new = after.get(predicate, _NONE)
            first_plus = plus.get(predicate, _NONE)
            first_minus = minus.get(predicate, _NONE)
            gained, lost = new - old, old - new
            come[predicate] = (first_plus - lost) | (gained - first_minus)
            gone[predicate] = (first_minus - gained) | (lost - first_plus)
        return come, gone

    def _undefined_delta(self, over_delta, true_delta):
        """The net change of ``over − true`` (the top pair, as it now
        stands), from the net changes of the two."""
        over_plus, over_minus = over_delta
        true_plus, true_minus = true_delta
        over_facts = self.levels[-2].state.facts
        true_facts = self.levels[-1].state.facts
        plus: Dict[str, Set[Row]] = {}
        minus: Dict[str, Set[Row]] = {}
        changed = (
            over_plus.keys() | over_minus.keys() | true_plus.keys() | true_minus.keys()
        )
        for predicate in changed - self._helper_names:
            over = over_facts.get(predicate, _NONE)
            true = true_facts.get(predicate, _NONE)
            o_plus = over_plus.get(predicate, _NONE)
            o_minus = over_minus.get(predicate, _NONE)
            t_plus = true_plus.get(predicate, _NONE)
            t_minus = true_minus.get(predicate, _NONE)
            for row in o_plus | o_minus | t_plus | t_minus:
                # Undefined = derivable and not certain, now and before.
                now_undefined = row in over and row not in true
                was_undefined = (
                    row in o_minus or (row in over and row not in o_plus)
                ) and not (row in t_minus or (row in true and row not in t_plus))
                if now_undefined and not was_undefined:
                    plus.setdefault(predicate, set()).add(row)
                elif was_undefined and not now_undefined:
                    minus.setdefault(predicate, set()).add(row)
        return plus, minus
