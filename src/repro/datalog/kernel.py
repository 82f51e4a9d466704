"""The join kernel: rule bodies compiled to lead-first, index-probing plans.

Every engine that fires rules — the from-scratch semi-naive fixpoint,
the grounder, the delta-stream circuit and the annotated engine — runs
the one walk in :meth:`JoinKernel.fire`.  A rule is compiled once per
``(rule, lead)`` into a :class:`Plan`:

* the **lead** is the body literal (positive or negated) whose rows are
  handed in by the caller — a delta, an explicit row set, a trigger —
  or :data:`HEAD` (the head atom: "does the rule derive exactly this
  row?"), or ``None`` (a naive firing).  It runs first and seeds the
  binding, so a firing costs its delta, not the resident relations;
* the remaining items are ordered greedily, most-bound literal first,
  under the safety rules of :func:`~repro.datalog.binding.binding_order`
  (comparisons and negated literals as soon as their variables are
  bound);
* every match step knows at compile time which argument positions are
  bound and probes a hash index keyed by exactly that position tuple; a
  fully bound literal is a membership test;
* bindings live in one slot list per firing (constants pre-filled,
  function terms computed into hidden slots), overwritten in place on
  backtracking — no dict copy per row.

The kernel is also the fact store: it keeps one index per
``(predicate, bound positions)`` pattern some registered plan probes and
nothing else.  Non-lead literals are read through a *view* of the store:
:data:`NEW` (current rows), :data:`OLD` (rewound by the ``plus`` /
``minus`` overlays of the batch in flight) or :data:`BOTH` (rows true
before and after); ``before`` applies to body items left of the lead,
``after`` to the rest, which is all the bilinear rule-delta expansion
and DRed need.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from ..robustness import EvaluationBudget
from .ast import Comparison, Const, FuncTerm, Literal, PredAtom, Rule, Var, term_vars
from .ast import _apply_function
from .binding import (
    UnsafeRuleError,
    _compare,
    _comparison_mode,
    _literal_processable,
)

__all__ = ["BOTH", "HEAD", "NEW", "OLD", "JoinKernel", "Plan", "compile_plan"]

Row = Tuple[Value, ...]
Pattern = Tuple[str, Tuple[int, ...]]

#: Views a non-lead literal can be read through.
NEW, OLD, BOTH = 0, 1, 2
#: The lead that unifies the caller's rows with the rule *head*.
HEAD = -1

_MATCH, _HOLDS, _NEG, _TEST, _ASSIGN = range(5)


def _row_getter(indices):
    """``seq -> tuple(seq[i] for i in indices)`` at C speed where possible."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (only,) = indices
        return lambda seq: (seq[only],)
    return lambda seq: ()


class Plan(NamedTuple):
    """One compiled ``(rule, lead)`` firing; never mutated, shareable."""

    #: The head predicate.
    head: str
    #: Body items left of this index read ``before``; the step carrying
    #: this index takes the caller's rows (:data:`HEAD` when no body
    #: literal leads).
    pivot: int
    steps: Tuple[tuple, ...]
    #: Initial slot values (constants pre-filled); copied per firing.
    template: List[object]
    #: ``slots -> head row``.
    head_row: Callable[[List[object]], Row]
    #: The ``(predicate, bound positions)`` indexes the steps probe.
    patterns: Tuple[Pattern, ...]


class _Compiler:
    def __init__(self, rule: Rule, lead: Optional[int]):
        self.rule = rule
        self.lead = lead
        self.slot_of: Dict[Var, int] = {}
        self.template: List[object] = []
        self.bound: Set[Var] = set()
        self.steps: List[tuple] = []
        self.patterns: Set[Pattern] = set()
        self.pending = [
            (index, item) for index, item in enumerate(rule.body) if index != lead
        ]
        # (function term, slot): row values waiting for the term's
        # variables — only a lead can leave one open past its own step.
        self.checks: List[Tuple[FuncTerm, int]] = []

    def slot(self, value: object = None) -> int:
        self.template.append(value)
        return len(self.template) - 1

    def operand(self, term) -> int:
        """The slot holding a bound term's value; a function term is
        computed into a hidden slot by a step of its own (undefined
        application = the walk fails there), its arguments read straight
        out of their slots."""
        if isinstance(term, Var):
            return self.slot_of[term]
        if isinstance(term, Const):
            return self.slot(term.value)
        values_of = _row_getter([self.operand(arg) for arg in term.args])
        name, target = term.name, self.slot()
        self.steps.append(
            (
                _ASSIGN,
                target,
                lambda slots, registry: _apply_function(name, values_of(slots), registry),
            )
        )
        return target

    def match(self, atom: PredAtom, index: int) -> None:
        positions: List[int] = []
        key_slots: List[int] = []
        binds: List[Tuple[int, int]] = []
        same: List[Tuple[int, int]] = []
        local: Dict[Var, int] = {}
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Var) and arg not in self.bound:
                if arg in local:
                    same.append((position, local[arg]))
                else:
                    local[arg] = position
                    self.slot_of[arg] = self.slot()
                    binds.append((self.slot_of[arg], position))
            elif isinstance(arg, FuncTerm) and not term_vars(arg) <= self.bound:
                binds.append((self.slot(), position))
                self.checks.append((arg, binds[-1][0]))
            else:
                positions.append(position)
                key_slots.append(self.operand(arg))
        self.bound.update(local)
        if index != self.lead and not binds and not same:
            self.steps.append(
                (_HOLDS, index, atom.predicate, _row_getter(key_slots))
            )
            return
        if positions and index != self.lead:
            self.patterns.add((atom.predicate, tuple(positions)))
        self.steps.append(
            (
                _MATCH,
                index,
                atom.predicate,
                len(atom.args),
                tuple(positions),
                itemgetter(*key_slots) if positions else None,
                itemgetter(*positions) if positions else None,
                tuple(binds),
                tuple(same),
            )
        )

    def flush(self) -> None:
        """Emit every comparison, negated literal and open check whose
        variables are bound, until none is left that can go."""
        progress = True
        while progress:
            progress = False
            for entry in list(self.pending):
                index, item = entry
                if isinstance(item, Comparison):
                    mode = _comparison_mode(item, self.bound)
                    if mode is None:
                        continue
                    if mode == "test":
                        left = self.operand(item.left)
                        self.steps.append(
                            (_TEST, item.op, left, self.operand(item.right))
                        )
                    else:
                        variable, expr = item.left, item.right
                        if mode == "assign-right":
                            variable, expr = expr, variable
                        self.slot_of[variable] = self.operand(expr)
                        self.bound.add(variable)
                elif item.positive or not item.vars() <= self.bound:
                    continue
                else:
                    slots = [self.operand(arg) for arg in item.atom.args]
                    self.steps.append(
                        (_NEG, index, item.atom.predicate, _row_getter(slots))
                    )
                self.pending.remove(entry)
                progress = True
            for check in list(self.checks):
                term, slot = check
                if term_vars(term) <= self.bound:
                    self.steps.append((_TEST, "=", self.operand(term), slot))
                    self.checks.remove(check)
                    progress = True

    def rank(self, entry) -> Tuple[bool, int, bool]:
        """Most-bound first; on a tie, a literal that does not recurse on
        the head's own predicate (closures are the dense relations, so
        the re-derivation probe ``tc(x, Y), edge(Y, z)`` enters through
        ``edge``); then body order."""
        atom = entry[1].atom
        count = sum(
            1
            for arg in atom.args
            if isinstance(arg, Const) or term_vars(arg) <= self.bound
        )
        return (
            count == len(atom.args),
            count,
            atom.predicate != self.rule.head.predicate,
        )

    def compile(self) -> Plan:
        rule, lead = self.rule, self.lead
        if lead == HEAD:
            self.match(rule.head, HEAD)
        elif lead is not None:
            self.match(rule.body[lead].atom, lead)
        while True:
            self.flush()
            ready = [
                entry
                for entry in self.pending
                if isinstance(entry[1], Literal)
                and entry[1].positive
                and _literal_processable(entry[1], self.bound)
            ]
            if not ready:
                break
            entry = max(ready, key=self.rank)
            self.pending.remove(entry)
            self.match(entry[1].atom, entry[0])
        if self.pending or self.checks:
            raise UnsafeRuleError(
                f"rule has no evaluable binding order (unsafe): {rule!r}"
            )
        head_free = rule.head.vars() - self.bound
        if head_free:
            raise UnsafeRuleError(
                f"head variables {sorted(v.name for v in head_free)} are not "
                f"restricted by the body: {rule!r}"
            )
        head_row = _row_getter([self.operand(arg) for arg in rule.head.args])
        return Plan(
            rule.head.predicate,
            HEAD if lead is None else lead,
            tuple(self.steps),
            self.template,
            head_row,
            tuple(sorted(self.patterns)),
        )


@lru_cache(maxsize=8192)
def compile_plan(rule: Rule, lead: Optional[int] = None) -> Plan:
    """The plan firing ``rule`` with body item ``lead`` (an index into
    ``rule.body``, :data:`HEAD`, or ``None``) run first.  Memoized: rules
    are immutable, plans hold no evaluation state.  Raises
    :class:`~repro.datalog.binding.UnsafeRuleError` for unsafe rules."""
    return _Compiler(rule, lead).compile()


class JoinKernel:
    """Pattern-indexed fact store + the one rule-firing walk.

    ``plus`` / ``minus`` are the net per-predicate deltas committed so
    far in the batch in flight; :meth:`commit_add` / :meth:`commit_remove`
    keep them net, and the :data:`OLD` / :data:`BOTH` views read through
    them, so no engine ever copies a relation to see its old state.
    """

    def __init__(self, registry: Optional[FunctionRegistry] = None):
        self.registry = registry
        self.facts: Dict[str, Set[Row]] = {}
        # predicate → bound positions → key → rows; one table per
        # pattern a registered plan probes (``_keyed`` lists the same
        # tables with their key getters, for add/remove).
        self.index: Dict[str, Dict[Tuple[int, ...], Dict[object, Set[Row]]]] = {}
        self._keyed: Dict[str, List[tuple]] = {}
        self.plus: Dict[str, Set[Row]] = {}
        self.minus: Dict[str, Set[Row]] = {}
        #: Rows pulled from index buckets and row sets, over all firings.
        self.rows_matched = 0

    # -- the store -------------------------------------------------------------

    def rows(self, predicate: str) -> Set[Row]:
        """Current rows of a predicate."""
        return self.facts.setdefault(predicate, set())

    def register(self, *plans: Plan) -> None:
        """Build (once) the indexes the plans probe."""
        for plan in plans:
            for predicate, positions in plan.patterns:
                tables = self.index.setdefault(predicate, {})
                if positions in tables:
                    continue
                table = tables[positions] = {}
                key_of = itemgetter(*positions)
                self._keyed.setdefault(predicate, []).append(
                    (positions[-1], key_of, table)
                )
                for row in self.facts.get(predicate, ()):
                    if len(row) > positions[-1]:
                        table.setdefault(key_of(row), set()).add(row)

    def plan(self, rule: Rule, lead: Optional[int] = None) -> Plan:
        """:func:`compile_plan` + :meth:`register`."""
        plan = compile_plan(rule, lead)
        self.register(plan)
        return plan

    def add(self, predicate: str, row: Row) -> bool:
        """Add a row; True when new (updates the indexes)."""
        rows = self.rows(predicate)
        if row in rows:
            return False
        rows.add(row)
        for widest, key_of, table in self._keyed.get(predicate, ()):
            if len(row) > widest:
                key = key_of(row)
                bucket = table.get(key)
                if bucket is None:
                    table[key] = {row}
                else:
                    bucket.add(row)
        return True

    def remove(self, predicate: str, row: Row) -> bool:
        """Remove a row; True when it was present (updates the indexes)."""
        rows = self.facts.get(predicate)
        if rows is None or row not in rows:
            return False
        rows.discard(row)
        for widest, key_of, table in self._keyed.get(predicate, ()):
            if len(row) > widest:
                key = key_of(row)
                bucket = table[key]
                bucket.discard(row)
                if not bucket:
                    del table[key]
        return True

    def commit_add(self, predicate: str, row: Row) -> bool:
        """:meth:`add`, recorded in the net ``plus`` / ``minus`` deltas."""
        if not self.add(predicate, row):
            return False
        minus = self.minus.get(predicate)
        if minus is not None and row in minus:
            minus.discard(row)
        else:
            self.plus.setdefault(predicate, set()).add(row)
        return True

    def commit_remove(self, predicate: str, row: Row) -> bool:
        """:meth:`remove`, recorded in the net ``plus`` / ``minus`` deltas."""
        if not self.remove(predicate, row):
            return False
        plus = self.plus.get(predicate)
        if plus is not None and row in plus:
            plus.discard(row)
        else:
            self.minus.setdefault(predicate, set()).add(row)
        return True

    # -- the walk --------------------------------------------------------------

    def fire(
        self,
        plan: Plan,
        lead=None,
        before: int = NEW,
        after: int = NEW,
        budget: Optional[EvaluationBudget] = None,
    ) -> List[Tuple[Row, int]]:
        """All ``(head row, weight)`` instances of one compiled firing.

        ``lead`` feeds the plan's lead step: an iterable of rows (weight
        1 each) or a row → weight mapping such as a Z-set, whose weight
        multiplies into the instance — for a negated lead the caller
        passes the already sign-flipped delta (``Δ(¬q) = −Δq``) or the
        set of atoms whose flip is the trigger.  Body items left of the
        lead read the ``before`` view, the others ``after``.  Each leaf
        of the walk is one rule instance, reported once.
        """
        steps = plan.steps
        last = len(steps)
        pivot = plan.pivot
        head_row = plan.head_row
        slots = plan.template[:]
        facts, index, registry = self.facts, self.index, self.registry
        plus, minus = self.plus, self.minus
        weights = lead if hasattr(lead, "items") else None
        produced: List[Tuple[Row, int]] = []
        pulled = 0

        def walk(at: int, weight: int) -> None:
            nonlocal pulled
            while at < last:
                step = steps[at]
                kind = step[0]
                at += 1
                if kind == _MATCH:
                    break
                if kind == _ASSIGN:
                    value = step[2](slots, registry)
                    if value is None:
                        return
                    slots[step[1]] = value
                elif kind == _TEST:
                    if not _compare(step[1], slots[step[2]], slots[step[3]]):
                        return
                else:
                    _, index_in_body, predicate, row_of = step
                    row = row_of(slots)
                    view = before if index_in_body < pivot else after
                    holds = row in facts.get(predicate, ())
                    if view != NEW:
                        was = row in minus.get(predicate, ()) or (
                            holds and row not in plus.get(predicate, ())
                        )
                        if view == OLD:
                            holds = was
                        else:  # BOTH: true (or, negated, false) before and after
                            holds = (holds and was) if kind == _HOLDS else (holds or was)
                    if holds == (kind == _NEG):
                        return
                    if kind == _HOLDS:
                        pulled += 1
            else:
                if budget is not None:
                    budget.tick()
                produced.append((head_row(slots), weight))
                return
            _, index_in_body, predicate, arity, positions, key_of, key_in, binds, same = step
            key = key_of(slots) if positions else None
            if index_in_body == pivot:
                pulled += len(lead)
                for row in lead:
                    if (
                        len(row) != arity
                        or (positions and key_in(row) != key)
                        or (same and any(row[p] != row[q] for p, q in same))
                    ):
                        continue
                    for slot, position in binds:
                        slots[slot] = row[position]
                    walk(at, weight if weights is None else weight * weights[row])
                return
            if positions:
                rows = index[predicate][positions].get(key, ())
            else:
                rows = facts.get(predicate, ())
            view = before if index_in_body < pivot else after
            if view != NEW:
                added = plus.get(predicate)
                if added:
                    rows = (row for row in rows if row not in added)
                removed = minus.get(predicate) if view == OLD else None
                if removed:
                    rows = chain(
                        rows,
                        (
                            row
                            for row in removed
                            if not positions
                            or (len(row) == arity and key_in(row) == key)
                        ),
                    )
            for row in rows:
                pulled += 1
                if len(row) != arity or (
                    same and any(row[p] != row[q] for p, q in same)
                ):
                    continue
                for slot, position in binds:
                    slots[slot] = row[position]
                walk(at, weight)

        walk(0, 1)
        self.rows_matched += pulled
        return produced
