"""The join kernel: rule bodies compiled to lead-first, index-probing plans.

Every engine that fires rules — the from-scratch semi-naive fixpoint,
the grounder, the delta-stream circuit and the annotated engine — goes
through :meth:`JoinKernel.fire`.  A rule is compiled once per
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
* bindings live in numbered slots (constants fixed at compile time,
  function terms computed into hidden slots).

A plan is then compiled once more, to Python: on its first firing under
a pair of views, :func:`_generate` writes one function with a nested
``for`` per match step, the slots as local variables, tests, negated
literals and function terms inline (each function symbol resolved once
per firing, by :func:`~repro.datalog.ast.resolve_function`, and applied
by one call per row), and a leaf that hands each head row to the
caller.  :meth:`JoinKernel.fire` collects the rows in a list —
one per rule instance, for the grounder (whose head row is the whole
rule instance) and the annotated engines — or, ``as_set``, in a set:
every set-semantics closure takes that one (the semi-naive strata, the
algebra's candidate universe and the circuit's components), since a
least model learns nothing from how often a row is derived, and
:meth:`JoinKernel.add_all` then stores the set in one difference and
one union.

The function is cached on the plan, so it lives as long as
:func:`compile_plan`'s cache entry.  Client text (predicate names,
constants, function names) never enters the generated source; it
reaches the code as closure cells.

The kernel is also the fact store: it keeps one index per
``(predicate, bound positions)`` pattern some registered plan probes and
nothing else.  Non-lead literals are read through a *view* of the store:
:data:`NEW` (current rows) or :data:`OLD` (rewound by the ``plus`` /
``minus`` overlays of the batch in flight); ``before`` applies to body
items left of the lead, ``after`` to the rest (the grounder's rounds
read ``OLD`` before and ``NEW`` after; the circuit reads one view
throughout).  The alternating chain fires under a third, *ranked*
view, which also hands back each instance's rank (below).

:meth:`JoinKernel.close` is the loop around the firing: the one
semi-naive fixpoint driver every client that closes rows under rules
calls.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from operator import itemgetter
from typing import Callable, Collection, Dict, Iterable, List, NamedTuple, Optional
from typing import TYPE_CHECKING, Sequence, Set, Tuple

from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from .ast import Comparison, Const, FuncTerm, Literal, PredAtom, Rule, Var, term_vars
from .ast import resolve_function
from .binding import (
    UnsafeRuleError,
    _compare,
    _comparison_mode,
    _literal_processable,
)

if TYPE_CHECKING:
    from ..robustness import EvaluationBudget

__all__ = [
    "HEAD",
    "NEW",
    "OLD",
    "TRUE",
    "UNDEFINED",
    "JoinKernel",
    "Plan",
    "compile_plan",
]

Row = Tuple[Value, ...]
Pattern = Tuple[str, Tuple[int, ...]]

#: Views a non-lead literal can be read through.
NEW, OLD = 0, 1
#: A third kind of view, the alternating chain's: a ``frozenset`` of
#: *ranked* predicates.  Every row of one carries a rank, kept by the
#: chain in ``index[predicate][None]`` (row → rank): the row belongs to
#: the chain's even levels ``k < rank`` and odd levels ``k > TRUE −
#: rank`` (:mod:`repro.service.dbsp.alternating`).  A firing under it
#: reads every literal at the current rows and hands ``append`` each
#: head row with the *instance's* rank — the least rank of its positive
#: ranked rows and of ``φ(rank)`` for its negated ones, ``φ`` being the
#: shift by one level that reading the level below costs.  A ranked
#: lead must be positive or the head.
UNDEFINED = 1 << 40
TRUE = 2 * UNDEFINED - 1
#: The lead that unifies the caller's rows with the rule *head*.
HEAD = -1

_MATCH, _HOLDS, _NEG, _TEST, _ASSIGN = range(5)


class Plan(NamedTuple):
    """One compiled ``(rule, lead)`` firing; shareable.  Only its cache
    of generated functions ever changes."""

    #: The head predicate.
    head: str
    #: Body items left of this index read ``before``; the step carrying
    #: this index takes the caller's rows (:data:`HEAD` when no body
    #: literal leads).
    pivot: int
    steps: Tuple[tuple, ...]
    #: Per slot: the constant it holds, or None for a slot a step fills.
    constants: List[object]
    #: The slots the head row is read from.
    head_slots: Tuple[int, ...]
    #: The ``(predicate, bound positions)`` indexes the steps probe.
    patterns: Tuple[Pattern, ...]
    #: ``(before, after)`` → the generated firing function.
    functions: Dict[Tuple[int, int], Callable]


class _Compiler:
    def __init__(self, rule: Rule, lead: Optional[int]):
        self.rule = rule
        self.lead = lead
        self.slot_of: Dict[Var, int] = {}
        self.constants: List[object] = []
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
        self.constants.append(value)
        return len(self.constants) - 1

    def operand(self, term) -> int:
        """The slot holding a bound term's value; a function term is
        computed into a hidden slot by a step of its own (undefined
        application = the branch fails there), its arguments read
        straight out of their slots."""
        if isinstance(term, Var):
            return self.slot_of[term]
        if isinstance(term, Const):
            return self.slot(term.value)
        args = tuple(self.operand(arg) for arg in term.args)
        target = self.slot()
        self.steps.append((_ASSIGN, target, term.name, args))
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
            self.steps.append((_HOLDS, index, atom.predicate, tuple(key_slots)))
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
                tuple(key_slots),
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
                    slots = tuple(self.operand(arg) for arg in item.atom.args)
                    self.steps.append((_NEG, index, item.atom.predicate, slots))
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
        head_slots = tuple(self.operand(arg) for arg in rule.head.args)
        return Plan(
            rule.head.predicate,
            HEAD if lead is None else lead,
            tuple(self.steps),
            self.constants,
            head_slots,
            tuple(sorted(self.patterns)),
            {},
        )


@lru_cache(maxsize=8192)
def compile_plan(rule: Rule, lead: Optional[int] = None) -> Plan:
    """The plan firing ``rule`` with body item ``lead`` (an index into
    ``rule.body``, :data:`HEAD`, or ``None``) run first.  Memoized: rules
    are immutable, plans hold no evaluation state.  Raises
    :class:`~repro.datalog.binding.UnsafeRuleError` for unsafe rules."""
    return _Compiler(rule, lead).compile()


# -- plans as Python ------------------------------------------------------------

#: Match loops per generated function.  CPython refuses more than 20
#: statically nested blocks, so a longer plan continues in a function of
#: its own, called from the innermost loop with the live slots.
_LOOPS_PER_FUNCTION = 16
#: The generated functions' globals: their frames report this module.
_GLOBALS: Dict[str, object] = {"__name__": __name__}
_CONTEXT = "facts, index, plus, minus, registry, budget, append"


def _rewound(rows, added, removed, arity: int, key_of, key) -> list:
    """The ``OLD`` view of a probe: its rows without the batch's ``plus``
    rows, then the batch's ``minus`` rows that carry the probe's key."""
    if added:
        rows = [row for row in rows if row not in added]
    if removed:
        rows = [
            *rows,
            *(
                row
                for row in removed
                if key_of is None or (len(row) == arity and key_of(row) == key)
            ),
        ]
    return rows


class _Writer:
    """The Python source of one ``(plan, before, after)`` firing.

    Every identifier in it is minted here and every literal is an
    integer; client values are bound to closure cells (:attr:`cells`).
    """

    def __init__(self, plan: Plan, before: int, after: int):
        self.plan, self.before, self.after = plan, before, after
        steps = plan.steps
        self.cells: Dict[str, object] = {
            "resolve": resolve_function,
            "compare": _compare,
            "rewound": _rewound,
        }
        self.minted: Dict[tuple, str] = {}
        # Slots a step fills are locals; the rest are constants (cells).
        self.filled = {step[1] for step in steps if step[0] == _ASSIGN} | {
            slot for step in steps if step[0] == _MATCH for slot, _ in step[6]
        }
        self.live: Set[str] = set()  # locals filled so far
        self.functions: List[str] = []
        self.matches = 0
        #: Under a ranked view: its predicates, and the local holding the
        #: instance's rank so far (None: no ranked row read yet).
        self.ranked = after if isinstance(after, frozenset) else None
        self.rank: Optional[str] = None
        self.start("c0", f"{_CONTEXT}, lead")
        # Every function symbol is bound once per firing, here; a
        # continuation takes the binding as a parameter.
        self.functions_of: Dict[Tuple[str, int], str] = {}
        for step in steps:
            if step[0] != _ASSIGN:
                continue
            name, arity = step[2], len(step[3])
            if (name, arity) not in self.functions_of:
                cell = self.mint("h", (name, arity), name)
                local = self.functions_of[name, arity] = "u" + cell[1:]
                self.hoists[local] = f"resolve({cell}, registry, {arity})"
                self.live.add(local)

    # -- names ------------------------------------------------------------------

    def mint(self, prefix: str, key, value) -> str:
        """A closure cell holding ``value``, one per ``(prefix, key)``."""
        name = self.minted.get((prefix, key))
        if name is None:
            name = self.minted[(prefix, key)] = f"{prefix}{len(self.minted)}"
            self.cells[name] = value
        return name

    def slot(self, slot: int) -> str:
        name = f"s{slot}"
        if slot not in self.filled:
            self.cells[name] = self.plan.constants[slot]
        return name

    def row(self, slots) -> str:
        names = [self.slot(slot) for slot in slots]
        return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"

    def table(self, kind: str, predicate: str) -> str:
        """``facts`` / ``plus`` / ``minus`` rows of a predicate, hoisted."""
        cell = self.mint("p", predicate, predicate)
        name = {"facts": "f", "plus": "a", "minus": "m"}[kind] + cell[1:]
        self.hoists[name] = f"{kind}.get({cell}, ())"
        return name

    def overlays(self, predicate: str) -> Tuple[str, str]:
        """The batch's ``plus`` and ``minus`` rows of a predicate, hoisted."""
        return self.table("plus", predicate), self.table("minus", predicate)

    def view(self, index: int) -> int:
        view = self.before if index < self.plan.pivot else self.after
        return NEW if isinstance(view, frozenset) else view

    # -- functions --------------------------------------------------------------

    def start(self, name: str, params: str) -> None:
        self.name, self.params = name, params
        self.hoists: Dict[str, str] = {}
        self.lines: List[Tuple[int, str]] = []
        self.loops = 0

    def finish(self) -> None:
        body = [f"    def {self.name}({self.params}):"]
        body += [f"        {name} = {expr}" for name, expr in self.hoists.items()]
        body.append("        n = 0")
        body += ["        " + "    " * depth + text for depth, text in self.lines]
        body.append("        return n")
        self.functions.append("\n".join(body))

    def line(self, text: str) -> None:
        self.lines.append((self.loops, text))

    @property
    def fail(self) -> str:
        return "continue" if self.loops else "return n"

    def split(self) -> None:
        """Continue the plan in a new function, called from here."""
        params = ", ".join([_CONTEXT, *sorted(self.live)])
        name = f"c{len(self.functions) + 1}"
        self.line(f"n += {name}({params})")
        self.finish()
        self.start(name, params)

    # -- steps ------------------------------------------------------------------

    def source(self) -> str:
        for step in self.plan.steps:
            kind = step[0]
            if kind == _MATCH:
                self.match(*step[1:])
            elif kind == _ASSIGN:
                _, target, name, args = step
                function = self.functions_of[name, len(args)]
                self.line(f"s{target} = {function}({self.row(args)})")
                self.line(f"if s{target} is None: {self.fail}")
                self.live.add(f"s{target}")
            elif kind == _TEST:
                _, op, left, right = step
                left, right = self.slot(left), self.slot(right)
                if op == "=":
                    failed = f"{left} != {right}"
                elif op == "!=":
                    failed = f"{left} == {right}"
                else:
                    failed = f"not compare({self.mint('o', op, op)}, {left}, {right})"
                self.line(f"if {failed}: {self.fail}")
            else:
                self.membership(*step)
        self.line("if budget is not None: budget.tick()")
        head = self.row(self.plan.head_slots)
        if self.ranked is not None:
            head = f"({head}, {self.rank or self.mint('v', TRUE, TRUE)})"
        self.line(f"append({head})")
        self.finish()
        cells = ", ".join(self.cells)
        return "\n".join([f"def make({cells}):", *self.functions, "    return c0", ""])

    def ranks(self, predicate: str) -> str:
        """A ranked predicate's row → rank table, hoisted."""
        cell = self.mint("p", predicate, predicate)
        name = "k" + cell[1:]
        self.hoists[name] = f"index[{cell}][None]"
        return name

    def narrow(self, value: str) -> None:
        """Lower the instance's rank to ``value``, a fresh local."""
        name = f"w{len(self.live)}"
        self.line(f"{name} = {value}")
        if self.rank is not None:
            self.line(f"if {name} > {self.rank}: {name} = {self.rank}")
        self.rank = name
        self.live.add(name)

    def membership(self, kind: int, index: int, predicate: str, slots) -> None:
        """A fully bound literal: positive it must hold, negated not."""
        if self.ranked is not None and predicate in self.ranked:
            table, row = self.ranks(predicate), self.row(slots)
            if kind == _HOLDS:
                self.line(f"t = {table}.get({row})")
                self.line(f"if t is None: {self.fail}")
                self.line("n += 1")
            else:
                # φ: absent → true from the first odd level; false at
                # u → true from u + 1; true from t → false at t + 1.
                self.line(f"t = {table}.get({row}, 0)")
                undefined = self.mint("v", UNDEFINED, UNDEFINED)
                low, high = self.mint("v", TRUE, TRUE), self.mint("v", TRUE + 2, TRUE + 2)
                self.line(
                    f"t = {low} - t if t < {undefined} else "
                    f"{high} - t if t > {undefined} else t"
                )
            self.narrow("t")
            return
        row, facts = self.row(slots), self.table("facts", predicate)
        if self.view(index) == NEW:
            held = f"{row} in {facts}"
            missing = f"{row} not in {facts}"
        else:
            self.line(f"t = {row}")
            added, removed = self.overlays(predicate)
            held = f"t in {removed} or t in {facts} and t not in {added}"
            missing = f"not ({held})"
        self.line(f"if {missing if kind == _HOLDS else held}: {self.fail}")
        if kind == _HOLDS:
            self.line("n += 1")

    def match(self, index, predicate, arity, positions, key_slots, binds, same) -> None:
        if self.loops == _LOOPS_PER_FUNCTION:
            self.split()
        self.matches += 1
        row = f"r{self.matches}"
        failed = [f"len({row}) != {arity}"]
        if index == self.plan.pivot:
            self.line("n += len(lead)")
            rows = "lead"
            failed += [
                f"{row}[{position}] != {self.slot(slot)}"
                for position, slot in zip(positions, key_slots)
            ]
        else:
            rows = f"b{self.matches}"
            if positions:
                cell = self.mint("q", (predicate, positions), positions)
                table = "x" + cell[1:]
                name = self.mint("p", predicate, predicate)
                self.hoists[table] = f"index[{name}][{cell}]"
                # ``itemgetter`` keys: the bare value for one position.
                key = self.row(key_slots)
                if len(key_slots) == 1:
                    key = self.slot(key_slots[0])
                self.line(f"{rows} = {table}.get({key}, ())")
            else:
                key = "None"
                self.line(f"{rows} = {self.table('facts', predicate)}")
            if self.view(index) == OLD:
                added, removed = self.overlays(predicate)
                key_of = (
                    self.mint("g", (predicate, positions), itemgetter(*positions))
                    if positions
                    else "None"
                )
                self.line(
                    f"if {added} or {removed}: {rows} = "
                    f"rewound({rows}, {added}, {removed}, {arity}, {key_of}, {key})"
                )
            self.line(f"n += len({rows})")
        failed += [f"{row}[{p}] != {row}[{q}]" for p, q in same]
        self.line(f"for {row} in {rows}:")
        self.loops += 1
        self.line(f"if {' or '.join(failed)}: continue")
        if binds:
            targets = ["_"] * arity
            for slot, position in binds:
                targets[position] = f"s{slot}"
                self.live.add(f"s{slot}")
            self.line(f"{', '.join(targets)}{',' * (arity == 1)} = {row}")
        if self.ranked is not None and index != HEAD and predicate in self.ranked:
            self.narrow(f"{self.ranks(predicate)}[{row}]")


def _generate(plan: Plan, before: int, after: int) -> Callable:
    """One firing of ``plan`` under the two views, as a Python function
    ``(facts, index, plus, minus, registry, budget, append, lead) -> rows
    matched`` that hands ``append`` each head row; its source is kept as
    ``.source``."""
    writer = _Writer(plan, before, after)
    source = writer.source()
    namespace: Dict[str, Callable] = {}
    exec(compile(source, "<join plan>", "exec"), _GLOBALS, namespace)
    function = namespace["make"](*writer.cells.values())
    function.source = source
    return function


class JoinKernel:
    """Pattern-indexed fact store + the rule firing.

    ``plus`` / ``minus`` are the net per-predicate deltas committed so
    far in the batch in flight; :meth:`commit_add` / :meth:`commit_add_all`
    / :meth:`commit_remove` keep them net, and the :data:`OLD` view reads through them, so no
    engine ever copies a relation to see its old state.
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
        #: A :meth:`close` round's new rows of its held predicates.
        self.held: Dict[str, Set[Row]] = {}
        #: Firings, and the rows they pulled from buckets and row sets.
        self.rules_fired = 0
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

    def add_all(self, predicate: str, rows: Iterable[Row]) -> Set[Row]:
        """Add rows; the new ones (only they touch the indexes)."""
        fresh = set(rows)
        if not fresh:  # as no ``add`` call, creates no entry in ``facts``
            return fresh
        store = self.rows(predicate)
        fresh -= store
        store |= fresh
        for widest, key_of, table in self._keyed.get(predicate, ()):
            for row in fresh:
                if len(row) > widest:
                    key = key_of(row)
                    bucket = table.get(key)
                    if bucket is None:
                        table[key] = {row}
                    else:
                        bucket.add(row)
        return fresh

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

    def commit_add_all(self, predicate: str, rows: Iterable[Row]) -> Set[Row]:
        """:meth:`add_all`, recorded in the net ``plus`` / ``minus`` deltas."""
        fresh = self.add_all(predicate, rows)
        if fresh:
            added = fresh
            minus = self.minus.get(predicate)
            if minus:
                added = fresh - minus
                minus -= fresh
            if added:
                self.plus.setdefault(predicate, set()).update(added)
        return fresh

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

    # -- firing ----------------------------------------------------------------

    def fire(
        self,
        plan: Plan,
        lead=None,
        before: int = NEW,
        after: int = NEW,
        budget: Optional[EvaluationBudget] = None,
        as_set: bool = False,
    ):
        """The head row of every instance of one compiled firing, one per
        instance in a list — or, ``as_set``, the set of them.

        ``lead`` feeds the plan's lead step an iterable of rows — for a
        negated lead, the atoms whose flip is the trigger.  Body items
        left of the lead read the ``before`` view, the others ``after``.
        Each rule instance costs one ``budget.tick()``.
        """
        if plan.pivot <= 0:  # no body item sits left of the lead
            before = NEW
        key = (before, after)
        function = plan.functions.get(key)
        if function is None:
            # Unlocked: two threads racing here generate the same code.
            function = plan.functions[key] = _generate(plan, *key)
        produced = set() if as_set else []
        pulled = function(
            self.facts,
            self.index,
            self.plus,
            self.minus,
            self.registry,
            budget,
            produced.add if as_set else produced.append,
            lead,
        )
        self.rules_fired += 1
        self.rows_matched += pulled
        return produced

    # -- the fixpoint driver ------------------------------------------------------

    def close(
        self,
        start: Iterable[Tuple[Plan, object]],
        leads: Sequence[Tuple[str, Plan]],
        admit: Callable[[Plan, list], Collection[Row]],
        step: Callable[[int, Dict[str, Set[Row]]], Optional[bool]],
        delta: Optional[Dict[str, Set[Row]]] = None,
        before: int = NEW,
        after: int = NEW,
        held: Collection[str] = (),
        inner: Collection[str] = (),
        budget: Optional[EvaluationBudget] = None,
        size: Optional[int] = None,
        as_set: bool = False,
    ) -> bool:
        """The one semi-naive round loop.

        Round 0 fires ``start``'s ``(plan, rows)`` (``rows`` None: naive),
        each later round every ``(predicate, plan)`` lead with its
        predicate's rows in the round's delta (``size`` at a time).  A
        firing reads ``before`` / ``after``; ``admit(plan, produced)``
        returns its new head rows, ``produced`` being what :meth:`fire`
        returned under ``as_set``.  Rows of a ``held`` predicate wait in
        :attr:`held` for the round's end, then join the store as
        :attr:`plus` (``OLD``: the store the round began with); rows of
        an ``inner`` one lead this round's later firings; the rest
        (stored by ``admit``) lead the next round, as ``delta`` does.
        After each round ``step(round, next delta)`` may raise, or return
        False to stop.  True at the fixpoint, False when stopped.
        """
        ahead = {} if delta is None else delta
        current: Dict[str, list] = {}
        firings = start
        for index in count():
            self.held = pending = {}
            for plan, rows in firings:
                fresh = admit(plan, self.fire(plan, rows, before, after, budget, as_set))
                if not fresh:
                    continue
                head = plan.head
                if head in held:
                    pending.setdefault(head, set()).update(fresh)
                elif head in inner:
                    current.setdefault(head, []).extend(fresh)
                else:
                    ahead.setdefault(head, set()).update(fresh)
            if held:
                for predicate, rows in pending.items():
                    self.add_all(predicate, rows)
                self.plus = pending
                ahead.update(pending)
            if step(index, ahead) is False:
                return False
            if not ahead:
                return True
            current, ahead = ahead, {}
            firings = _lead_firings(leads, current, size)


def _lead_firings(leads, delta, size):
    """A round's firings, reading ``delta`` as they go (for inner rows)."""
    for predicate, plan in leads:
        rows = delta.get(predicate)
        if rows and size is None:
            yield plan, rows
        elif rows:
            rows = iter(rows)
            for batch in iter(lambda: list(islice(rows, size)), []):
                yield plan, batch
