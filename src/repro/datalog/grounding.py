"""Grounding: from rule programs to propositional ground programs.

All the non-stratified semantics of this reproduction (inflationary,
well-founded, valid, stable) are computed over an interned propositional
*ground program*, in the ground-then-solve style of modern ASP systems.

Soundness of the relevant-atom grounding: in every semantics implemented
here, the true atoms are a subset of the least fixpoint of the *positive
projection* of the program (dropping negative literals only makes rules
easier to fire).  The grounder therefore derives exactly the atoms in that
over-approximation, instantiates rules whose positive bodies lie inside
it, and post-processes negative literals: a negative literal over an atom
outside the over-approximation is certainly true and is dropped.  The
closure and the instantiation are one computation on the join kernel
(:mod:`repro.datalog.kernel`): see :func:`ground`.

Because the paper allows function symbols (``succ``, ``+2``, ...), the
over-approximation may be infinite.  The grounder takes explicit bounds
(``max_rounds``, ``max_atoms``) and reports whether it reached a genuine
fixpoint via :attr:`GroundProgram.complete`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..robustness import BudgetExceeded, EvaluationBudget, fault_point
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from .ast import Literal, PredAtom, Program, Rule
from .binding import (
    GroundingError,
    UnsafeRuleError,
    binding_order,
    compiled_binding_order,
)
from .database import Database
from .facts import format_fact
from .kernel import OLD, JoinKernel

__all__ = [
    "GroundAtom",
    "GroundRule",
    "GroundProgram",
    "GroundingError",
    "UnsafeRuleError",
    "GroundingBudgetExceeded",
    "ground",
    "binding_order",
    "compiled_binding_order",
]


Row = Tuple[Value, ...]
GroundAtom = Tuple[str, Row]


class GroundingBudgetExceeded(GroundingError, BudgetExceeded):
    """The relevant-atom closure exceeded the configured bounds.

    Raised only when ``ground`` is called with ``require_complete=True``;
    otherwise an incomplete :class:`GroundProgram` is returned with
    ``complete=False``.  Also a :class:`~repro.robustness.BudgetExceeded`,
    so callers can treat every resource exhaustion uniformly.
    """

    code = "grounding-budget-exceeded"


@dataclass(frozen=True, slots=True)
class GroundRule:
    """``head :- pos..., not neg...`` over interned atom ids."""

    head: int
    pos: Tuple[int, ...] = ()
    neg: Tuple[int, ...] = ()

    def is_fact(self) -> bool:
        """True when the body is empty."""
        return not self.pos and not self.neg


class _AtomTable:
    """Bidirectional interning of ground atoms, grouped by predicate."""

    def __init__(self) -> None:
        self._ids: Dict[str, Dict[Row, int]] = {}
        self._atoms: List[GroundAtom] = []

    def intern(self, atom: GroundAtom) -> int:
        """Intern an atom, returning its id."""
        predicate, args = atom
        ids = self._ids.get(predicate)
        if ids is None:
            ids = self._ids[predicate] = {}
        found = ids.get(args)
        if found is None:
            found = ids[args] = len(self._atoms)
            self._atoms.append(atom)
        return found

    def of(self, predicate: str) -> Mapping[Row, int]:
        """Args → id of one predicate's atoms."""
        return self._ids.get(predicate, {})

    def lookup(self, atom: GroundAtom) -> Optional[int]:
        """The id of an atom, or None if never interned."""
        return self.of(atom[0]).get(atom[1])

    def decode(self, atom_id: int) -> GroundAtom:
        """The (predicate, args) of an atom id."""
        return self._atoms[atom_id]

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self):
        return iter(self._atoms)


class RuleIndex(Sequence):
    """Ground rules plus the oracle-independent half of the solver's state.

    :func:`~repro.datalog.semantics.fixpoint.least_model_with_oracle`
    counts, per rule, the positive body atoms still missing and walks
    atom → rule watcher lists; neither depends on the negation oracle,
    so a program solved under many oracles (two per alternation round)
    builds them once here and each call only copies the counters.
    """

    def __init__(self, rules: Sequence[GroundRule]):
        self.rules = rules
        self.heads = [rule.head for rule in rules]
        #: Per rule: positive body occurrences (an atom mentioned twice
        #: is watched twice, so the counter stays consistent).
        self.counts = [len(rule.pos) for rule in rules]
        self.watchers: Dict[int, List[int]] = {}
        #: Rules that fire with nothing derived / rules an oracle can block.
        self.bodiless: List[int] = []
        self.negated: List[Tuple[int, Tuple[int, ...]]] = []
        for index, rule in enumerate(rules):
            for atom in rule.pos:
                self.watchers.setdefault(atom, []).append(index)
            if not rule.pos:
                self.bodiless.append(index)
            if rule.neg:
                self.negated.append((index, rule.neg))

    def __getitem__(self, index):
        return self.rules[index]

    def __len__(self) -> int:
        return len(self.rules)


@dataclass
class GroundProgram:
    """The propositional program the semantics engines consume."""

    rules: List[GroundRule]
    complete: bool
    idb_predicates: FrozenSet[str]
    _table: _AtomTable = field(repr=False)

    @cached_property
    def indexed_rules(self) -> RuleIndex:
        """:attr:`rules` with the solver's index, built on first use (the
        rules are not to change once a program has been solved)."""
        return RuleIndex(self.rules)

    @property
    def atom_count(self) -> int:
        """Number of interned atoms."""
        return len(self._table)

    def decode(self, atom_id: int) -> GroundAtom:
        """The (predicate, args) of an atom id."""
        return self._table.decode(atom_id)

    def atom_id(self, predicate: str, args: Tuple[Value, ...]) -> Optional[int]:
        """The id of a ground atom, or None if it is not relevant
        (equivalently: it is false in every semantics)."""
        return self._table.lookup((predicate, tuple(args)))

    def atoms(self):
        """Iterate (atom_id, predicate, args)."""
        for atom_id in range(len(self._table)):
            predicate, args = self._table.decode(atom_id)
            yield atom_id, predicate, args

    def atoms_of(self, predicate: str) -> List[Tuple[int, Row]]:
        """(id, args) pairs of a predicate's atoms."""
        return [(atom_id, args) for args, atom_id in self._table.of(predicate).items()]

    def rows_where(self, truth: Callable[[int], bool], predicate: str) -> FrozenSet[Row]:
        """Rows of ``predicate`` whose atom id satisfies ``truth(atom_id)``."""
        return frozenset(
            args for args, atom_id in self._table.of(predicate).items() if truth(atom_id)
        )

    def pretty(self, limit: Optional[int] = None) -> str:
        """Render the ground rules (optionally truncated)."""
        lines = []
        for ground_rule in self.rules[: limit or len(self.rules)]:
            head = format_fact(*self.decode(ground_rule.head))
            body = [format_fact(*self.decode(a)) for a in ground_rule.pos]
            body += ["not " + format_fact(*self.decode(a)) for a in ground_rule.neg]
            lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
        if limit and len(self.rules) > limit:
            lines.append(f"... ({len(self.rules) - limit} more)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The grounder: a client of the join kernel
# ---------------------------------------------------------------------------


class _Layout(NamedTuple):
    """Where the atoms of a rule instance sit in its plan's leaf row."""

    #: Head arity: the head row is ``instance[:width]``.
    width: int
    #: ``(predicate, start, stop)`` of each positive / negated body atom.
    pos: Tuple[Tuple[str, int, int], ...]
    neg: Tuple[Tuple[str, int, int], ...]


@lru_cache(maxsize=4096)
def _instance_rule(rule: Rule) -> Tuple[Rule, _Layout]:
    """``rule``'s positive projection with the whole instance as its head.

    The head is widened to the head arguments, then every positive body
    atom's, then every negated atom's; the body keeps the positive
    literals and the comparisons.  Compiled by
    :func:`~repro.datalog.kernel.compile_plan` like any other rule, its
    leaf row *is* the rule instance: negated literals are never tested
    (whether ``not q(ā)`` can hold is not known until the closure is
    complete), only read off the slots, and an undefined function term
    in one drops the instance like anywhere else in the rule.
    """
    order = compiled_binding_order(rule)  # the safety verdict, on the rule as written
    args = list(rule.head.args)
    spans: Dict[str, list] = {"match": [], "negtest": []}
    for kind, literal in order:
        if kind in spans:
            stop = len(args) + len(literal.atom.args)
            spans[kind].append((literal.atom.predicate, len(args), stop))
            args.extend(literal.atom.args)
    body = tuple(
        item for item in rule.body if not isinstance(item, Literal) or item.positive
    )
    return (
        Rule(PredAtom(rule.head.predicate, tuple(args)), body),
        _Layout(len(rule.head.args), tuple(spans["match"]), tuple(spans["negtest"])),
    )


def ground(
    program: Program,
    database: Database,
    registry: Optional[FunctionRegistry] = None,
    max_rounds: int = 10_000,
    max_atoms: int = 1_000_000,
    require_complete: bool = True,
    budget: Optional[EvaluationBudget] = None,
) -> GroundProgram:
    """Ground ``program`` against ``database``.

    The result contains the EDB facts as bodiless ground rules, every
    relevant rule instance, and negative literals filtered down to atoms
    that are possibly true (others are certainly false, hence satisfied).

    The relevant-atom closure is one call to the kernel's fixpoint
    driver, :meth:`~repro.datalog.kernel.JoinKernel.close`: round 0
    fires every rule over the database, and in each later round every
    positive literal over a predicate that grew leads one firing with
    last round's new atoms, the literals left of it reading the atoms
    *before* that round (``OLD``) and the ones right of it all of them
    (``NEW``) — so each rule instance is produced exactly once, in the
    round after its last body atom appeared.

    ``budget`` governs the closure with deadline/step/fact bounds on top
    of ``max_rounds``/``max_atoms`` (one step per possible atom and per
    rule instance) — a divergent ``succ``-style program or a wide join
    stops with a structured error instead of exhausting the round cap.
    """
    kernel = JoinKernel(registry)
    table = _AtomTable()
    idb = program.idb_predicates()
    naive, leads = [], []
    layouts: Dict[int, _Layout] = {}  # id(plan) → its rule's layout

    def plan_of(projection: Rule, layout: _Layout, lead=None):
        # A copy per rule: two rules can share a projection (``p.`` and
        # ``p :- not p.``), hence a cached plan, but not a layout.
        plan = kernel.plan(projection, lead)._replace()
        layouts[id(plan)] = layout
        return plan

    for rule in program.rules:
        projection, layout = _instance_rule(rule)
        naive.append((plan_of(projection, layout), None))
        leads.extend(
            (item.atom.predicate, plan_of(projection, layout, index))
            for index, item in enumerate(projection.body)
            if isinstance(item, Literal) and item.atom.predicate in idb
        )

    def charge(predicate: str, rows) -> None:
        """New possible atoms (already stored): interned, charged."""
        for row in rows:
            if budget is not None:
                budget.tick()
                budget.charge_facts()
            table.intern((predicate, row))

    ground_rules: List[GroundRule] = []
    for predicate in database.predicates():
        rows = database.rows(predicate)
        kernel.add_all(predicate, rows)
        charge(predicate, rows)
        ground_rules.extend(map(GroundRule, table.of(predicate).values()))

    fired: List[Tuple[_Layout, str, list]] = []

    def admit(plan, instances):
        """Record a firing's instances; the possible atoms it found."""
        if not instances:
            return ()
        layout = layouts[id(plan)]
        fired.append((layout, plan.head, instances))
        heads = {instance[: layout.width] for instance in instances}
        return heads - kernel.rows(plan.head)

    def begin() -> None:
        fault_point("grounder.round")
        if budget is not None:
            budget.note_iteration(phase="grounding")

    def step(index: int, delta):
        for predicate, rows in delta.items():
            charge(predicate, rows)
        if len(table) > max_atoms or delta and index + 1 >= max_rounds:
            return False
        if delta:
            begin()

    # A round's atoms are held to its end, when they become visible —
    # and the next round's delta: no instance fired that round read them.
    begin()
    complete = kernel.close(naive, leads, admit, step, before=OLD, held=idb, budget=budget)
    if require_complete and not complete:
        raise GroundingBudgetExceeded(
            f"grounding did not converge within max_rounds={max_rounds}, "
            f"max_atoms={max_atoms}; pass require_complete=False to accept "
            f"a bounded approximation"
        )

    # Two rules (or a rule and a fact) can share an instance; within a
    # rule every instance is distinct.
    seen = {(ground_rule.head, (), ()) for ground_rule in ground_rules}
    for layout, head, instances in fired:
        width = layout.width
        head_ids = table.of(head)
        pos = [(table.of(predicate), start, stop) for predicate, start, stop in layout.pos]
        neg = [(table.of(predicate), start, stop) for predicate, start, stop in layout.neg]
        for instance in instances:
            # A negated atom outside the closure is certainly false: the
            # literal certainly holds and is dropped.
            kept = [ids.get(instance[start:stop]) for ids, start, stop in neg]
            key = (
                head_ids[instance[:width]],
                tuple([ids[instance[start:stop]] for ids, start, stop in pos]),
                tuple(sorted(atom for atom in kept if atom is not None)) if kept else (),
            )
            if key not in seen:
                seen.add(key)
                ground_rules.append(GroundRule(*key))

    return GroundProgram(
        rules=ground_rules,
        complete=complete,
        idb_predicates=idb,
        _table=table,
    )
