"""Abstract syntax for deductive programs (Section 4).

A deductive program is a set of Horn clauses ``Q_1, ..., Q_n → R(x̄)``
where each ``Q_j`` is an atomic formula ``R_j(x̄_j)`` or
``exp_1 = exp_2``, or the negation of one.  Terms may contain function
symbols from a :class:`~repro.relations.universe.FunctionRegistry`
(the paper allows "functions on the domains, such as addition").

The classes here are plain immutable data; evaluation lives in
``repro.datalog.grounding`` and ``repro.datalog.semantics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..relations.universe import FunctionRegistry
from ..relations.values import FSet, Tup, Value, format_value, is_value

__all__ = [
    "Var",
    "Const",
    "FuncTerm",
    "Term",
    "PredAtom",
    "Literal",
    "Comparison",
    "BodyItem",
    "Rule",
    "Program",
    "term_vars",
    "substitute_term",
    "eval_term",
    "pos",
    "neg",
    "eq",
    "neq",
    "rule",
    "fact",
    "COMPARISON_OPS",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    """A logic variable.  Conventionally upper-case (``X``, ``Y``)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    """A constant term wrapping a complex-object value."""

    value: Value

    def __post_init__(self) -> None:
        if not is_value(self.value):
            raise TypeError(f"not a value: {self.value!r}")

    def __repr__(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True, slots=True)
class FuncTerm:
    """A function application term, e.g. ``succ(X)`` or ``tuple(X, Y)``.

    The special names ``tuple`` and ``set`` are interpreted structurally
    (building :class:`~repro.relations.values.Tup` / ``FSet``); every other
    name must resolve in the evaluation registry.
    """

    name: str
    args: Tuple["Term", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __repr__(self) -> str:
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.name}({inner})"


Term = Union[Var, Const, FuncTerm]


def term_vars(term: Term) -> FrozenSet[Var]:
    """The set of variables occurring in a term."""
    if isinstance(term, Var):
        return frozenset((term,))
    if isinstance(term, Const):
        return frozenset()
    result: FrozenSet[Var] = frozenset()
    for arg in term.args:
        result |= term_vars(arg)
    return result


def substitute_term(term: Term, subst: Mapping[Var, Term]) -> Term:
    """Apply a substitution (Var → Term) to a term."""
    if isinstance(term, Var):
        return subst.get(term, term)
    if isinstance(term, Const):
        return term
    return FuncTerm(term.name, tuple(substitute_term(arg, subst) for arg in term.args))


def eval_term(
    term: Term,
    binding: Mapping[Var, Value],
    registry: Optional[FunctionRegistry] = None,
) -> Optional[Value]:
    """Evaluate a term to a value under a variable binding.

    Returns ``None`` when a partial domain function is undefined on the
    arguments.  Raises ``KeyError`` on unbound variables or unknown
    function names — those are programming errors, not partiality.
    """
    if isinstance(term, Var):
        if term not in binding:
            raise KeyError(f"unbound variable {term.name} during evaluation")
        return binding[term]
    if isinstance(term, Const):
        return term.value
    values = []
    for arg in term.args:
        value = eval_term(arg, binding, registry)
        if value is None:
            return None
        values.append(value)
    return _apply_function(term.name, values, registry)


def _apply_function(
    name: str, values: Sequence[Value], registry: Optional[FunctionRegistry]
) -> Optional[Value]:
    """``name(values)``: the built-in constructors, else the registry's."""
    if name == "tuple":
        return Tup(tuple(values))
    if name == "set":
        return FSet(frozenset(values))
    if registry is None:
        raise KeyError(f"no function registry supplied for {name!r}")
    return registry.get(name).apply(values)


# ---------------------------------------------------------------------------
# Atoms and body items
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PredAtom:
    """A predicate atom ``R(t_1, ..., t_n)``."""

    predicate: str
    args: Tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if not self.predicate:
            raise ValueError("predicate name must be non-empty")
        object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    def vars(self) -> FrozenSet[Var]:
        """Variables occurring in this node."""
        result: FrozenSet[Var] = frozenset()
        for arg in self.args:
            result |= term_vars(arg)
        return result

    def substitute(self, subst: Mapping[Var, Term]) -> "PredAtom":
        """Apply a variable substitution."""
        return PredAtom(
            self.predicate, tuple(substitute_term(arg, subst) for arg in self.args)
        )

    def is_ground(self) -> bool:
        """True when no variables occur."""
        return not self.vars()

    def __repr__(self) -> str:
        if not self.args:
            return self.predicate
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.predicate}({inner})"


@dataclass(frozen=True, slots=True)
class Literal:
    """A possibly-negated predicate atom in a rule body."""

    atom: PredAtom
    positive: bool = True

    def vars(self) -> FrozenSet[Var]:
        """Variables occurring in this node."""
        return self.atom.vars()

    def substitute(self, subst: Mapping[Var, Term]) -> "Literal":
        """Apply a variable substitution."""
        return Literal(self.atom.substitute(subst), self.positive)

    def negated(self) -> "Literal":
        """The same literal with polarity flipped."""
        return Literal(self.atom, not self.positive)

    def __repr__(self) -> str:
        return repr(self.atom) if self.positive else f"not {self.atom!r}"


COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class Comparison:
    """A built-in (dis)equality or order comparison between terms.

    ``=`` doubles as assignment during grounding: when exactly one side is
    an unbound variable and the other side is fully bound, it *binds* the
    variable (range-formula case 4 of Definition 4.1).
    """

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def vars(self) -> FrozenSet[Var]:
        """Variables occurring in this node."""
        return term_vars(self.left) | term_vars(self.right)

    def substitute(self, subst: Mapping[Var, Term]) -> "Comparison":
        """Apply a variable substitution."""
        return Comparison(
            self.op, substitute_term(self.left, subst), substitute_term(self.right, subst)
        )

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


BodyItem = Union[Literal, Comparison]


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rule:
    """A Horn clause ``head :- body``.  A fact is a rule with empty body."""

    head: PredAtom
    body: Tuple[BodyItem, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        for item in self.body:
            if not isinstance(item, (Literal, Comparison)):
                raise TypeError(f"bad body item: {item!r}")

    def is_fact(self) -> bool:
        """True when the body is empty."""
        return not self.body

    def vars(self) -> FrozenSet[Var]:
        """Variables occurring in this node."""
        result = self.head.vars()
        for item in self.body:
            result |= item.vars()
        return result

    def positive_literals(self) -> Tuple[Literal, ...]:
        """The positive predicate literals of the body."""
        return tuple(
            item for item in self.body if isinstance(item, Literal) and item.positive
        )

    def negative_literals(self) -> Tuple[Literal, ...]:
        """The negated predicate literals of the body."""
        return tuple(
            item for item in self.body if isinstance(item, Literal) and not item.positive
        )

    def comparisons(self) -> Tuple[Comparison, ...]:
        """The built-in comparisons of the body."""
        return tuple(item for item in self.body if isinstance(item, Comparison))

    def substitute(self, subst: Mapping[Var, Term]) -> "Rule":
        """Apply a variable substitution."""
        return Rule(
            self.head.substitute(subst),
            tuple(item.substitute(subst) for item in self.body),
        )

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head!r}."
        inner = ", ".join(repr(item) for item in self.body)
        return f"{self.head!r} :- {inner}."


@dataclass(frozen=True)
class Program:
    """A deductive program: an ordered collection of rules.

    ``name`` is cosmetic.  Predicates with at least one rule head are the
    *IDB*; everything else mentioned is *EDB* (supplied by a database).
    """

    rules: Tuple[Rule, ...]
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def of(cls, *rules: Rule, name: Optional[str] = None) -> "Program":
        """Build a program from rules."""
        return cls(tuple(rules), name=name)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def predicates(self) -> FrozenSet[str]:
        """All predicate names mentioned."""
        names = set()
        for rule_ in self.rules:
            names.add(rule_.head.predicate)
            for literal in rule_.positive_literals() + rule_.negative_literals():
                names.add(literal.atom.predicate)
        return frozenset(names)

    def idb_predicates(self) -> FrozenSet[str]:
        """Predicates with at least one rule head."""
        return frozenset(rule_.head.predicate for rule_ in self.rules)

    def edb_predicates(self) -> FrozenSet[str]:
        """Predicates only mentioned in bodies (database-supplied)."""
        return self.predicates() - self.idb_predicates()

    def rules_for(self, predicate: str) -> Tuple[Rule, ...]:
        """The rules whose head is the given predicate."""
        return tuple(r for r in self.rules if r.head.predicate == predicate)

    def arities(self) -> Dict[str, int]:
        """Predicate → arity.  Raises on inconsistent use."""
        result: Dict[str, int] = {}

        def _note(atom: PredAtom) -> None:
            seen = result.setdefault(atom.predicate, atom.arity)
            if seen != atom.arity:
                raise ValueError(
                    f"predicate {atom.predicate} used with arities {seen} and {atom.arity}"
                )

        for rule_ in self.rules:
            _note(rule_.head)
            for literal in rule_.positive_literals() + rule_.negative_literals():
                _note(literal.atom)
        return result

    def extend(self, extra: Iterable[Rule], name: Optional[str] = None) -> "Program":
        """A copy with extra rules appended."""
        return Program(self.rules + tuple(extra), name=name or self.name)

    def __repr__(self) -> str:
        label = self.name or "program"
        return f"<Program {label}: {len(self.rules)} rules>"

    def pretty(self) -> str:
        """Render the rules, one per line."""
        return "\n".join(repr(rule_) for rule_ in self.rules)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _as_term(candidate) -> Term:
    if isinstance(candidate, (Var, Const, FuncTerm)):
        return candidate
    if is_value(candidate):
        return Const(candidate)
    raise TypeError(f"cannot coerce {candidate!r} to a term")


def _as_atom(predicate: str, args: Sequence) -> PredAtom:
    return PredAtom(predicate, tuple(_as_term(arg) for arg in args))


def pos(predicate: str, *args) -> Literal:
    """Positive body literal: ``pos('move', Var('X'), Var('Y'))``."""
    return Literal(_as_atom(predicate, args), True)


def neg(predicate: str, *args) -> Literal:
    """Negative body literal: ``neg('win', Var('Y'))``."""
    return Literal(_as_atom(predicate, args), False)


def eq(left, right) -> Comparison:
    """Equality / assignment body item."""
    return Comparison("=", _as_term(left), _as_term(right))


def neq(left, right) -> Comparison:
    """Disequality body item."""
    return Comparison("!=", _as_term(left), _as_term(right))


def rule(predicate: str, args: Sequence, body: Sequence[BodyItem] = ()) -> Rule:
    """Build a rule: ``rule('win', [X], [pos('move', X, Y), neg('win', Y)])``."""
    return Rule(_as_atom(predicate, args), tuple(body))


def fact(predicate: str, *args) -> Rule:
    """Build a ground fact: ``fact('move', Atom('a'), Atom('b'))``."""
    atom = _as_atom(predicate, args)
    if atom.vars():
        raise ValueError(f"fact must be ground: {atom!r}")
    return Rule(atom, ())
