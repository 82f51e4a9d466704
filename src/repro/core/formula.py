"""First-order formulas over membership predicates — the calculus layer.

Both translation directions of the paper route through a calculus:
Section 6 represents "a single derivation of the rules of P_i" as a
calculus query and cites "every calculus query can be expressed by the
algebra [5]"; Section 5's algebra→deduction direction needs each set
equation rendered as rules, which we obtain by building the membership
*formula* of the expression, normalising (NNF with double-negation
elimination — this is what makes the translation respect the
membership-inversion semantics of subtraction), and emitting safe rules.

Formula terms are the deductive engine's terms (:mod:`repro.datalog.ast`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..datalog.ast import (
    Comparison,
    Const,
    FuncTerm,
    Literal,
    PredAtom,
    Rule,
    Term,
    Var,
    substitute_term,
    term_vars,
)

__all__ = [
    "Formula",
    "MemAtom",
    "Cmp",
    "FAnd",
    "FOr",
    "FNot",
    "FExists",
    "TRUE_FORMULA",
    "FALSE_FORMULA",
    "free_vars",
    "substitute_formula",
    "to_nnf",
    "FreshNames",
    "formula_to_rules",
    "DnfBlowup",
    "COMPLEMENT_OP",
]


class Formula:
    """Base class for formulas."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class MemAtom(Formula):
    """``term ∈ set_name`` — membership in a named set/predicate."""

    set_name: str
    term: Term

    def __repr__(self) -> str:
        return f"{self.term!r} ∈ {self.set_name}"


@dataclass(frozen=True, slots=True)
class Cmp(Formula):
    """A built-in comparison between terms."""

    op: str
    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


@dataclass(frozen=True, slots=True)
class FAnd(Formula):
    """Conjunction (empty = true)."""
    items: Tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self) -> str:
        if not self.items:
            return "⊤"
        return "(" + " ∧ ".join(repr(item) for item in self.items) + ")"


@dataclass(frozen=True, slots=True)
class FOr(Formula):
    """Disjunction (empty = false)."""
    items: Tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self) -> str:
        if not self.items:
            return "⊥"
        return "(" + " ∨ ".join(repr(item) for item in self.items) + ")"


@dataclass(frozen=True, slots=True)
class FNot(Formula):
    """Negation."""
    child: Formula

    def __repr__(self) -> str:
        return f"¬{self.child!r}"


@dataclass(frozen=True, slots=True)
class FExists(Formula):
    """Existential quantification."""
    vars: Tuple[Var, ...]
    child: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(self.vars))

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.vars)
        return f"∃{names}. {self.child!r}"


TRUE_FORMULA = FAnd(())
FALSE_FORMULA = FOr(())

COMPLEMENT_OP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def free_vars(formula: Formula) -> FrozenSet[Var]:
    """Free variables of a formula."""
    if isinstance(formula, MemAtom):
        return term_vars(formula.term)
    if isinstance(formula, Cmp):
        return term_vars(formula.left) | term_vars(formula.right)
    if isinstance(formula, (FAnd, FOr)):
        result: FrozenSet[Var] = frozenset()
        for item in formula.items:
            result |= free_vars(item)
        return result
    if isinstance(formula, FNot):
        return free_vars(formula.child)
    if isinstance(formula, FExists):
        return free_vars(formula.child) - frozenset(formula.vars)
    raise TypeError(f"not a formula: {formula!r}")


def substitute_formula(formula: Formula, subst: Dict[Var, Term]) -> Formula:
    """Apply a variable substitution to a formula."""
    if isinstance(formula, MemAtom):
        return MemAtom(formula.set_name, substitute_term(formula.term, subst))
    if isinstance(formula, Cmp):
        return Cmp(
            formula.op,
            substitute_term(formula.left, subst),
            substitute_term(formula.right, subst),
        )
    if isinstance(formula, FAnd):
        return FAnd(tuple(substitute_formula(item, subst) for item in formula.items))
    if isinstance(formula, FOr):
        return FOr(tuple(substitute_formula(item, subst) for item in formula.items))
    if isinstance(formula, FNot):
        return FNot(substitute_formula(formula.child, subst))
    if isinstance(formula, FExists):
        inner = {v: t for v, t in subst.items() if v not in formula.vars}
        return FExists(formula.vars, substitute_formula(formula.child, inner))
    raise TypeError(f"not a formula: {formula!r}")


def to_nnf(formula: Formula, negate: bool = False) -> Formula:
    """Negation normal form with double-negation elimination.

    Negation ends up only on :class:`MemAtom` and (as a complemented
    operator) on :class:`Cmp`; negated existentials remain as
    ``FNot(FExists(...))`` blocks with a positively-normalised body —
    rule emission turns those into auxiliary predicates.
    """
    if isinstance(formula, MemAtom):
        return FNot(formula) if negate else formula
    if isinstance(formula, Cmp):
        if negate:
            return Cmp(COMPLEMENT_OP[formula.op], formula.left, formula.right)
        return formula
    if isinstance(formula, FAnd):
        items = tuple(to_nnf(item, negate) for item in formula.items)
        return FOr(items) if negate else FAnd(items)
    if isinstance(formula, FOr):
        items = tuple(to_nnf(item, negate) for item in formula.items)
        return FAnd(items) if negate else FOr(items)
    if isinstance(formula, FNot):
        return to_nnf(formula.child, not negate)
    if isinstance(formula, FExists):
        inner = to_nnf(formula.child, False)
        if negate:
            return FNot(FExists(formula.vars, inner))
        return FExists(formula.vars, inner)
    raise TypeError(f"not a formula: {formula!r}")


class FreshNames:
    """A generator of fresh variable and predicate names."""

    def __init__(self, prefix: str = "aux"):
        self._prefix = prefix
        self._var_counter = itertools.count()
        self._pred_counter = itertools.count()

    def var(self, hint: str = "V") -> Var:
        """A fresh variable (optionally hinted)."""
        return Var(f"{hint}_{next(self._var_counter)}")

    def pred(self, hint: Optional[str] = None) -> str:
        """A fresh predicate name (optionally hinted)."""
        base = hint or self._prefix
        return f"{base}_{next(self._pred_counter)}"


class DnfBlowup(RuntimeError):
    """DNF expansion exceeded the configured disjunct bound."""


def _strip_existentials(formula: Formula, fresh: FreshNames) -> Formula:
    """Remove *positive* existentials by renaming bound variables fresh —
    rule bodies are implicitly existentially quantified."""
    if isinstance(formula, FExists):
        renaming = {v: fresh.var(v.name) for v in formula.vars}
        return _strip_existentials(
            substitute_formula(formula.child, renaming), fresh
        )
    if isinstance(formula, FAnd):
        return FAnd(tuple(_strip_existentials(item, fresh) for item in formula.items))
    if isinstance(formula, FOr):
        return FOr(tuple(_strip_existentials(item, fresh) for item in formula.items))
    # FNot blocks keep their existentials (they become aux predicates).
    return formula


def _dnf(formula: Formula, limit: int) -> List[List[Formula]]:
    """Expand an NNF, existential-stripped formula into a list of
    conjunctions of literals (MemAtom / FNot(MemAtom) / Cmp /
    FNot(FExists))."""
    if isinstance(formula, FAnd):
        disjuncts: List[List[Formula]] = [[]]
        for item in formula.items:
            item_disjuncts = _dnf(item, limit)
            disjuncts = [
                left + right for left in disjuncts for right in item_disjuncts
            ]
            if len(disjuncts) > limit:
                raise DnfBlowup(f"more than {limit} disjuncts during DNF expansion")
        return disjuncts
    if isinstance(formula, FOr):
        result: List[List[Formula]] = []
        for item in formula.items:
            result.extend(_dnf(item, limit))
            if len(result) > limit:
                raise DnfBlowup(f"more than {limit} disjuncts during DNF expansion")
        return result
    return [[formula]]


def _reader_guards(
    conjunction: Sequence[Formula],
    args: FrozenSet[Var],
    predicate_of: Dict[str, str],
    two_valued: FrozenSet[str],
) -> Tuple[Literal, ...]:
    """The positive literals of ``conjunction`` over ``two_valued``
    predicates whose variables are all among ``args``."""
    guards = []
    for literal in conjunction:
        if isinstance(literal, MemAtom):
            predicate = predicate_of.get(literal.set_name, literal.set_name)
            if predicate in two_valued and term_vars(literal.term) <= args:
                guards.append(Literal(PredAtom(predicate, (literal.term,)), True))
    return tuple(guards)


def formula_to_rules(
    head: PredAtom,
    formula: Formula,
    predicate_of: Dict[str, str],
    fresh: FreshNames,
    dnf_limit: int = 1_024,
    two_valued: FrozenSet[str] = frozenset(),
) -> List[Rule]:
    """Emit rules defining ``head(x̄) ≡ formula``.

    ``predicate_of`` maps set names appearing in :class:`MemAtom` to
    predicate names (identity for database relations).  Negated
    existential blocks become auxiliary predicates over their free
    variables, defined recursively.

    ``two_valued`` names predicates none of whose atoms can be undefined.
    An auxiliary has exactly one reader, ``g ∧ ¬aux``; every rule
    defining it ends with the reader's positive literals over those
    predicates whose variables are among its arguments.  With ``g``
    two-valued, ``g ∧ ¬(ψ ∧ g) = g ∧ ¬ψ`` in Kleene logic, so the answers
    do not change (see
    :func:`~repro.core.algebra_to_datalog.translate_program`).
    """
    rules: List[Rule] = []
    normalised = _strip_existentials(to_nnf(formula), fresh)
    for conjunction in _dnf(normalised, dnf_limit):
        body: List = []
        ok = True
        for literal in conjunction:
            if isinstance(literal, MemAtom):
                predicate = predicate_of.get(literal.set_name, literal.set_name)
                body.append(Literal(PredAtom(predicate, (literal.term,)), True))
            elif isinstance(literal, Cmp):
                body.append(Comparison(literal.op, literal.left, literal.right))
            elif isinstance(literal, FNot) and isinstance(literal.child, MemAtom):
                atom = literal.child
                predicate = predicate_of.get(atom.set_name, atom.set_name)
                body.append(Literal(PredAtom(predicate, (atom.term,)), False))
            elif isinstance(literal, FNot) and isinstance(literal.child, FExists):
                inner = literal.child
                inner_free = sorted(free_vars(inner), key=lambda v: v.name)
                aux_name = fresh.pred("aux")
                aux_head = PredAtom(aux_name, tuple(inner_free))
                guards = _reader_guards(
                    conjunction, frozenset(inner_free), predicate_of, two_valued
                )
                for rule in formula_to_rules(
                    aux_head, inner, predicate_of, fresh, dnf_limit, two_valued
                ):
                    if rule.head.predicate == aux_name:
                        rule = Rule(rule.head, rule.body + guards)
                    rules.append(rule)
                body.append(Literal(aux_head, False))
            elif isinstance(literal, FNot) and isinstance(literal.child, FAnd) and not literal.child.items:
                ok = False  # ¬⊤: disjunct is unsatisfiable
                break
            elif isinstance(literal, FAnd) and not literal.items:
                continue  # ⊤ contributes nothing
            elif isinstance(literal, FOr) and not literal.items:
                ok = False  # ⊥
                break
            else:
                raise TypeError(f"unexpected literal after normalisation: {literal!r}")
        if ok:
            rules.append(Rule(head, tuple(body)))
    return rules
