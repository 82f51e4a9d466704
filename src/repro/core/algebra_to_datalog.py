"""From algebra to deduction (Section 5).

Two entry points, matching the paper's two results:

* :func:`translate_expression` — Proposition 5.1: an (IFP-)algebra
  expression becomes a deductive program; every subexpression (in
  particular every ``IFP``) gets a predicate, subtraction becomes
  negation, ``IFP`` becomes recursion.  The program computes the
  expression's value under the **inflationary** semantics.

* :func:`translate_program` — Proposition 5.4: an ``algebra=`` program
  becomes a deductive program with one predicate per defined set constant
  ("both interpret subtraction and negation using valid semantics, thus
  have the same result") — evaluate the output under the **valid** (or
  well-founded) semantics.

The expression→rules step goes through the calculus layer
(:mod:`repro.core.formula`): the membership formula of each equation body
is normalised to NNF *before* rules are emitted.  The normalisation is
what makes Proposition 5.4 hold computationally — an even number of
nested subtractions must cancel, as it does in the membership-inversion
equations defining ``−``, rather than turn into a spurious negative
dependency cycle between auxiliary predicates.

Predicates use the unary set-member encoding of
:mod:`repro.core.encoding`; database relations keep their own names.
Component projections in MAP functions compile to the partial domain
functions ``comp1 ... comp9`` (see
:func:`repro.relations.universe.translation_registry`, re-exported here:
the serving tier needs the registry without the algebra library).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..datalog.ast import Const, FuncTerm, PredAtom, Program, Rule, Term, Var
from ..relations.universe import MAX_COMPONENT, translation_registry
from ..relations.values import Value, sorted_values
from .expressions import (
    Call,
    Diff,
    Expr,
    Ifp,
    Map,
    Product,
    RelVar,
    Select,
    SetConst,
    Union,
    called_names,
    walk,
)
from .funcs import (
    AndTest,
    Apply,
    Arg,
    Comp,
    CompareTest,
    Lit,
    MkTup,
    NotTest,
    OrTest,
    ScalarExpr,
    Test,
    TrueTest,
)
from .formula import (
    Cmp,
    FAnd,
    FExists,
    FNot,
    FOr,
    Formula,
    FreshNames,
    MemAtom,
    TRUE_FORMULA,
    formula_to_rules,
)
from .programs import AlgebraProgram
from .valid_eval import IfpThroughRecursion

__all__ = [
    "MAX_COMPONENT",
    "translation_registry",
    "scalar_to_term",
    "compile_test",
    "expr_to_formula",
    "TranslationResult",
    "translate_expression",
    "translate_program",
]

# ---------------------------------------------------------------------------
# Scalar expressions and tests → terms and formulas
# ---------------------------------------------------------------------------


def scalar_to_term(expr: ScalarExpr, member: Term) -> Term:
    """Compile a restructuring function applied to ``member`` into a term."""
    if isinstance(expr, Arg):
        return member
    if isinstance(expr, Lit):
        return Const(expr.value)
    if isinstance(expr, Comp):
        if expr.index > MAX_COMPONENT:
            raise ValueError(
                f"component {expr.index} exceeds the translation bound "
                f"{MAX_COMPONENT}"
            )
        return FuncTerm(f"comp{expr.index}", (scalar_to_term(expr.child, member),))
    if isinstance(expr, MkTup):
        return FuncTerm(
            "tuple", tuple(scalar_to_term(item, member) for item in expr.items)
        )
    if isinstance(expr, Apply):
        return FuncTerm(
            expr.name, tuple(scalar_to_term(arg, member) for arg in expr.args)
        )
    raise TypeError(f"not a scalar expression: {expr!r}")


def compile_test(test: Test, member: Term) -> Formula:
    """Compile a selection test on ``member`` into a formula."""
    if isinstance(test, TrueTest):
        return TRUE_FORMULA
    if isinstance(test, CompareTest):
        return Cmp(test.op, scalar_to_term(test.left, member), scalar_to_term(test.right, member))
    if isinstance(test, NotTest):
        return FNot(compile_test(test.child, member))
    if isinstance(test, AndTest):
        return FAnd((compile_test(test.left, member), compile_test(test.right, member)))
    if isinstance(test, OrTest):
        return FOr((compile_test(test.left, member), compile_test(test.right, member)))
    raise TypeError(f"not a test: {test!r}")


# ---------------------------------------------------------------------------
# Expressions → membership formulas (+ rules for IFP subexpressions)
# ---------------------------------------------------------------------------


class _Translator:
    def __init__(self, fresh: FreshNames, name_of: Dict[str, str]):
        self.fresh = fresh
        self.name_of = name_of  # set/parameter name -> predicate name
        self.extra_rules: List[Rule] = []

    def formula(self, expr: Expr, member: Term) -> Formula:
        """The membership formula of ``expr`` for member term ``member``."""
        if isinstance(expr, RelVar):
            return MemAtom(self.name_of.get(expr.name, expr.name), member)
        if isinstance(expr, Call):
            if expr.args:
                raise ValueError(
                    "translate a normalised constant system "
                    "(AlgebraProgram.to_constant_system) — parameterised call "
                    f"{expr.name!r} remained"
                )
            return MemAtom(self.name_of.get(expr.name, expr.name), member)
        if isinstance(expr, SetConst):
            return FOr(tuple(Cmp("=", member, Const(v)) for v in sorted_values(expr.values)))
        if isinstance(expr, Union):
            return FOr((self.formula(expr.left, member), self.formula(expr.right, member)))
        if isinstance(expr, Diff):
            return FAnd(
                (self.formula(expr.left, member), FNot(self.formula(expr.right, member)))
            )
        if isinstance(expr, Product):
            left_var = self.fresh.var("U")
            right_var = self.fresh.var("V")
            return FExists(
                (left_var, right_var),
                FAnd(
                    (
                        self.formula(expr.left, left_var),
                        self.formula(expr.right, right_var),
                        Cmp("=", member, FuncTerm("tuple", (left_var, right_var))),
                    )
                ),
            )
        if isinstance(expr, Select):
            return FAnd(
                (self.formula(expr.child, member), compile_test(expr.test, member))
            )
        if isinstance(expr, Map):
            source = self.fresh.var("U")
            return FExists(
                (source,),
                FAnd(
                    (
                        self.formula(expr.child, source),
                        Cmp("=", member, scalar_to_term(expr.func, source)),
                    )
                ),
            )
        if isinstance(expr, Ifp):
            # "first translating exp and then introducing recursion in the
            # deduction" (Section 5): the IFP's predicate appears in its own
            # body wherever the parameter did.
            predicate = self.fresh.pred("ifp")
            inner = dict(self.name_of)
            inner[expr.param] = predicate
            nested = _Translator(self.fresh, inner)
            body_var = self.fresh.var("W")
            body_formula = nested.formula(expr.body, body_var)
            self.extra_rules.extend(nested.extra_rules)
            self.extra_rules.extend(
                formula_to_rules(
                    PredAtom(predicate, (body_var,)),
                    body_formula,
                    {},
                    self.fresh,
                )
            )
            return MemAtom(predicate, member)
        raise TypeError(f"not an expression: {expr!r}")


@dataclass
class TranslationResult:
    """A deductive program equivalent to the source algebra query/program."""

    program: Program
    predicate_of: Dict[str, str]
    result_predicate: Optional[str] = None

    def predicates(self) -> FrozenSet[str]:
        """All predicate names assigned to defined sets."""
        return frozenset(self.predicate_of.values())


def translate_expression(
    expr: Expr,
    database_relations: FrozenSet[str] = frozenset(),
    result_name: str = "q0",
    fresh: Optional[FreshNames] = None,
) -> TranslationResult:
    """Proposition 5.1: compile an (IFP-)algebra expression to rules.

    The returned program defines ``result_name`` (a unary predicate whose
    members encode the result set).  For expressions containing a
    non-positive ``IFP``, evaluate under the *inflationary* semantics
    (Example 4 shows the valid semantics then disagrees); positive
    expressions agree under every semantics.
    """
    fresh = fresh or FreshNames()
    translator = _Translator(fresh, {})
    member = Var("X0")
    formula = translator.formula(expr, member)
    rules = list(translator.extra_rules)
    rules.extend(
        formula_to_rules(PredAtom(result_name, (member,)), formula, {}, fresh)
    )
    program = Program(tuple(rules), name=f"algebra:{result_name}")
    return TranslationResult(program, {}, result_predicate=result_name)


def translate_program(aprog: AlgebraProgram) -> TranslationResult:
    """Proposition 5.4: compile an ``algebra=`` program to rules.

    Each defined set constant ``S`` becomes a unary predicate ``s_S``;
    evaluate the result under the valid (or well-founded) semantics —
    source and target "both interpret subtraction and negation using
    valid semantics, thus have the same result".

    ``IFP`` nodes are rejected when they recurse through a defined name
    (use the staging route of Proposition 5.2 / Theorem 3.5); free-standing
    ``IFP`` subexpressions are translated naively, which is exact here
    because a non-recursive IFP subprogram is reached only positively
    from below and its inflationary and valid readings coincide for the
    positive bodies this translator accepts them with.
    """
    system = aprog.to_constant_system()
    recursive = system.recursive_names()
    fresh = FreshNames()
    predicate_of = {
        definition.name: f"s_{definition.name}" for definition in system.definitions
    }

    rules: List[Rule] = []
    for definition in system.definitions:
        for node in walk(definition.body):
            if not isinstance(node, Ifp):
                continue
            if called_names(node.body) & recursive:
                raise IfpThroughRecursion(
                    f"{definition.name}: IFP through a recursive name; use "
                    f"staging (Proposition 5.2 / Theorem 3.5)"
                )
            from .positivity import is_positive_in

            if not is_positive_in(node.body, node.param):
                raise IfpThroughRecursion(
                    f"{definition.name}: non-positive IFP inside an algebra= "
                    f"program — its inflationary reading differs from the "
                    f"valid reading (Example 4); use the staging route"
                )
        translator = _Translator(fresh, dict(predicate_of))
        member = Var("X0")
        formula = translator.formula(definition.body, member)
        rules.extend(translator.extra_rules)
        rules.extend(
            formula_to_rules(
                PredAtom(predicate_of[definition.name], (member,)),
                formula,
                {},
                fresh,
            )
        )
    program = Program(tuple(rules), name=aprog.name or "algebra=")
    return TranslationResult(program, predicate_of)
