"""From deduction to algebra (Section 6, Proposition 6.1).

Every *safe* deductive program has an equivalent ``algebra=`` program:
each predicate ``P_i`` is represented by a set constant; a single
derivation step of its rules is a calculus query, which "can be expressed
by the algebra [5]"; and the constant is defined as the fixed point of the
resulting *simulation function*:

    ``P_i = exp_i(P_1, ..., P_n, R_1, ..., R_m)``

The calculus→algebra step is the classical one: joins are
product-plus-selection, variable bindings become component paths into the
accumulating nested-pair tuple, ``y = f(x̄)`` extends the tuple via MAP,
negative literals subtract the matching sub-join, and the head is
reconstructed with MAP.  We drive it with the same binding-order analysis
the grounder uses, so exactly the safe rules (Definition 4.1) are
translatable — :class:`~repro.datalog.binding.UnsafeRuleError` is raised
otherwise, matching Proposition 4.2's insistence on safety.

Predicates are encoded as in :mod:`repro.core.encoding`: arity 1 → the
set of member values, arity ≥ 2 → a set of width-n tuples, arity 0 → a
set containing :data:`~repro.core.encoding.UNIT` when true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..datalog.ast import (
    Comparison,
    Const,
    FuncTerm,
    Literal,
    Program,
    Rule,
    Term,
    Var,
)
from ..datalog.binding import UnsafeRuleError, binding_order
from .encoding import UNIT
from .expressions import (
    Call,
    Diff,
    Expr,
    Map,
    Product,
    RelVar,
    Select,
    SetConst,
    Union,
)
from .funcs import (
    AndTest,
    Apply,
    Arg,
    Comp,
    CompareTest,
    Lit,
    MkTup,
    ScalarExpr,
    TrueTest,
)
from .programs import AlgebraProgram, Definition, Dialect

__all__ = ["DatalogToAlgebraResult", "datalog_to_algebra", "rule_to_expression"]


Path = Tuple[int, ...]


def _path_expr(path: Path) -> ScalarExpr:
    expr: ScalarExpr = Arg()
    for index in path:
        expr = Comp(expr, index)
    return expr


def _term_to_scalar(term: Term, env: Mapping[Var, Path]) -> ScalarExpr:
    if isinstance(term, Var):
        if term not in env:
            raise UnsafeRuleError(f"variable {term.name} used before being bound")
        return _path_expr(env[term])
    if isinstance(term, Const):
        return Lit(term.value)
    if isinstance(term, FuncTerm):
        args = tuple(_term_to_scalar(arg, env) for arg in term.args)
        if term.name == "tuple":
            return MkTup(args)
        return Apply(term.name, args)
    raise TypeError(f"not a term: {term!r}")


def _conjoin(tests: List) -> object:
    if not tests:
        return TrueTest()
    result = tests[0]
    for test in tests[1:]:
        result = AndTest(result, test)
    return result


class _RuleCompiler:
    """Compile one safe rule body into an algebra expression producing the
    encoded head members."""

    def __init__(self, idb: FrozenSet[str], arities: Mapping[str, int]):
        self.idb = idb
        self.arities = arities

    def _base(self, predicate: str) -> Expr:
        if predicate in self.idb:
            return Call(predicate)
        return RelVar(predicate)

    def _rank(self, item) -> int:
        if isinstance(item, Literal) and item.positive:
            return 2 if item.atom.predicate in self.idb else 0
        return 1

    def compile(self, rule: Rule) -> Expr:
        """The simulation expression for one safe rule."""
        # EDB matches first, then comparisons and negated literals, then
        # IDB matches: a subtrahend built from the frame then re-reads no
        # positive IDB literal the order could have joined after it.
        # Kleene logic is not idempotent: with φ undefined and ψ true,
        # φ ∧ ¬(φ ∧ ψ) is undefined where φ ∧ ¬ψ is false.
        ordered = Rule(rule.head, tuple(sorted(rule.body, key=self._rank)))
        order = binding_order(ordered)  # raises UnsafeRuleError when unsafe
        join: Optional[Expr] = None
        # The *frame* mirrors ``join`` minus the negative-literal
        # subtractions.  Subtrahends are built from it rather than from
        # ``join`` so no subexpression is duplicated at both polarities:
        # under three-valued evaluation a repeated subterm loses the
        # classical ``φ ∧ ¬φ = false`` (it is undefined when φ is), which
        # would make valid_evaluate strictly less precise than deduction.
        # Since join ⊆ frame and both share one tuple shape,
        # ``join − {t ∈ frame | cond}`` equals ``join − {t ∈ join | cond}``.
        frame: Optional[Expr] = None
        env: Dict[Var, Path] = {}

        def seed() -> Expr:
            return SetConst(frozenset((UNIT,)))

        def prefix_env() -> None:
            for variable in list(env):
                env[variable] = (1,) + env[variable]

        for kind, payload in order:
            if kind == "match":
                literal: Literal = payload
                predicate = literal.atom.predicate
                arity = len(literal.atom.args)
                base = self._base(predicate)
                if join is None:
                    join = base
                    frame = base
                    root: Path = ()
                else:
                    join = Product(join, base)
                    frame = Product(frame, base)
                    prefix_env()
                    root = (2,)
                for position, arg in enumerate(literal.atom.args):
                    component_path = root + ((position + 1,) if arity >= 2 else ())
                    if isinstance(arg, Var) and arg not in env:
                        env[arg] = component_path
                    else:
                        test = CompareTest(
                            "=",
                            _path_expr(component_path),
                            _term_to_scalar(arg, env),
                        )
                        join = Select(join, test)
                        frame = Select(frame, test)
            elif kind == "assign":
                mode, comparison = payload
                if mode == "assign-left":
                    variable, expr = comparison.left, comparison.right
                else:
                    variable, expr = comparison.right, comparison.left
                scalar = _term_to_scalar(expr, env)
                if join is None:
                    join = seed()
                    frame = join
                extend = MkTup((Arg(), scalar))
                join = Map(join, extend)
                frame = Map(frame, extend)
                prefix_env()
                env[variable] = (2,)
            elif kind == "test":
                comparison = payload
                if join is None:
                    join = seed()
                    frame = join
                test = CompareTest(
                    comparison.op,
                    _term_to_scalar(comparison.left, env),
                    _term_to_scalar(comparison.right, env),
                )
                join = Select(join, test)
                frame = Select(frame, test)
            elif kind == "negtest":
                literal = payload
                predicate = literal.atom.predicate
                arity = len(literal.atom.args)
                base = self._base(predicate)
                if join is None:
                    join = seed()
                    frame = join
                paired = Product(frame, base)
                tests = []
                for position, arg in enumerate(literal.atom.args):
                    component: ScalarExpr = Comp(Arg(), 2)
                    if arity >= 2:
                        component = Comp(component, position + 1)
                    shifted = {v: (1,) + path for v, path in env.items()}
                    tests.append(
                        CompareTest("=", component, _term_to_scalar(arg, shifted))
                    )
                matched = Map(Select(paired, _conjoin(tests)), Comp(Arg(), 1))
                join = Diff(join, matched)
            else:  # pragma: no cover — binding_order only emits these kinds
                raise AssertionError(kind)

        if join is None:
            join = seed()

        # Head reconstruction.
        head_args = rule.head.args
        if len(head_args) == 0:
            return Map(join, Lit(UNIT))
        if len(head_args) == 1:
            return Map(join, _term_to_scalar(head_args[0], env))
        return Map(
            join, MkTup(tuple(_term_to_scalar(arg, env) for arg in head_args))
        )


def rule_to_expression(
    rule: Rule, idb: FrozenSet[str], arities: Mapping[str, int]
) -> Expr:
    """The algebra expression simulating one derivation step of ``rule``."""
    return _RuleCompiler(idb, arities).compile(rule)


@dataclass
class DatalogToAlgebraResult:
    """An ``algebra=`` program equivalent to the source deductive program.

    Defined set names coincide with IDB predicate names; database relation
    names coincide with EDB predicate names (encode a
    :class:`~repro.datalog.database.Database` with
    :func:`~repro.core.encoding.database_to_environment`).
    """

    program: AlgebraProgram
    arities: Dict[str, int]

    def decode_rows(self, relation) -> FrozenSet[Tuple]:
        """Decode an answer relation back into predicate rows."""
        from .encoding import relation_rows

        return relation_rows(relation, self.arities.get(relation.name, 1))


def datalog_to_algebra(program: Program) -> DatalogToAlgebraResult:
    """Proposition 6.1: compile a safe deductive program to ``algebra=``.

    Each IDB predicate becomes a recursive set constant whose body is the
    union of its rules' simulation expressions.  Raises
    :class:`~repro.datalog.binding.UnsafeRuleError` on unsafe rules.
    """
    idb = program.idb_predicates()
    arities = program.arities()
    compiler = _RuleCompiler(idb, arities)

    definitions: List[Definition] = []
    for predicate in sorted(idb):
        alternatives = [compiler.compile(rule) for rule in program.rules_for(predicate)]
        body = alternatives[0]
        for alternative in alternatives[1:]:
            body = Union(body, alternative)
        definitions.append(Definition(predicate, (), body))

    algebra_program = AlgebraProgram.of(
        *definitions,
        database_relations=sorted(program.edb_predicates()),
        dialect=Dialect.ALGEBRA_EQ,
        name=(program.name or "program") + "-as-algebra",
    )
    return DatalogToAlgebraResult(algebra_program, dict(arities))
