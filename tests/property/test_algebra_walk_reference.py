"""Differential property suite: ``evaluate`` vs. the retired two-valued walk.

:func:`repro.core.evaluate` solves a non-recursive expression as a
one-equation system on ``valid_eval``'s compiled evaluator, and an IFP as
a loop of such stages; :mod:`.algebra_walk_reference` is the tree walk it
replaced.  On random IFP-algebra expressions over two database relations
the two must return the same relation, or raise the same
``NonTerminating`` (an IFP that grows past the stage bound).

The expression space: ``∪ − × σ π MAP``; ``IFP`` with ``−`` over its
parameter (Example 4); nested IFPs whose bodies read the outer parameter
(and, shadowing, reuse its name); ``σ[¬(x.1 = a)]`` under a ``−``, so a
subtraction's ``¬`` reaches a ``σ``; and a parameterised non-recursive
call ``F(e)``, whose body holds an IFP over ``X`` while ``e`` may read an
enclosing ``X`` — the inlining must rename apart, not capture.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NonTerminating, evaluate
from repro.core.algebra_to_datalog import translation_registry
from repro.core.expressions import (
    Diff,
    Map,
    Product,
    Select,
    Union,
    call,
    diff,
    ifp,
    product,
    rel,
    select,
    setconst,
    union,
)
from repro.core.funcs import (
    AndTest,
    Apply,
    Arg,
    Comp,
    CompareTest,
    Lit,
    MkTup,
    NotTest,
    OrTest,
)
from repro.core.programs import AlgebraProgram, Definition, Dialect
from repro.relations import Atom, Relation, tup

from . import algebra_walk_reference as walk

REGISTRY = translation_registry()

a, b = Atom("a"), Atom("b")
ENV = {
    "A": Relation.of(a, b, 0, tup(a, b), name="A"),
    "B": Relation.of(tup(a, b), tup(b, a), tup(b, 1), b, name="B"),
}
#: Small, so a growing IFP (nested ones included) gives up after a few
#: cheap stages.
MAX_ITERATIONS = 8

x = Arg()
NOT_FIRST_A = NotTest(CompareTest("=", Comp(x, 1), Lit(a)))
#: ``σ``'s ``MAP`` in the transitive-closure shape: ``[x.1.1, x.2.2]``.
JOIN = MkTup((Comp(Comp(x, 1), 1), Comp(Comp(x, 2), 2)))
PROGRAM = AlgebraProgram.of(
    Definition(
        "F",
        ("Y",),
        union(
            select(rel("Y"), NOT_FIRST_A),
            ifp("X", diff(product(rel("Y"), setconst(b)), rel("X"))),
        ),
    ),
    database_relations=["A", "B"],
    dialect=Dialect.IFP_ALGEBRA,
)

comparisons = st.one_of(
    st.just(CompareTest("=", Comp(x, 1), Lit(a))),
    st.builds(
        CompareTest,
        st.sampled_from(["=", "!=", "<"]),
        st.sampled_from([x, Comp(x, 1), Comp(x, 2)]),
        st.sampled_from([Lit(a), Lit(b), Lit(1), Comp(x, 2)]),
    ),
)
tests = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds(AndTest, inner, inner),
        st.builds(OrTest, inner, inner),
        st.builds(NotTest, inner),
    ),
    max_leaves=3,
)
functions = st.sampled_from(
    [
        Comp(x, 1),
        Comp(x, 2),
        MkTup((Comp(x, 2), Comp(x, 1))),
        MkTup((x, Lit(a))),
        Apply("succ", (x,)),
    ]
)


def expressions(params, depth):
    """Expressions over ``A``, ``B`` and the IFP parameters in scope."""
    leaves = st.sampled_from(
        [rel("A"), rel("B"), setconst(a), setconst(0, tup(a, b)), *map(rel, params * 2)]
    )
    if depth == 0:
        return leaves
    sub = expressions(params, depth - 1)
    closed = expressions((), depth - 1)
    # "X" while it is free, then "Y", then "X" again: shadowing.
    param = "Y" if params[-1:] == ("X",) else "X"
    body = expressions((*params, param), depth - 1)
    # A call, and an inner IFP, that read the enclosing parameter.
    enclosed = [
        st.builds(lambda e: call("F", Union(e, rel(params[-1]))), sub),
        st.builds(lambda e: ifp(param, Union(e, rel(params[-1]))), body),
    ]
    return st.one_of(
        leaves,
        st.builds(Union, sub, sub),
        st.builds(Diff, sub, sub),
        # A parameter under a bare × would square a stage's size each
        # stage; under the join below it only pairs known components.
        st.builds(Product, closed, closed),
        st.builds(
            lambda left, right, test: Map(Select(Product(left, right), test), JOIN),
            closed,
            sub,
            tests,
        ),
        st.builds(Select, sub, tests),
        st.builds(Map, sub, functions),
        st.builds(lambda left, right: Diff(left, Select(right, NOT_FIRST_A)), sub, sub),
        st.builds(lambda arg: call("F", arg), sub),
        st.builds(lambda e: ifp(param, e), body),
        st.builds(lambda e: ifp(param, Diff(e, rel(param))), body),
        *(enclosed if params else ()),
    )


def _outcome(evaluator, expr):
    try:
        return evaluator(
            expr, ENV, REGISTRY, program=PROGRAM, max_iterations=MAX_ITERATIONS
        ).items
    except NonTerminating as error:
        return str(error)


#: Half of them an IFP at the top whose first stage is not empty, so
#: what reads its parameter reads members.
queries = st.one_of(
    expressions((), 3),
    st.builds(lambda e: ifp("X", union(rel("A"), e)), expressions(("X",), 3)),
)


@given(queries)
@settings(max_examples=500, deadline=None)
def test_compiled_evaluate_matches_the_walk(expr):
    assert _outcome(evaluate, expr) == _outcome(walk.evaluate, expr), expr
