"""Proposition 3.4: for monotone exp, the recursive equation S = exp(S)
and the inflationary IFP_exp have identical (total) valid behaviour —
MEM(a, S) = T iff MEM(a, IFP_exp) = T, and likewise for F.
"""

import pytest

from repro.core import evaluate
from repro.core.expressions import (
    call,
    diff,
    ifp,
    map_,
    product,
    rel,
    select,
    setconst,
    union,
)
from repro.core.funcs import Apply, Arg, Comp, CompareTest, Lit, MkTup
from repro.core.positivity import is_positive_in
from repro.core.programs import AlgebraProgram, Definition, Dialect
from repro.core.valid_eval import valid_evaluate
from repro.corpus import chain, cycle, edges_to_relation, random_graph
from repro.datalog.semantics import Truth
from repro.relations import Atom, Relation, standard_registry

a, b = Atom("a"), Atom("b")


def _tc_step():
    return map_(
        select(
            product(rel("MOVE"), rel("x")),
            CompareTest("=", Comp(Comp(Arg(), 1), 2), Comp(Comp(Arg(), 2), 1)),
        ),
        MkTup((Comp(Comp(Arg(), 1), 1), Comp(Comp(Arg(), 2), 2))),
    )


MONOTONE_BODIES = {
    "tc": union(rel("MOVE"), _tc_step()),
    "union-const": union(rel("x"), setconst(a, b)),
    "guarded-growth": union(
        setconst(0),
        select(
            map_(rel("x"), Apply("add2", (Arg(),))),
            CompareTest("<=", Arg(), Lit(12)),
        ),
    ),
    "projection": union(map_(rel("MOVE"), Comp(Arg(), 1)), map_(rel("x"), Arg())),
}


def _compare(body, env, registry):
    """Evaluate S = body(S) (valid) and IFP body (inflationary) and check
    the Proposition 3.4 biconditional on every candidate."""
    program = AlgebraProgram.of(
        Definition("S", (), _substitute_param(body)),
        database_relations=sorted(env),
        dialect=Dialect.ALGEBRA_EQ,
    )
    fixpoint = valid_evaluate(program, env, registry=registry)
    assert fixpoint.is_well_defined()
    inflationary = evaluate(ifp("x", body), env, registry=registry)
    assert set(fixpoint.true["S"]) == set(inflationary.items)
    # FALSE side: everything in the candidate pool but not true is F in
    # both readings.
    for value in fixpoint.candidates["S"]:
        s_truth = fixpoint.truth_of("S", value)
        ifp_truth = Truth.TRUE if value in inflationary else Truth.FALSE
        assert s_truth is ifp_truth


def _substitute_param(body):
    from repro.core.expressions import substitute

    return substitute(body, {"x": call("S")})


@pytest.mark.parametrize("body_name", sorted(MONOTONE_BODIES))
@pytest.mark.parametrize("edges_name", ["chain", "cycle", "random"])
def test_fixpoint_equals_ifp(body_name, edges_name):
    registry = standard_registry()
    body = MONOTONE_BODIES[body_name]
    assert is_positive_in(body, "x")
    edges = {
        "chain": chain(5),
        "cycle": cycle(4),
        "random": random_graph(5, 0.3, seed=17),
    }[edges_name]
    env = {"MOVE": edges_to_relation(edges, "MOVE")}
    _compare(body, env, registry)


def test_contrast_nonmonotone_differs():
    """The paper's own contrast: for exp = {a} − x, IFP gives {a} while
    the equation leaves membership of a undefined."""
    registry = standard_registry()
    body = diff(setconst(a), rel("x"))
    assert not is_positive_in(body, "x")
    inflationary = evaluate(ifp("x", body), {}, registry=registry)
    assert inflationary == Relation.of(a)
    program = AlgebraProgram.of(
        Definition("S", (), diff(setconst(a), call("S"))),
        dialect=Dialect.ALGEBRA_EQ,
    )
    fixpoint = valid_evaluate(program, {}, registry=registry)
    assert fixpoint.truth_of("S", a) is Truth.UNDEFINED
