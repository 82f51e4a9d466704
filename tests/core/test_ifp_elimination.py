"""Unit tests for IFP elimination (Theorem 3.5 / Corollary 3.6)."""

import pytest

from repro.core.algebra_to_datalog import translation_registry
from repro.core import evaluate
from repro.core.expressions import diff, ifp, map_, product, rel, select, setconst, union
from repro.core.funcs import Arg, Comp, CompareTest, MkTup
from repro.core.ifp_elimination import eliminate_ifp, eliminate_ifp_auto
from repro.corpus import chain, cycle, edges_to_relation
from repro.relations import Atom, Relation

a, b = Atom("a"), Atom("b")


@pytest.fixture(scope="module")
def registry():
    return translation_registry()


def tc_query():
    grow = map_(
        select(
            product(rel("MOVE"), rel("x")),
            CompareTest("=", Comp(Comp(Arg(), 1), 2), Comp(Comp(Arg(), 2), 1)),
        ),
        MkTup((Comp(Comp(Arg(), 1), 1), Comp(Comp(Arg(), 2), 2))),
    )
    return ifp("x", union(rel("MOVE"), grow))


class TestEliminateIfp:
    def test_result_is_ifp_free(self):
        free = eliminate_ifp(tc_query(), frozenset({"MOVE"}), stage_bound=8)
        assert not free.program.uses_ifp()
        assert free.program.dialect.value == "algebra="

    def test_nonpositive_query(self, registry):
        query = ifp("x", diff(setconst(a), rel("x")))
        free = eliminate_ifp(query, frozenset(), stage_bound=4)
        assert free.evaluate({}, registry=registry) == Relation.of(a)

    def test_positive_query_matches_direct(self, registry):
        env = {"MOVE": edges_to_relation(chain(5), "MOVE")}
        free = eliminate_ifp(tc_query(), frozenset({"MOVE"}), stage_bound=8)
        direct = evaluate(tc_query(), env, registry=registry)
        assert free.evaluate(env, registry=registry).items == direct.items

    def test_insufficient_bound_detected_by_auto(self, registry):
        env = {"MOVE": edges_to_relation(chain(8), "MOVE")}
        free = eliminate_ifp_auto(
            tc_query(), env, registry=registry, initial_bound=2
        )
        assert free.stage_bound >= 8
        direct = evaluate(tc_query(), env, registry=registry)
        assert free.evaluate(env, registry=registry).items == direct.items

    def test_auto_on_cycle(self, registry):
        env = {"MOVE": edges_to_relation(cycle(4), "MOVE")}
        free = eliminate_ifp_auto(tc_query(), env, registry=registry)
        direct = evaluate(tc_query(), env, registry=registry)
        assert free.evaluate(env, registry=registry).items == direct.items

    def test_auto_bound_cap(self, registry):
        query = ifp("x", diff(setconst(a, b), rel("x")))
        with pytest.raises(RuntimeError):
            # max_bound below the needed stages for any convergence check:
            eliminate_ifp_auto(
                query, {}, registry=registry, initial_bound=1, max_bound=1
            )

    def test_total_on_every_tested_database(self, registry):
        """Theorem 3.5's image lies in the well-defined fragment."""
        from repro.core.valid_eval import valid_evaluate

        free = eliminate_ifp(tc_query(), frozenset({"MOVE"}), stage_bound=8)
        for edges in (chain(4), cycle(3)):
            env = {"MOVE": edges_to_relation(edges, "MOVE")}
            outcome = valid_evaluate(free.program, env, registry=registry)
            assert outcome.is_well_defined()
