"""Example 4 and Propositions 5.1–5.3: algebra → deduction.

Example 4 is the crux of Section 5: the naive translation of
``Q = IFP_{{a}−x}`` is not stratified; under the *inflationary* semantics
it computes {a} (matching the algebra), under the *valid* semantics
``Q(a)`` is neither true nor false.  Proposition 5.2's stage-indexed
transformation repairs this, giving Proposition 5.3: every IFP-algebra
query has an equivalent d.i. deductive query (under valid semantics).
"""

import pytest

from repro.core.algebra_to_datalog import translate_expression, translation_registry
from repro.core import evaluate
from repro.core.expressions import diff, ifp, map_, product, rel, select, setconst, union
from repro.core.funcs import Apply, Arg, Comp, CompareTest, Lit, MkTup
from repro.core.staging import run_staged
from repro.corpus import chain, cycle, edges_to_relation
from repro.core.encoding import environment_to_database
from repro.datalog import Database, run
from repro.datalog.semantics import Truth
from repro.datalog.stratification import is_stratified
from repro.relations import Atom, Relation

a = Atom("a")


@pytest.fixture(scope="module")
def registry():
    return translation_registry()


def example4_query():
    return ifp("x", diff(setconst(a), rel("x")))


class TestExample4:
    def test_algebra_value_is_a(self):
        assert evaluate(example4_query(), {}) == Relation.of(a)

    def test_translation_not_stratified(self):
        translation = translate_expression(example4_query())
        assert not is_stratified(translation.program)

    def test_inflationary_matches_algebra(self, registry):
        """First/second/third iteration narrative of Example 4."""
        translation = translate_expression(example4_query())
        result = run(
            translation.program, Database(), semantics="inflationary", registry=registry
        )
        assert result.true_rows(translation.result_predicate) == {(a,)}

    def test_valid_leaves_q_undefined(self, registry):
        """'Thus neither Q(a) nor ¬Q(a) hold in the valid model.'"""
        translation = translate_expression(example4_query())
        result = run(
            translation.program, Database(), semantics="valid", registry=registry
        )
        assert result.truth_of(translation.result_predicate, a) is Truth.UNDEFINED


class TestProposition52:
    def test_staged_valid_equals_inflationary(self, registry):
        translation = translate_expression(example4_query())
        inflationary = run(
            translation.program, Database(), semantics="inflationary", registry=registry
        )
        staged = run_staged(
            translation.program, Database(), semantics="valid", registry=registry
        )
        assert staged.converged
        assert staged.result.true_rows(
            translation.result_predicate
        ) == inflationary.true_rows(translation.result_predicate)


def tc_ifp_query():
    grow = map_(
        select(
            product(rel("MOVE"), rel("x")),
            CompareTest("=", Comp(Comp(Arg(), 1), 2), Comp(Comp(Arg(), 2), 1)),
        ),
        MkTup((Comp(Comp(Arg(), 1), 1), Comp(Comp(Arg(), 2), 2))),
    )
    return ifp("x", union(rel("MOVE"), grow))


class TestProposition53:
    """IFP-algebra query → (translate, stage) → valid deduction: the
    composite equals direct algebra evaluation."""

    @pytest.mark.parametrize("edges_factory", [lambda: chain(5), lambda: cycle(4)])
    def test_positive_ifp_roundtrip(self, registry, edges_factory):
        edges = edges_factory()
        move = edges_to_relation(edges, "MOVE")
        direct = evaluate(tc_ifp_query(), {"MOVE": move})

        translation = translate_expression(tc_ifp_query())
        database = environment_to_database({"MOVE": move}, {})
        staged = run_staged(
            translation.program, database, semantics="valid", registry=registry
        )
        assert staged.converged
        rows = {
            row[0] for row in staged.result.true_rows(translation.result_predicate)
        }
        assert rows == set(direct.items)

    def test_nonpositive_ifp_roundtrip(self, registry):
        """exp(x) = ({a} ∪ B) − x, non-monotone; staging keeps the
        inflationary meaning under valid evaluation."""
        b_rel = Relation.of(Atom("b"), name="B")
        query = ifp("x", diff(union(setconst(a), rel("B")), rel("x")))
        direct = evaluate(query, {"B": b_rel})

        translation = translate_expression(query)
        database = environment_to_database({"B": b_rel}, {})
        staged = run_staged(
            translation.program, database, semantics="valid", registry=registry
        )
        assert staged.converged
        rows = {
            row[0] for row in staged.result.true_rows(translation.result_predicate)
        }
        assert rows == set(direct.items)
