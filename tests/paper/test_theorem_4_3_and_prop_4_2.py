"""Theorem 4.3 and Proposition 4.2: the stratified fragment and safety.

Theorem 4.3: stratified d.i. deduction ≡ stratified safe deduction ≡ the
positive IFP-algebra.  We certify instances in both directions:
stratified corpus programs translate to algebra= programs that are
*total* (stratified programs have 2-valued valid models), and positive
IFP-algebra queries translate to stratified deductive programs.

Proposition 4.2: every d.i. query has an equivalent safe query, and the
construction preserves stratification.
"""

import pytest

from repro.core.algebra_to_datalog import translate_expression, translation_registry
from repro.core.datalog_to_algebra import datalog_to_algebra
from repro.core.encoding import database_to_environment
from repro.core.equivalence import check_datalog_roundtrip
from repro.core import evaluate
from repro.core.expressions import ifp, map_, product, rel, select, union
from repro.core.funcs import Arg, Comp, CompareTest, MkTup
from repro.core.positivity import is_positive_ifp_expr
from repro.core.valid_eval import valid_evaluate
from repro.corpus import DEDUCTIVE_CORPUS, chain, cycle, edges_to_database, edges_to_relation
from repro.datalog import Database, run
from repro.datalog.parser import parse_program
from repro.datalog.safety import is_safe_program, make_safe
from repro.datalog.stratification import is_stratified, stratify
from repro.relations import Atom, Relation, Universe

STRATIFIED = [n for n, c in DEDUCTIVE_CORPUS.items() if c.stratified and not c.uses_functions]


@pytest.fixture(scope="module")
def registry():
    return translation_registry()


class TestStratifiedToAlgebra:
    @pytest.mark.parametrize("name", STRATIFIED)
    def test_translation_total_and_equal(self, name, registry):
        """Stratified deduction lands in the total fragment of algebra=."""
        case = DEDUCTIVE_CORPUS[name]
        database = edges_to_database(cycle(4))
        translation = datalog_to_algebra(case.program)
        environment = database_to_environment(database)
        for relation_name in translation.program.database_relations:
            environment.setdefault(relation_name, Relation([], name=relation_name))
        result = valid_evaluate(translation.program, environment, registry=registry)
        assert result.is_well_defined(), name
        report = check_datalog_roundtrip(case.program, database, registry=registry)
        assert report.matches


class TestPositiveIfpToStratified:
    def test_positive_ifp_translates_stratified(self):
        grow = map_(
            select(
                product(rel("MOVE"), rel("x")),
                CompareTest("=", Comp(Comp(Arg(), 1), 2), Comp(Comp(Arg(), 2), 1)),
            ),
            MkTup((Comp(Comp(Arg(), 1), 1), Comp(Comp(Arg(), 2), 2))),
        )
        query = ifp("x", union(rel("MOVE"), grow))
        assert is_positive_ifp_expr(query)
        translation = translate_expression(query)
        assert is_stratified(translation.program)

    def test_stratified_translation_agrees_on_all_semantics(self, registry):
        grow = map_(
            select(
                product(rel("MOVE"), rel("x")),
                CompareTest("=", Comp(Comp(Arg(), 1), 2), Comp(Comp(Arg(), 2), 1)),
            ),
            MkTup((Comp(Comp(Arg(), 1), 1), Comp(Comp(Arg(), 2), 2))),
        )
        query = ifp("x", union(rel("MOVE"), grow))
        move = edges_to_relation(chain(5), "MOVE")
        expected = set(evaluate(query, {"MOVE": move}).items)
        translation = translate_expression(query)
        from repro.core.encoding import environment_to_database

        database = environment_to_database({"MOVE": move}, {})
        for semantics in ("stratified", "inflationary", "wellfounded", "valid"):
            outcome = run(
                translation.program, database, semantics=semantics, registry=registry
            )
            rows = {r[0] for r in outcome.true_rows(translation.result_predicate)}
            assert rows == expected, semantics

    def test_nonpositive_translation_not_stratified(self):
        from repro.core.expressions import diff, setconst

        query = ifp("x", diff(setconst(Atom("a")), rel("x")))
        translation = translate_expression(query)
        assert not is_stratified(translation.program)


class TestProposition42:
    def test_make_safe_preserves_stratification(self):
        """'Moreover, if the first query is stratified, then so is the
        equivalent query.'"""
        unsafe = parse_program(
            "p(X) :- not q(X).\nq(X) :- e(X)."
        )
        universe = Universe([Atom("a"), Atom("b")])
        safe = make_safe(unsafe, universe)
        assert is_safe_program(safe)
        assert is_stratified(safe)
        strata = stratify(safe)
        assert strata["p"] > strata["q"]

    def test_window_equivalence_for_di_query(self):
        """A d.i. query answers identically on any universe containing
        its window — compare two windows."""
        program = parse_program("both(X) :- e(X), f(X).\nonly(X) :- e(X), not f(X).")
        db = Database().add("e", Atom("a")).add("e", Atom("b")).add("f", Atom("b"))
        small = Universe(db.active_domain())
        large = Universe(list(db.active_domain()) + [Atom("z1"), Atom("z2")])
        result_small = run(make_safe(program, small), db, semantics="stratified")
        result_large = run(make_safe(program, large), db, semantics="stratified")
        for predicate in ("both", "only"):
            assert result_small.true_rows(predicate) == result_large.true_rows(predicate)

    def test_domain_dependent_query_differs_across_windows(self):
        """Contrast: a genuinely domain-dependent query changes with the
        window — motivating the restriction to d.i. queries."""
        program = parse_program("comp(X) :- not e(X).")
        db = Database().add("e", Atom("a"))
        small = Universe(db.active_domain())
        large = Universe([Atom("a"), Atom("b")])
        result_small = run(make_safe(program, small), db, semantics="stratified")
        result_large = run(make_safe(program, large), db, semantics="stratified")
        assert result_small.true_rows("comp") != result_large.true_rows("comp")
