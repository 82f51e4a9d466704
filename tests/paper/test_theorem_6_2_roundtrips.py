"""Theorem 6.2 (with Prop 6.1, Theorem 3.5, Corollary 3.6): the d.i.
deductive language, the safe deductive language, algebra=, and
IFP-algebra= are equivalent.

We certify the equivalence by executable round trips over the corpus:

* deduction → algebra= → evaluate, vs direct deduction (Prop 6.1);
* algebra= → deduction → evaluate, vs the native three-valued
  evaluation (Prop 5.4);
* the double round trip deduction → algebra= → deduction;
* Theorem 3.5 / Corollary 3.6: an IFP-algebra query expressed in
  algebra= (via translate + stage + Prop 6.1) gives the same answers.
"""

import pytest

from repro.core.algebra_to_datalog import (
    translate_expression,
    translate_program,
    translation_registry,
)
from repro.core.datalog_to_algebra import datalog_to_algebra
from repro.core.encoding import database_to_environment, environment_to_database
from repro.core.equivalence import (
    check_algebra_roundtrip,
    check_datalog_roundtrip,
    datalog_answers,
)
from repro.core import evaluate
from repro.core.expressions import diff, ifp, rel, setconst
from repro.core.staging import run_staged, stage_program
from repro.core.valid_eval import valid_evaluate
from repro.corpus import (
    ALGEBRA_CORPUS,
    DEDUCTIVE_CORPUS,
    chain,
    cycle,
    edges_to_database,
    edges_to_relation,
    random_graph,
)
from repro.datalog import Database, run
from repro.relations import Atom, Relation

GRAPHS = {
    "chain": chain(5),
    "cycle": cycle(4),
    "random": random_graph(5, 0.35, seed=23),
}


@pytest.fixture(scope="module")
def registry():
    return translation_registry()


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("case_name", sorted(DEDUCTIVE_CORPUS))
def test_deduction_to_algebra_direction(case_name, graph_name, registry):
    case = DEDUCTIVE_CORPUS[case_name]
    database = (
        Database() if case.uses_functions else edges_to_database(GRAPHS[graph_name])
    )
    report = check_datalog_roundtrip(case.program, database, registry=registry)
    assert report.matches, (case_name, report.mismatches())


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("case_name", sorted(ALGEBRA_CORPUS))
def test_algebra_to_deduction_direction(case_name, graph_name, registry):
    case = ALGEBRA_CORPUS[case_name]
    env = {
        "MOVE": edges_to_relation(GRAPHS[graph_name], "MOVE"),
        "A": Relation.of(1, 2, 3, 4, 5, name="A"),
        "B": Relation.of(3, 4, 5, 6, name="B"),
    }
    env = {k: v for k, v in env.items() if k in case.program.database_relations}
    report = check_algebra_roundtrip(case.program, env, registry=registry)
    assert report.matches, (case_name, report.mismatches())


@pytest.mark.parametrize("case_name", ["win-move", "transitive-closure", "choice"])
def test_double_roundtrip(case_name, registry):
    """deduction → algebra= → deduction: answers preserved through both
    translations composed."""
    case = DEDUCTIVE_CORPUS[case_name]
    database = edges_to_database(GRAPHS["random"])
    direct = datalog_answers(case.program, database, registry=registry)

    to_algebra = datalog_to_algebra(case.program)
    back = translate_program(to_algebra.program)
    env = database_to_environment(database)
    for name in to_algebra.program.database_relations:
        env.setdefault(name, Relation([], name=name))
    db2 = environment_to_database(env, {})
    outcome = run(back.program, db2, semantics="valid", registry=registry)

    for predicate in case.predicates:
        mapped = back.predicate_of[predicate]
        assert {r[0] for r in outcome.true_rows(mapped)} == direct[predicate].true
        assert {r[0] for r in outcome.undefined_rows(mapped)} == direct[
            predicate
        ].undefined


class TestTheorem35:
    """IFP-algebra ⊂ algebra= — an IFP query is expressible without IFP."""

    def test_example4_expressed_in_algebra_eq(self, registry):
        a = Atom("a")
        query = ifp("x", diff(setconst(a), rel("x")))
        direct = evaluate(query, {})

        # Route: translate (Prop 5.1) → stage (Prop 5.2) → that staged
        # program is safe deduction → algebra= (Prop 6.1).
        translation = translate_expression(query)
        staged_program = stage_program(translation.program, stage_bound=4)
        to_algebra = datalog_to_algebra(staged_program)
        assert not to_algebra.program.uses_ifp()

        env = database_to_environment(Database())
        for name in to_algebra.program.database_relations:
            env.setdefault(name, Relation([], name=name))
        result = valid_evaluate(to_algebra.program, env, registry=registry)
        assert result.is_well_defined()
        rows = {
            row[0]
            for row in to_algebra.decode_rows(
                result.relation(translation.result_predicate)
            )
        }
        assert rows == set(direct.items)

    def test_proper_inclusion_witness(self):
        """The inclusion is proper: S = {a} − S is an algebra= program
        with no initial valid model, something no IFP-algebra query
        exhibits (Theorem 3.1 guarantees their totality)."""
        from repro.core.expressions import call
        from repro.core.programs import AlgebraProgram, Definition, Dialect

        program = AlgebraProgram.of(
            Definition("S", (), diff(setconst(Atom("a")), call("S"))),
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(program, {})
        assert not result.is_well_defined()
