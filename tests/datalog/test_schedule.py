"""One evaluation schedule: ``run()`` and a view's build close the same
components in the same order.

``seminaive_stratified`` (the closed part of every ``run()``) and
``DBSPEngine``'s build keep two loops — their budgets and fault points
differ — over one schedule, :func:`repro.datalog.schedule.components`.
The work-equality cases pin that both loops then fire the same plans
over the same rows; the rest pin that the schedule is worked out once
per program, on one condensation of its predicate graph.
"""

from unittest.mock import patch

import pytest

import repro.datalog.stratification as stratification
from repro.corpus import DEDUCTIVE_CORPUS, edges_to_database
from repro.datalog.database import split_program_and_facts
from repro.datalog.parser import parse_program
from repro.datalog.schedule import components
from repro.datalog.seminaive import seminaive_stratified
from repro.service import prepare_program
from repro.service.dbsp import DBSPEngine

from .test_fixpoint_counts import GRAPHS, REGISTRY, STRATIFIED, recording


@pytest.mark.parametrize("graph", ["chain", "cycle"])
@pytest.mark.parametrize("name", STRATIFIED)
def test_run_and_a_view_build_do_the_same_work(name, graph):
    program, facts = split_program_and_facts(DEDUCTIVE_CORPUS[name].program)
    database = edges_to_database(GRAPHS[graph])
    for predicate, row in facts:
        database.add(predicate, *row)
    prepared = prepare_program(name, program)
    with recording() as direct:
        model = seminaive_stratified(program, database, registry=REGISTRY)
    with recording() as built:
        engine = DBSPEngine(prepared, database, registry=REGISTRY)
    assert model == engine.model()
    assert (direct["fired"], direct["matched"]) == (built["fired"], built["matched"])


def test_a_program_is_condensed_once():
    # Predicate names no other test uses: nothing is memoized for it yet.
    source = "p1(X) :- e1(X).\nq1(X) :- p1(X), not r1(X).\nr1(X) :- e1(X), not p1(X).\n"
    calls = []
    build = stratification.dependency_graph

    def spy(program):
        calls.append(program)
        return build(program)

    with patch.object(stratification, "dependency_graph", spy):
        prepared = prepare_program("fresh-once", source)
        seminaive_stratified(prepared.program, prepared.seed_facts)
    assert prepared.stratified and prepared.strata == {"e1": 0, "p1": 0, "r1": 1, "q1": 2}
    assert len(calls) == 1


def test_an_equal_program_shares_its_schedule():
    source = DEDUCTIVE_CORPUS["unreachable"].source
    first, again = parse_program(source), parse_program(source)
    assert first is not again
    assert components(first) is components(again)
    assert prepare_program("u", first).schedule is components(first)

