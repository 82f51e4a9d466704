"""A program is prepared once: what ``run()`` keeps across calls.

The route (cone, closed part, part to ground) and the component schedule
(each component's naive and lead plans) are memoized per immutable
:class:`Program`; the corpus parses each source once.  Nothing tied to a
call — database, registry, budget, kernel, counters — is kept, and a
non-stratified program raises on every call.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.datalog.engine as engine
import repro.datalog.schedule as schedule
from repro.corpus import ALGEBRA_CORPUS, DEDUCTIVE_CORPUS, chain, edges_to_database, grid
from repro.datalog import Database, run, seminaive_stratified
from repro.datalog.grounding import GroundingBudgetExceeded
from repro.datalog.parser import parse_program
from repro.datalog.stratification import NotStratifiedError
from repro.lang.parser import parse_algebra_program
from repro.relations import FunctionRegistry
from repro.robustness import BudgetExceeded, EvaluationBudget


def _fresh(name):
    return parse_program(DEDUCTIVE_CORPUS[name].source, name=name)


def test_an_equal_program_parsed_afresh_hits_both_caches():
    database = edges_to_database(chain(6))
    first = run(_fresh("unreachable"), database, "stratified")
    route, order = engine._route.cache_info(), schedule.components.cache_info()
    again = run(_fresh("unreachable"), database, "stratified")
    assert engine._route.cache_info()[:2] == (route.hits + 1, route.misses)
    assert schedule.components.cache_info()[:2] == (order.hits + 1, order.misses)
    assert again.true_rows("unreachable") == first.true_rows("unreachable")


def test_a_non_stratified_program_raises_on_every_call():
    program = _fresh("win-move")
    database = edges_to_database(chain(4))
    for _call in range(3):
        with pytest.raises(NotStratifiedError):
            run(program, database, "stratified")
        with pytest.raises(NotStratifiedError):
            seminaive_stratified(program, database)


def test_a_bounded_call_leaves_nothing_for_the_next():
    program = _fresh("transitive-closure")
    database = edges_to_database(chain(12))
    full = run(program, database).true_rows("tc")
    assert len(full) == 11 * 12 // 2  # chain(12): twelve nodes
    with pytest.raises(GroundingBudgetExceeded):
        run(program, database, max_rounds=1)
    assert run(program, database).true_rows("tc") == full
    with pytest.raises(BudgetExceeded):
        run(program, database, budget=EvaluationBudget(max_steps=5))
    assert run(program, database).true_rows("tc") == full


def test_each_call_uses_its_own_registry():
    program = parse_program("n(0).\nn(Y) :- n(X), Y = step(X), Y <= 6.")
    by_one, by_two = FunctionRegistry(), FunctionRegistry()
    by_one.register("step", 1, lambda x: x + 1)
    by_two.register("step", 1, lambda x: x + 2)
    assert run(program, registry=by_one).true_rows("n") == {(i,) for i in range(7)}
    assert run(program, registry=by_two).true_rows("n") == {(i,) for i in (0, 2, 4, 6)}
    assert seminaive_stratified(program, Database(), registry=by_one)["n"] == {
        (i,) for i in range(7)
    }


@pytest.mark.parametrize("name", ["same-generation", "unreachable", "win-move"])
def test_threads_sharing_a_program_get_the_serial_answer(name):
    program = _fresh(name)
    database = edges_to_database(grid(4, 4))
    predicates = DEDUCTIVE_CORPUS[name].predicates

    def answer():
        result = run(program, database, "valid")
        return {p: (result.true_rows(p), result.undefined_rows(p)) for p in predicates}

    serial = answer()
    engine._route.cache_clear()
    schedule.components.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        answers = list(pool.map(lambda _i: answer(), range(4)))
    assert answers == [serial] * 4


@pytest.mark.parametrize("name", sorted(DEDUCTIVE_CORPUS))
def test_a_deductive_case_parses_once(name):
    case = DEDUCTIVE_CORPUS[name]
    assert case.program is case.program
    assert case.program == parse_program(case.source, name=name)


@pytest.mark.parametrize("name", sorted(ALGEBRA_CORPUS))
def test_an_algebra_case_parses_once(name):
    case = ALGEBRA_CORPUS[name]
    assert case.program is case.program
    assert case.program == parse_algebra_program(
        case.source, dialect=case.dialect, name=name
    )
