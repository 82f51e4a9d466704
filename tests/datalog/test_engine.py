"""Unit tests for the engine front door."""

import pytest

import repro.datalog.engine as engine
from repro.corpus import DEDUCTIVE_CORPUS, chain, edges_to_database, grid
from repro.datalog import Database, JoinKernel, Program, ground, run
from repro.datalog.parser import parse_program
from repro.datalog.semantics import Truth
from repro.datalog.stratification import NotStratifiedError
from repro.relations import Atom, standard_registry

a, b = Atom("a"), Atom("b")


def test_semantics_validated():
    with pytest.raises(ValueError, match="unknown semantics"):
        run(parse_program("p."), semantics="mystery")


def test_all_semantics_run_on_stratified():
    program = parse_program("p(X) :- e(X), not q(X).\nq(X) :- f(X).")
    db = Database().add("e", a).add("e", b).add("f", b)
    answers = {
        semantics: run(program, db, semantics=semantics).true_rows("p")
        for semantics in ("stratified", "inflationary", "wellfounded", "valid")
    }
    for semantics in ("stratified", "wellfounded", "valid"):
        assert answers[semantics] == {(a,)}
    # Inflationary reads ¬q(b) as "q(b) not derived so far" and fires the
    # p rule in round one, before q(b) appears — a genuine divergence.
    assert answers["inflationary"] == {(a,), (b,)}


def test_truth_of_irrelevant_atom_is_false():
    result = run(parse_program("p(X) :- e(X)."), Database().add("e", a))
    assert result.truth_of("p", Atom("zzz")) is Truth.FALSE


def test_truth_of_three_values():
    result = run(parse_program("p :- not q.\nq :- not p.\nt."), Database())
    assert result.truth_of("t") is Truth.TRUE
    assert result.truth_of("p") is Truth.UNDEFINED


def test_unary_relation_export():
    program = parse_program("win(X) :- move(X, Y), not win(Y).")
    result = run(program, edges_to_database(chain(4)))
    relation = result.unary_relation("win")
    assert relation.name == "win"
    assert len(relation) == 2


def test_registry_passthrough():
    program = parse_program("n(0).\nn(Y) :- n(X), Y = succ(X), Y <= 3.")
    result = run(program, Database(), registry=standard_registry())
    assert result.true_rows("n") == {(0,), (1,), (2,), (3,)}


def test_is_total():
    total = run(parse_program("p."), Database())
    assert total.is_total()
    partial = run(parse_program("p :- not p."), Database())
    assert not partial.is_total()


# -- which evaluator does the work (counts, not timings) ------------------------

UNREACH_AND_WIN = parse_program(
    DEDUCTIVE_CORPUS["unreachable"].source + "win(X) :- move(X, Y), not win(Y)."
)


def _never_ground(*_args, **_kwargs):
    raise AssertionError("work this program and semantics have no use for")


@pytest.mark.parametrize(
    "name, semantics",
    [
        (name, semantics)
        for name in ("transitive-closure", "same-generation", "unreachable")
        for semantics in engine.SEMANTICS
        # Inflationary negation of an IDB predicate is not modular: that
        # one grounds the whole program, as it always did.
        if (name, semantics) != ("unreachable", "inflationary")
    ],
)
def test_closed_programs_never_ground(name, semantics, monkeypatch):
    case = DEDUCTIVE_CORPUS[name]
    database = edges_to_database(grid(3, 3))
    expected = run(
        case.program, database, semantics, ground_program=ground(case.program, database)
    )
    monkeypatch.setattr(engine, "ground", _never_ground)
    result = run(case.program, database, semantics)
    assert result.ground_program is None and result.is_total()
    for predicate in case.predicates:
        assert result.true_rows(predicate) == expected.true_rows(predicate)


def _decoded(ground_program):
    decode = ground_program.decode
    return {
        (decode(rule.head), tuple(map(decode, rule.pos)), tuple(map(decode, rule.neg)))
        for rule in ground_program.rules
    }


def test_only_the_cone_is_grounded_over_the_lower_model(monkeypatch):
    database = edges_to_database(grid(5, 5))
    calls = []

    def spy(program, facts, **kwargs):
        calls.append((program, facts))
        return ground(program, facts, **kwargs)

    monkeypatch.setattr(engine, "ground", spy)
    result = run(UNREACH_AND_WIN, database, "valid")
    [(grounded, facts)] = calls
    assert {rule.head.predicate for rule in grounded.rules} == {"win"}
    assert facts.predicates() == {"move"}  # the part of the lower model win reads
    # One rule family instead of five: what grounding win alone over the
    # lower model returns, and nothing headed by tc / node / unreach.
    lower = Database({p: result.true_rows(p) for p in ("move", "tc", "node", "unreach")})
    alone = _decoded(ground(Program(grounded.rules), lower))
    produced = _decoded(result.ground_program)
    assert produced == {rule for rule in alone if rule[0][0] in ("move", "win")}
    assert result.true_rows("unreach") == run(
        DEDUCTIVE_CORPUS["unreachable"].program, database, "stratified"
    ).true_rows("unreach")


def test_stratified_refuses_a_cone_before_firing_a_rule(monkeypatch):
    monkeypatch.setattr(JoinKernel, "fire", _never_ground)
    with pytest.raises(NotStratifiedError, match="win"):
        run(DEDUCTIVE_CORPUS["win-move"].program, edges_to_database(chain(4)), "stratified")
    with pytest.raises(NotStratifiedError, match="win"):
        run(UNREACH_AND_WIN, edges_to_database(chain(4)), "stratified")


def test_cone_is_computed_once_per_program():
    program = parse_program(DEDUCTIVE_CORPUS["double-negation"].source)
    database = edges_to_database(chain(4))
    run(program, database)
    before = engine._route.cache_info()
    # An equal program parsed afresh is the same key: rules are immutable.
    run(parse_program(DEDUCTIVE_CORPUS["double-negation"].source), database)
    after = engine._route.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)


def test_a_predicate_at_two_arities_under_a_cone():
    # ``m`` is closed and read by the cone at arities 1 and 2; a
    # Database keeps one arity per predicate, so the hand-off from the
    # direct model to the cone used to raise.
    program = parse_program(
        "m(0, 0) :- f(1).\nm(X) :- f(X).\nq(X) :- m(X), not q(X)."
    )
    database = Database().add("f", 1)
    for semantics in ("inflationary", "wellfounded", "valid"):
        routed = run(program, database, semantics)
        forced = run(program, database, semantics, ground_program=ground(program, database))
        for predicate in ("m", "q"):
            assert routed.true_rows(predicate) == forced.true_rows(predicate)
            assert routed.undefined_rows(predicate) == forced.undefined_rows(predicate)
    assert run(program, database, "valid").undefined_rows("q") == {(1,)}
