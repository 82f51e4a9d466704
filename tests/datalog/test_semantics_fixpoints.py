"""Unit tests: minimal model, stratified, and inflationary semantics."""

import pytest

from repro.corpus import DEDUCTIVE_CORPUS, chain, cycle, edges_to_database
from repro.datalog import Database, ground
from repro.datalog.parser import parse_program
from repro.datalog.semantics import (
    PositiveProgramRequired,
    inflationary_fixpoint,
    inflationary_model,
    inflationary_stages,
    least_model_with_oracle,
    minimal_model,
    stratified_model,
)
from repro.relations import Atom

from .least_model_reference import least_model_naive

a, b, c = Atom("a"), Atom("b"), Atom("c")


def _rows(gp, atoms, predicate):
    return {gp.decode(i)[1] for i in atoms if gp.decode(i)[0] == predicate}


class TestMinimalModel:
    def test_tc_chain(self):
        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        gp = ground(program, edges_to_database(chain(4)))
        model = minimal_model(gp)
        tc = _rows(gp, model, "tc")
        assert len(tc) == 6  # all ordered pairs along the chain

    def test_rejects_negation(self):
        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, edges_to_database(chain(3)))
        with pytest.raises(PositiveProgramRequired):
            minimal_model(gp)

    def test_naive_and_counting_agree(self):
        program = DEDUCTIVE_CORPUS["same-generation"].program
        gp = ground(program, edges_to_database(chain(5)))
        oracle = lambda _a: True
        assert least_model_naive(gp.rules, oracle) == least_model_with_oracle(
            gp.rules, oracle
        )

    def test_oracle_blocks_rules(self):
        program = parse_program("p(X) :- e(X), not q(X).")
        gp = ground(program, Database().add("e", a).add("q", a))
        q_id = gp.atom_id("q", (a,))
        allowed = least_model_with_oracle(gp.rules, lambda atom: True)
        blocked = least_model_with_oracle(gp.rules, lambda atom: atom != q_id)
        assert gp.atom_id("p", (a,)) in allowed
        assert gp.atom_id("p", (a,)) not in blocked

    def test_duplicate_body_atom_counted_correctly(self):
        program = parse_program("p :- e(X), e(X).")
        gp = ground(program, Database().add("e", a))
        model = minimal_model(gp)
        assert gp.atom_id("p", ()) in model


class TestStratified:
    def test_unreachable(self):
        case = DEDUCTIVE_CORPUS["unreachable"]
        gp = ground(case.program, edges_to_database(chain(3)))
        interp = stratified_model(case.program, gp)
        unreach = interp.true_rows(gp, "unreach")
        # n2 cannot reach anything; nothing reaches n0.
        assert (Atom("n2"), Atom("n0")) in unreach
        assert (Atom("n0"), Atom("n2")) not in unreach

    def test_total(self):
        case = DEDUCTIVE_CORPUS["unreachable"]
        gp = ground(case.program, edges_to_database(cycle(4)))
        interp = stratified_model(case.program, gp)
        assert interp.is_total_for(gp)

    def test_agrees_with_wellfounded_on_stratified_corpus(self):
        from repro.core.algebra_to_datalog import translation_registry
        from repro.datalog.semantics import well_founded_model

        registry = translation_registry()
        for case in DEDUCTIVE_CORPUS.values():
            if not case.stratified or case.uses_functions:
                continue
            gp = ground(case.program, edges_to_database(chain(4)), registry=registry)
            strat = stratified_model(case.program, gp)
            wfs = well_founded_model(gp)
            assert strat.true == wfs.true, case.name

    def test_raises_on_unstratified(self):
        from repro.datalog.stratification import NotStratifiedError

        case = DEDUCTIVE_CORPUS["win-move"]
        gp = ground(case.program, edges_to_database(chain(3)))
        with pytest.raises(NotStratifiedError):
            stratified_model(case.program, gp)


class TestInflationary:
    def test_stages_grow(self):
        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        gp = ground(program, edges_to_database(chain(5)))
        stages = inflationary_stages(gp)
        for earlier, later in zip(stages, stages[1:]):
            assert earlier < later

    def test_example4_behaviour(self):
        """R(a); R(x) ∧ ¬Q(x) → Q(x): inflationary derives Q(a)."""
        program = parse_program("r(a).\nq(X) :- r(X), not q(X).")
        gp = ground(program, Database())
        fixpoint = inflationary_fixpoint(gp)
        assert gp.atom_id("q", (a,)) in fixpoint

    def test_win_move_inflationary_differs_from_valid(self):
        from repro.datalog.semantics import valid_model

        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, edges_to_database(chain(4)))
        inflat = inflationary_fixpoint(gp)
        valid = valid_model(gp)
        # Valid makes exactly the game-theoretic wins; inflationary
        # over-derives on chains (negation read as "not yet").
        assert valid.true < inflat

    def test_total_interpretation(self):
        program = parse_program("p(X) :- e(X).")
        gp = ground(program, Database().add("e", a))
        assert inflationary_model(gp).is_total_for(gp)

    def test_positive_program_matches_minimal_model(self):
        program = DEDUCTIVE_CORPUS["same-generation"].program
        gp = ground(program, edges_to_database(chain(4)))
        assert inflationary_fixpoint(gp) == minimal_model(gp)
