"""Unit tests: well-founded, valid, and stable semantics."""

import pytest

from repro.corpus import DEDUCTIVE_CORPUS, chain, cycle, edges_to_database, random_graph
from repro.datalog import Database, ground
from repro.datalog.parser import parse_program
from repro.datalog.semantics import (
    Truth,
    TooManyChoiceAtoms,
    alternating_fixpoint_trace,
    inflationary_fixpoint,
    is_stable_model,
    stable_models,
    valid_computation_trace,
    valid_model,
    well_founded_model,
)
from repro.relations import Atom

a, b, c = Atom("a"), Atom("b"), Atom("c")


class TestWellFounded:
    def test_win_chain(self):
        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, edges_to_database(chain(4)))
        wfs = well_founded_model(gp)
        wins = wfs.true_rows(gp, "win")
        assert wins == {(Atom("n0"),), (Atom("n2"),)}
        assert wfs.is_total_for(gp)

    def test_self_loop_undefined(self):
        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, Database().add("move", a, a))
        wfs = well_founded_model(gp)
        assert wfs.undefined_rows(gp, "win") == {(a,)}

    def test_even_cycle_undefined(self):
        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, edges_to_database(cycle(2)))
        wfs = well_founded_model(gp)
        assert len(wfs.undefined_rows(gp, "win")) == 2

    def test_odd_cycle_with_escape(self):
        # a→b→c→a plus c→d: d loses, so c wins, so b loses, so a wins.
        program = DEDUCTIVE_CORPUS["win-move"].program
        db = edges_to_database(cycle(3)).add("move", Atom("n2"), Atom("d"))
        gp = ground(program, db)
        wfs = well_founded_model(gp)
        assert wfs.true_rows(gp, "win") == {(Atom("n2"),), (Atom("n0"),)}
        assert wfs.is_total_for(gp)

    def test_alternating_trace_monotone(self):
        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, edges_to_database(random_graph(6, 0.3, seed=3)))
        trace = alternating_fixpoint_trace(gp)
        for (t1, o1), (t2, o2) in zip(trace, trace[1:]):
            assert t1 <= t2
            assert o2 <= o1


class TestValid:
    def test_matches_wellfounded_on_corpus(self):
        """The Section 2.2 computation and the independent alternating
        fixpoint implementation agree program by program."""
        from repro.core.algebra_to_datalog import translation_registry

        registry = translation_registry()
        for case in DEDUCTIVE_CORPUS.values():
            if case.uses_functions:
                continue
            for edges in (chain(5), cycle(4), random_graph(5, 0.35, seed=7)):
                gp = ground(case.program, edges_to_database(edges), registry=registry)
                assert valid_model(gp).agrees_with(well_founded_model(gp)), case.name

    def test_false_set_grows(self):
        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, edges_to_database(chain(5)))
        steps = valid_computation_trace(gp)
        for earlier, later in zip(steps, steps[1:]):
            assert earlier.false <= later.false
            assert earlier.true <= later.true

    def test_example4_valid_undefined(self):
        """Example 4: under valid semantics Q(a) is neither true nor false."""
        program = parse_program("r(a).\nq(X) :- r(X), not q(X).")
        gp = ground(program, Database())
        interp = valid_model(gp)
        assert interp.value_of(gp.atom_id("q", (a,))) is Truth.UNDEFINED

    def test_three_valued_accessors(self):
        program = parse_program("p :- not q.\nq :- not p.\nr :- p.\nr :- q.")
        gp = ground(program, Database())
        interp = valid_model(gp)
        assert interp.undefined_rows(gp, "p") == {()}
        assert interp.undefined_rows(gp, "r") == {()}
        assert not interp.is_total_for(gp)


class TestWorkByComponent:
    """Both solvers run per component of the atom graph: on an acyclic
    game every position is decided once, so the work is linear in the
    chain.  Alternating the whole program took ~n rounds over all n
    positions: 3.96x the budget steps for twice the chain."""

    @pytest.mark.parametrize("solve", [valid_model, well_founded_model])
    def test_steps_double_with_the_chain(self, solve):
        from repro.robustness import EvaluationBudget

        program = DEDUCTIVE_CORPUS["win-move"].program
        steps = []
        for n in (64, 128):
            budget = EvaluationBudget()
            solve(ground(program, edges_to_database(chain(n))), budget)
            steps.append(budget.progress.steps)
        assert steps[1] <= 2.5 * steps[0], steps


class TestStable:
    def test_choice_program_two_models(self):
        program = parse_program("p :- not q.\nq :- not p.")
        gp = ground(program, Database())
        models = stable_models(gp)
        assert len(models) == 2
        names = [
            {gp.decode(atom)[0] for atom in model.true} for model in models
        ]
        assert {"p"} in names and {"q"} in names

    def test_odd_loop_no_models(self):
        program = parse_program("p :- not p.")
        gp = ground(program, Database())
        assert stable_models(gp) == []

    def test_stratified_unique_model(self):
        case = DEDUCTIVE_CORPUS["unreachable"]
        gp = ground(case.program, edges_to_database(chain(4)))
        models = stable_models(gp)
        assert len(models) == 1
        assert models[0].true == well_founded_model(gp).true

    def test_wfs_true_in_every_stable_model(self):
        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, edges_to_database(random_graph(5, 0.4, seed=5)))
        wfs = well_founded_model(gp)
        for model in stable_models(gp):
            assert wfs.true <= model.true
            assert not (wfs.false & model.true)

    def test_is_stable_model_checker(self):
        program = parse_program("p :- not q.\nq :- not p.")
        gp = ground(program, Database())
        p_id = gp.atom_id("p", ())
        q_id = gp.atom_id("q", ())
        assert is_stable_model(gp, frozenset({p_id}))
        assert not is_stable_model(gp, frozenset({p_id, q_id}))
        assert not is_stable_model(gp, frozenset())

    def test_choice_budget(self):
        rules = "\n".join(
            f"p{i} :- not q{i}.\nq{i} :- not p{i}." for i in range(12)
        )
        gp = ground(parse_program(rules), Database())
        with pytest.raises(TooManyChoiceAtoms):
            stable_models(gp, max_choice_atoms=4)

    def test_win_even_cycle_two_stable_models(self):
        program = DEDUCTIVE_CORPUS["win-move"].program
        gp = ground(program, edges_to_database(cycle(2)))
        models = stable_models(gp)
        assert len(models) == 2
