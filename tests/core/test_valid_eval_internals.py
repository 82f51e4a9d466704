"""White-box tests for the native evaluator's machinery.

The behaviours here — candidate over-approximation, universe filtering of
MAP images, evaluation limits, the solve per component of the membership
graph, and the positive-dependency analysis behind the reference
evaluator's derivation loop — are load-bearing for every result in the
test suite but are otherwise only exercised indirectly.
"""

import pytest

from repro.core.evaluator import NonTerminating
from repro.core.expressions import call, diff, map_, product, rel, select, setconst, union
from repro.core.funcs import Apply, Arg, Comp, CompareTest, Lit
from repro.core.programs import AlgebraProgram, Definition, Dialect
from repro.core.valid_eval import EvalLimits, valid_evaluate
from repro.relations import Atom, Relation, Tup, Universe, standard_registry, tup

from ..property.valid_eval_reference import _positive_call_names

a, b, c = Atom("a"), Atom("b"), Atom("c")


class TestPositiveCallNames:
    def test_plain_positive(self):
        assert _positive_call_names(union(call("S"), rel("A"))) == {"S"}

    def test_subtracted_is_not_positive(self):
        assert _positive_call_names(diff(rel("A"), call("S"))) == frozenset()

    def test_double_subtraction_flips_back(self):
        expr = diff(rel("A"), diff(rel("A"), call("S")))
        assert _positive_call_names(expr) == {"S"}

    def test_mixed_occurrences(self):
        expr = union(call("S"), diff(rel("A"), call("T")))
        assert _positive_call_names(expr) == {"S"}


class TestCandidates:
    def test_candidates_ignore_subtraction(self):
        """The over-approximation treats Diff as its left side, so the
        candidate pool of S = A − S is all of A."""
        program = AlgebraProgram.of(
            Definition("S", (), diff(rel("A"), call("S"))),
            database_relations=["A"],
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(program, {"A": Relation.of(a, b, name="A")})
        assert result.candidates["S"] == frozenset({a, b})

    def test_product_candidates_are_pairs(self):
        program = AlgebraProgram.of(
            Definition("S", (), product(rel("A"), rel("B"))),
            database_relations=["A", "B"],
            dialect=Dialect.ALGEBRA_EQ,
        )
        env = {"A": Relation.of(a, name="A"), "B": Relation.of(b, name="B")}
        result = valid_evaluate(program, env)
        assert result.candidates["S"] == frozenset({tup(a, b)})

    def test_select_prunes_candidates(self):
        program = AlgebraProgram.of(
            Definition(
                "S", (), select(rel("A"), CompareTest("<", Arg(), Lit(3)))
            ),
            database_relations=["A"],
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(program, {"A": Relation.of(1, 2, 3, 4, name="A")})
        assert result.candidates["S"] == frozenset({1, 2})


class TestLimitsAndUniverse:
    def test_max_values_guard(self):
        program = AlgebraProgram.of(
            Definition(
                "S",
                (),
                union(setconst(0), map_(call("S"), Apply("succ", (Arg(),)))),
            ),
            dialect=Dialect.ALGEBRA_EQ,
        )
        with pytest.raises(NonTerminating, match="exceeded"):
            valid_evaluate(
                program,
                {},
                registry=standard_registry(),
                limits=EvalLimits(max_rounds=10_000, max_values=50),
            )

    def test_max_rounds_guard(self):
        program = AlgebraProgram.of(
            Definition(
                "S",
                (),
                union(setconst(0), map_(call("S"), Apply("succ", (Arg(),)))),
            ),
            dialect=Dialect.ALGEBRA_EQ,
        )
        with pytest.raises(NonTerminating, match="converge"):
            valid_evaluate(
                program,
                {},
                registry=standard_registry(),
                limits=EvalLimits(max_rounds=5, max_values=10_000),
            )

    def test_universe_filters_map_images(self):
        """MAP images outside the window never become candidates."""
        program = AlgebraProgram.of(
            Definition(
                "S",
                (),
                union(setconst(0), map_(call("S"), Apply("succ", (Arg(),)))),
            ),
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(
            program, {}, registry=standard_registry(), universe=Universe(range(4))
        )
        assert result.candidates["S"] == frozenset({0, 1, 2, 3})
        assert set(result.true["S"]) == {0, 1, 2, 3}

    def test_rounds_reported(self):
        """``rounds`` is the most alternation rounds one component of the
        membership graph took."""

        def rounds(*definitions):
            program = AlgebraProgram.of(*definitions, dialect=Dialect.ALGEBRA_EQ)
            return valid_evaluate(program, {}).rounds

        # One membership, read by nothing: one evaluation.
        assert rounds(Definition("S", (), setconst(a))) == 1
        # No candidate membership at all.
        assert rounds(Definition("S", (), setconst())) == 0
        # S(a) reads itself: one round leaves it undefined.
        assert rounds(Definition("S", (), diff(setconst(a), call("S")))) == 1
        # S(a) and T(a) read each other; T(a) is false whatever S says, so
        # S(a) comes true in the first round and the second confirms it.
        assert (
            rounds(
                Definition("S", (), diff(setconst(a), call("T"))),
                Definition("T", (), diff(diff(setconst(a), call("S")), setconst(a))),
            )
            == 2
        )


class TestMultiEquationInteraction:
    def test_chain_of_dependencies(self):
        """T reads S positively; U subtracts T: three strata in one
        system, everything decided."""
        program = AlgebraProgram.of(
            Definition("S", (), setconst(a, b)),
            Definition("T", (), union(call("S"), setconst(c))),
            Definition("U", (), diff(call("T"), call("S"))),
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(program, {})
        assert result.is_well_defined()
        assert set(result.true["U"]) == {c}

    def test_undefinedness_propagates_but_only_where_needed(self):
        """P depends on the paradoxical S; Q does not and stays decided."""
        program = AlgebraProgram.of(
            Definition("S", (), diff(setconst(a), call("S"))),
            Definition("P", (), union(call("S"), setconst(b))),
            Definition("Q", (), setconst(c)),
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(program, {})
        assert a in result.undefined["S"]
        assert a in result.undefined["P"]  # inherited
        assert b in result.true["P"]       # the decided part survives
        assert result.undefined["Q"] == frozenset()


@pytest.fixture
def instances(monkeypatch):
    """Counts the rule instances every kernel firing reports."""
    from repro.datalog.kernel import JoinKernel

    fired = []
    fire = JoinKernel.fire

    def counting(self, *args, **kwargs):
        produced = fire(self, *args, **kwargs)
        fired.append(len(produced))
        return produced

    monkeypatch.setattr(JoinKernel, "fire", counting)
    return fired


class TestCandidateWork:
    """The candidate pass costs its output — counts, not seconds."""

    def test_select_over_product_is_a_join(self, instances, monkeypatch):
        """σ[x.1.2 = x.2.1](E × E) over 300 chain edges: 299 matches out
        of 90,000 pairs.  The compiled pass keys both sides and builds a
        pair per match; the walk it replaced builds all of them."""
        from repro.corpus import chain, edges_to_relation

        from ..property import valid_eval_reference as reference

        edges = edges_to_relation(chain(301), "E")
        joined = select(
            product(rel("E"), rel("E")),
            CompareTest("=", Comp(Comp(Arg(), 1), 2), Comp(Comp(Arg(), 2), 1)),
        )
        program = AlgebraProgram.of(
            Definition("S", (), joined),
            database_relations=["E"],
            dialect=Dialect.ALGEBRA_EQ,
        )
        built = []
        validate = Tup.__post_init__

        def counting(self):
            built.append(1)
            validate(self)

        monkeypatch.setattr(Tup, "__post_init__", counting)
        result = valid_evaluate(program, {"E": edges})
        matches = len(result.true["S"])
        assert (len(edges), matches) == (300, 299)
        assert sum(instances) <= 2 * len(edges) + 2 * matches
        assert len(built) == matches

        del built[:]
        slow = reference.reference_valid_evaluate(program, {"E": edges})
        assert slow.true == result.true and slow.candidates == result.candidates
        assert len(built) >= len(edges) ** 2

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_closure_fires_in_proportion_to_its_output(self, instances, n):
        """TC over chain(n): each of the n(n−1)/2 pairs is keyed, joined
        and read once — not re-derived in each of the n naive rounds."""
        from repro.core.algebra_to_datalog import translation_registry
        from repro.corpus import algebra_case, chain, edges_to_relation

        program = algebra_case("transitive-closure").program
        result = valid_evaluate(
            program,
            {"MOVE": edges_to_relation(chain(n), "MOVE")},
            registry=translation_registry(),
        )
        closure = len(result.true["TC"])
        assert closure == n * (n - 1) // 2
        assert sum(instances) <= 4 * closure + 2 * n


class TestAlternationWork:
    """The alternation costs the memberships, not memberships × depth."""

    def test_acyclic_game_is_linear(self, monkeypatch):
        """Win-game over an *n*-move chain: every position is a component
        of its own, decided by one evaluation per pass, so doubling the
        chain doubles the ``holds`` calls.  Alternating the whole system
        made ~n rounds of ~n calls: 3.96x here."""
        from repro.core import valid_eval
        from repro.core.algebra_to_datalog import translation_registry
        from repro.corpus import algebra_case, chain, edges_to_relation

        calls = []
        holds = valid_eval._System.holds

        def counting(self, *args):
            calls.append(1)
            return holds(self, *args)

        monkeypatch.setattr(valid_eval._System, "holds", counting)
        program = algebra_case("win-game").program
        counts = []
        for n in (24, 48):
            del calls[:]
            valid_evaluate(
                program,
                {"MOVE": edges_to_relation(chain(n), "MOVE")},
                registry=translation_registry(),
            )
            counts.append(len(calls))
        assert counts[1] <= 2.5 * counts[0], counts


class TestStableCompilesOnce:
    def test_one_candidate_pass_per_call(self, monkeypatch):
        """stable_set_models needs the valid model and the system it came
        from: one compile and one candidate closure serve both."""
        from repro.core import valid_eval
        from repro.core.stable_algebra import stable_set_models

        passes = []
        close = valid_eval._System._close

        def counting(self, compiler, limits):
            passes.append(len(compiler.rules))
            return close(self, compiler, limits)

        monkeypatch.setattr(valid_eval._System, "_close", counting)
        program = AlgebraProgram.of(
            Definition("P", (), diff(rel("A"), call("Q"))),
            Definition("Q", (), diff(rel("A"), call("P"))),
            database_relations=["A"],
            dialect=Dialect.ALGEBRA_EQ,
        )
        models = stable_set_models(program, {"A": Relation.of(a, name="A")})
        assert len(models) == 2
        assert len(passes) == 1
