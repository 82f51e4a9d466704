"""Unit tests for the native three-valued ``algebra=`` evaluator."""

import pytest

from repro.core import NonTerminating, evaluate, evaluate_query
from repro.core.algebra_to_datalog import translation_registry
from repro.core.equivalence import algebra_answers_translated
from repro.core.expressions import (
    call,
    diff,
    ifp,
    map_,
    product,
    project,
    rel,
    select,
    setconst,
    union,
)
from repro.core.funcs import Apply, Arg, CompareTest, Lit
from repro.core.programs import AlgebraProgram, Definition, Dialect
from repro.core.valid_eval import EvalLimits, IfpThroughRecursion, valid_evaluate
from repro.datalog.semantics import Truth
from repro.relations import Atom, Relation, Universe, standard_registry, tup

a, b, c, d = (Atom(x) for x in "abcd")


def win_program():
    return AlgebraProgram.of(
        Definition(
            "WIN",
            (),
            project(
                diff(rel("MOVE"), product(project(rel("MOVE"), 1), call("WIN"))), 1
            ),
        ),
        database_relations=["MOVE"],
        dialect=Dialect.ALGEBRA_EQ,
    )


class TestParadoxes:
    def test_s_equals_a_minus_s_undefined(self):
        """Section 3.2: 'the membership status of a in S is undefined, and
        there is no initial valid model'."""
        program = AlgebraProgram.of(
            Definition("S", (), diff(setconst(a), call("S"))),
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(program, {})
        assert result.truth_of("S", a) is Truth.UNDEFINED
        assert not result.is_well_defined()

    def test_proposition_3_2_construction(self):
        """S' = σ_{EQ(x,a)}(S) − S' is undefined iff a ∈ S."""
        def program_with(base_members):
            return (
                AlgebraProgram.of(
                    Definition("S", (), setconst(*base_members)),
                    Definition(
                        "Sp",
                        (),
                        diff(
                            select(call("S"), CompareTest("=", Arg(), Lit(a))),
                            call("Sp"),
                        ),
                    ),
                    dialect=Dialect.ALGEBRA_EQ,
                )
            )

        with_a = valid_evaluate(program_with([a, b]), {})
        assert with_a.truth_of("Sp", a) is Truth.UNDEFINED
        without_a = valid_evaluate(program_with([b]), {})
        assert without_a.is_well_defined()
        assert len(without_a.true["Sp"]) == 0

    def test_double_subtraction_collapses(self):
        """S = A − (A − S) has the total model S = ∅ (membership
        inversion composes to the identity)."""
        program = AlgebraProgram.of(
            Definition("S", (), diff(rel("A"), diff(rel("A"), call("S")))),
            database_relations=["A"],
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(program, {"A": Relation.of(a, b, name="A")})
        assert result.is_well_defined()
        assert result.relation("S") == Relation.empty()


class TestWinGame:
    def test_acyclic_total(self):
        move = Relation.from_pairs([(a, b), (b, c), (c, d)], name="MOVE")
        result = valid_evaluate(win_program(), {"MOVE": move})
        assert result.is_well_defined()
        assert result.relation("WIN") == Relation.of(a, c)

    def test_self_loop_undefined(self):
        move = Relation.from_pairs([(a, a)], name="MOVE")
        result = valid_evaluate(win_program(), {"MOVE": move})
        assert result.truth_of("WIN", a) is Truth.UNDEFINED

    def test_cycle_with_escape_total(self):
        move = Relation.from_pairs([(a, b), (b, a), (b, c)], name="MOVE")
        result = valid_evaluate(win_program(), {"MOVE": move})
        # b can move to c (a sink), so b wins; a's only move is to the
        # winning b, so a loses. Everything is decided.
        assert result.is_well_defined()
        assert result.relation("WIN") == Relation.of(b)

    def test_empty_move(self):
        result = valid_evaluate(
            win_program(), {"MOVE": Relation.empty("MOVE")}
        )
        assert result.is_well_defined()
        assert len(result.relation("WIN")) == 0


class TestMonotonePrograms:
    def test_tc_total_and_correct(self):
        from repro.corpus import algebra_case, chain, edges_to_relation

        program = algebra_case("transitive-closure").program
        move = edges_to_relation(chain(5), "MOVE")
        from repro.core.algebra_to_datalog import translation_registry

        result = valid_evaluate(program, {"MOVE": move}, registry=translation_registry())
        assert result.is_well_defined()
        assert len(result.relation("TC")) == 10  # C(5,2) pairs along a chain

    def test_even_numbers_with_universe(self):
        """Example 3: S^e = {0} ∪ MAP_{+2}(S^e), bounded window."""
        program = AlgebraProgram.of(
            Definition(
                "Se", (), union(setconst(0), map_(call("Se"), Apply("add2", (Arg(),))))
            ),
            dialect=Dialect.ALGEBRA_EQ,
        )
        result = valid_evaluate(
            program, {}, registry=standard_registry(), universe=Universe(range(0, 11))
        )
        assert result.is_well_defined()
        assert set(result.true["Se"]) == {0, 2, 4, 6, 8, 10}
        assert result.truth_of("Se", 7) is Truth.FALSE

    def test_unbounded_generation_raises(self):
        program = AlgebraProgram.of(
            Definition(
                "Se", (), union(setconst(0), map_(call("Se"), Apply("add2", (Arg(),))))
            ),
            dialect=Dialect.ALGEBRA_EQ,
        )
        with pytest.raises(NonTerminating):
            valid_evaluate(
                program,
                {},
                registry=standard_registry(),
                limits=EvalLimits(max_rounds=20, max_values=100),
            )


class TestIfpHandling:
    def test_standalone_ifp_pre_evaluated(self):
        """An IFP that does not reach a recursive name is an ordinary
        IFP-algebra subquery (total, Theorem 3.1)."""
        move = Relation.from_pairs([(a, b), (b, c)], name="MOVE")
        tc_by_ifp = ifp("x", union(rel("MOVE"), rel("x")))
        program = AlgebraProgram.of(
            Definition("T", (), tc_by_ifp),
            Definition("S", (), union(call("T"), call("S"))),
            database_relations=["MOVE"],
            dialect=Dialect.IFP_ALGEBRA_EQ,
        )
        result = valid_evaluate(program, {"MOVE": move})
        assert result.is_well_defined()
        assert result.relation("T") == move

    def test_ifp_through_recursion_rejected(self):
        program = AlgebraProgram.of(
            Definition("S", (), ifp("x", union(rel("x"), call("S")))),
            dialect=Dialect.IFP_ALGEBRA_EQ,
        )
        with pytest.raises(IfpThroughRecursion):
            valid_evaluate(program, {})


class TestTwoValuedDialects:
    """``evaluate`` runs on the same compiled system: a non-recursive
    expression is one equation, an IFP a loop of its stages."""

    def test_inlined_call_does_not_capture_an_ifp_parameter(self):
        """``F(Y) = IFP[X. Y × {b}]`` called on the database relation
        ``X``: the argument must not be read as the IFP's own ``X``."""
        program = AlgebraProgram.of(
            Definition("F", ("Y",), ifp("X", product(rel("Y"), setconst(b)))),
            Definition("S", (), call("F", rel("X"))),
            database_relations=["X"],
            dialect=Dialect.IFP_ALGEBRA_EQ,
        )
        env = {"X": Relation.of(a, name="X")}
        registry = translation_registry()
        expected = {tup(a, b)}
        assert evaluate_query(program, "S", env, registry) == expected
        assert valid_evaluate(program, env, registry).true["S"] == expected
        translated = algebra_answers_translated(program, env, registry)["S"]
        assert translated.true == expected and not translated.undefined

    def test_nested_ifp_reads_the_outer_parameter(self):
        """``IFP[X. A ∪ IFP[Y. X]]``: the inner IFP is a closed query only
        once the outer stage binds ``X``."""
        program = AlgebraProgram.of(
            Definition("S", (), ifp("X", union(rel("A"), ifp("Y", rel("X"))))),
            database_relations=["A"],
            dialect=Dialect.IFP_ALGEBRA,
        )
        env = {"A": Relation.of(a, b, name="A")}
        assert valid_evaluate(program, env).true["S"] == {a, b}
        assert evaluate_query(program, "S", env) == {a, b}

    def test_nonrecursive_query_has_no_candidate_cap(self):
        """A non-recursive system always closes, so 250,000 pairs are an
        answer, not ``EvalLimits.max_values``' ``NonTerminating``."""
        atoms = Relation((Atom(f"v{i}") for i in range(500)), name="A")
        assert len(evaluate(product(rel("A"), rel("A")), {"A": atoms})) == 250_000


class TestResultApi:
    def test_relation_and_candidates(self):
        program = win_program()
        move = Relation.from_pairs([(a, b)], name="MOVE")
        result = valid_evaluate(program, {"MOVE": move})
        assert result.names() == {"WIN"}
        assert a in result.candidates["WIN"]
        assert result.relation("WIN").name == "WIN"

    def test_truth_outside_candidates_is_false(self):
        program = win_program()
        move = Relation.from_pairs([(a, b)], name="MOVE")
        result = valid_evaluate(program, {"MOVE": move})
        assert result.truth_of("WIN", Atom("zzz")) is Truth.FALSE
