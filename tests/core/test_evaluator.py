"""Unit tests for the two-valued algebra/IFP-algebra evaluator."""

import pytest

from repro.core import NonTerminating, RecursionNotSupported, evaluate, evaluate_query
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
from repro.core.funcs import Apply, Arg, Comp, CompareTest, Lit, MkTup
from repro.core.programs import AlgebraProgram, Definition, Dialect
from repro.relations import Atom, Relation, standard_registry, tup

a, b, c, d = (Atom(x) for x in "abcd")


class TestBasicOperators:
    def test_relvar(self):
        assert evaluate(rel("A"), {"A": Relation.of(a)}) == Relation.of(a)

    def test_unbound_relvar(self):
        with pytest.raises(KeyError):
            evaluate(rel("A"), {})

    def test_setconst(self):
        assert evaluate(setconst(a, 1), {}) == Relation.of(a, 1)

    def test_union_diff_product(self):
        env = {"A": Relation.of(a, b), "B": Relation.of(b, c)}
        assert evaluate(union(rel("A"), rel("B")), env) == Relation.of(a, b, c)
        assert evaluate(diff(rel("A"), rel("B")), env) == Relation.of(a)
        assert evaluate(product(rel("A"), rel("B")), env) == Relation.of(
            tup(a, b), tup(a, c), tup(b, b), tup(b, c)
        )

    def test_select(self):
        env = {"A": Relation.of(1, 2, 3)}
        expr = select(rel("A"), CompareTest(">", Arg(), Lit(1)))
        assert evaluate(expr, env) == Relation.of(2, 3)

    def test_map(self):
        env = {"A": Relation.of(1, 2)}
        expr = map_(rel("A"), Apply("double", (Arg(),)))
        assert evaluate(expr, env, standard_registry()) == Relation.of(2, 4)

    def test_map_drops_undefined(self):
        env = {"A": Relation.of(0, 3)}
        expr = map_(rel("A"), Apply("pred", (Arg(),)))
        assert evaluate(expr, env, standard_registry()) == Relation.of(2)

    def test_project(self):
        env = {"R": Relation.of(tup(a, b), tup(c, d))}
        assert evaluate(project(rel("R"), 2), env) == Relation.of(b, d)


class TestIfp:
    def test_transitive_closure(self):
        move = Relation.of(tup(a, b), tup(b, c), tup(c, d))
        join = map_(
            select(
                product(rel("MOVE"), rel("x")),
                CompareTest("=", Comp(Comp(Arg(), 1), 2), Comp(Comp(Arg(), 2), 1)),
            ),
            MkTup((Comp(Comp(Arg(), 1), 1), Comp(Comp(Arg(), 2), 2))),
        )
        tc = ifp("x", union(rel("MOVE"), join))
        result = evaluate(tc, {"MOVE": move})
        assert tup(a, d) in result
        assert len(result) == 6

    def test_example4_nonpositive(self):
        """IFP_{{a}−x} = {a} (the inflationary reading, Section 3.2)."""
        expr = ifp("x", diff(setconst(a), rel("x")))
        assert evaluate(expr, {}) == Relation.of(a)

    def test_nested_double_subtraction_is_empty(self):
        """IFP of exp(x) = A − (A − x) from ∅: exp(∅) = ∅, fixpoint ∅."""
        env = {"A": Relation.of(a, b)}
        expr = ifp("x", diff(rel("A"), diff(rel("A"), rel("x"))))
        assert evaluate(expr, env) == Relation.empty()

    def test_divergence_detected(self):
        registry = standard_registry()
        expr = ifp("x", union(setconst(0), map_(rel("x"), Apply("succ", (Arg(),)))))
        with pytest.raises(NonTerminating):
            evaluate(expr, {}, registry, max_iterations=50)

    def test_bounded_generation_converges(self):
        registry = standard_registry()
        grow = map_(
            select(rel("x"), CompareTest("<", Arg(), Lit(10))),
            Apply("add2", (Arg(),)),
        )
        expr = ifp("x", union(setconst(0), grow))
        result = evaluate(expr, {}, registry)
        assert result == Relation.of(0, 2, 4, 6, 8, 10)

    def test_param_scoping(self):
        outer = ifp("x", union(setconst(a), ifp("x", rel("x"))))
        assert evaluate(outer, {}) == Relation.of(a)


class TestCalls:
    def test_nonrecursive_call(self):
        inter = Definition("inter", ("s", "t"), diff(rel("s"), diff(rel("s"), rel("t"))))
        program = AlgebraProgram.of(inter, database_relations=["A", "B"])
        env = {"A": Relation.of(a, b), "B": Relation.of(b, c)}
        result = evaluate(call("inter", rel("A"), rel("B")), env, program=program)
        assert result == Relation.of(b)

    def test_recursive_call_rejected(self):
        program = AlgebraProgram.of(
            Definition("S", (), union(setconst(a), call("S"))),
            dialect=Dialect.ALGEBRA_EQ,
        )
        with pytest.raises(RecursionNotSupported):
            evaluate(call("S"), {}, program=program)

    def test_call_without_program_rejected(self):
        with pytest.raises(RecursionNotSupported):
            evaluate(call("f"), {})

    def test_evaluate_query(self):
        program = AlgebraProgram.of(
            Definition("Q", (), union(setconst(a), setconst(b)))
        )
        result = evaluate_query(program, "Q", {})
        assert result == Relation.of(a, b)
        assert result.name == "Q"

    def test_evaluate_query_must_be_constant(self):
        program = AlgebraProgram.of(Definition("f", ("x",), rel("x")))
        with pytest.raises(ValueError):
            evaluate_query(program, "f", {})
