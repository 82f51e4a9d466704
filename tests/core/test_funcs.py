"""Unit tests for the MAP/σ function languages."""

import pytest

from repro.core.funcs import (
    AndTest,
    Apply,
    Arg,
    Comp,
    CompareTest,
    Lit,
    MkTup,
    NotTest,
    OrTest,
    TrueTest,
    compile_scalar,
    compile_selection,
    compile_test,
    component,
    eval_scalar,
    eval_test,
    pair,
)
from repro.relations import Atom, Tup, standard_registry, tup
from repro.relations.universe import translation_registry

a, b = Atom("a"), Atom("b")


class TestScalars:
    def test_arg_is_identity(self):
        assert eval_scalar(Arg(), a) == a

    def test_lit(self):
        assert eval_scalar(Lit(7), a) == 7

    def test_component(self):
        assert eval_scalar(component(2), tup(a, b)) == b

    def test_nested_components(self):
        member = tup(tup(1, 2), 3)
        assert eval_scalar(Comp(component(1), 2), member) == 2

    def test_component_off_tuple_is_undefined(self):
        assert eval_scalar(component(1), a) is None

    def test_component_out_of_range_is_undefined(self):
        assert eval_scalar(component(3), tup(a, b)) is None

    def test_component_index_validated(self):
        with pytest.raises(ValueError):
            Comp(Arg(), 0)

    def test_mktup(self):
        expr = MkTup((component(2), component(1)))
        assert eval_scalar(expr, tup(a, b)) == tup(b, a)

    def test_mktup_undefined_propagates(self):
        expr = MkTup((component(3), component(1)))
        assert eval_scalar(expr, tup(a, b)) is None

    def test_apply(self):
        registry = standard_registry()
        assert eval_scalar(Apply("add2", (Arg(),)), 5, registry) == 7

    def test_apply_partial(self):
        registry = standard_registry()
        assert eval_scalar(Apply("pred", (Arg(),)), 0, registry) is None

    def test_apply_needs_registry(self):
        with pytest.raises(KeyError):
            eval_scalar(Apply("add2", (Arg(),)), 5, None)

    def test_pair_helper(self):
        assert eval_scalar(pair(Arg(), Lit(1)), a) == tup(a, 1)

    def test_lit_must_be_value(self):
        with pytest.raises(TypeError):
            Lit(object())


class TestTests:
    def test_true_test(self):
        assert eval_test(TrueTest(), a)

    def test_equality(self):
        test = CompareTest("=", component(1), component(2))
        assert eval_test(test, tup(a, a))
        assert not eval_test(test, tup(a, b))

    def test_order(self):
        test = CompareTest("<", Arg(), Lit(5))
        assert eval_test(test, 3)
        assert not eval_test(test, 7)

    def test_order_incomparable_is_false(self):
        test = CompareTest("<", Arg(), Lit(5))
        assert not eval_test(test, a)

    def test_undefined_operand_is_false(self):
        test = CompareTest("=", component(1), Lit(1))
        assert not eval_test(test, 42)  # not a tuple

    def test_connectives(self):
        gt1 = CompareTest(">", Arg(), Lit(1))
        lt5 = CompareTest("<", Arg(), Lit(5))
        assert eval_test(AndTest(gt1, lt5), 3)
        assert not eval_test(AndTest(gt1, lt5), 7)
        assert eval_test(OrTest(gt1, lt5), 7)
        assert eval_test(NotTest(gt1), 0)

    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError):
            CompareTest("~", Arg(), Arg())


class TestKleeneNegation:
    """An undefined comparison selects nothing at either polarity: ``¬``
    reads it as its complement, which is undefined there too."""

    def test_negated_undefined_operand_is_false(self):
        test = NotTest(CompareTest("=", component(1), Lit(1)))
        assert not eval_test(test, 42)  # no first component
        assert eval_test(test, tup(2, 0))
        assert not eval_test(test, tup(1, 0))

    def test_negated_incomparable_order_is_false(self):
        test = NotTest(CompareTest("<", Arg(), Lit(5)))
        assert not eval_test(test, a)
        assert eval_test(test, 7)
        assert not eval_test(test, 3)

    def test_negation_goes_through_the_connectives(self):
        undefined_on_ints = CompareTest("=", component(1), Lit(1))
        gt1 = CompareTest(">", Arg(), Lit(1))
        # ¬(U ∧ T) is U, ¬(U ∧ F) is T; ¬(U ∨ F) is U, ¬(U ∨ T) is F.
        assert not eval_test(NotTest(AndTest(undefined_on_ints, gt1)), 42)
        assert eval_test(NotTest(AndTest(undefined_on_ints, gt1)), 0)
        assert not eval_test(NotTest(OrTest(undefined_on_ints, gt1)), 0)
        assert not eval_test(NotTest(OrTest(undefined_on_ints, gt1)), 42)
        assert not eval_test(NotTest(TrueTest()), a)

    def test_a_subtractions_negation_takes_out_only_the_complement(self):
        test = NotTest(CompareTest("=", component(1), Lit(1)))
        selected = compile_selection(test)
        kept = compile_selection(test, negated=True)
        for member in (tup(2, 0), tup(1, 0)):  # defined: the two agree
            assert kept(member) == selected(member)
        assert not selected(42) and kept(42)  # undefined: in neither way

    def test_double_negation_is_the_test(self):
        test = CompareTest("=", component(1), Lit(1))
        for member in (42, tup(1, 0), tup(2, 0)):
            assert eval_test(NotTest(NotTest(test)), member) == eval_test(test, member)


class TestCompiled:
    def test_a_compiled_test_is_applied_per_member(self):
        test = compile_test(
            AndTest(CompareTest(">", Arg(), Lit(1)), CompareTest("<", Arg(), Lit(5)))
        )
        assert [n for n in range(8) if test(n)] == [2, 3, 4]

    def test_a_compiled_scalar_is_applied_per_member(self):
        registry = standard_registry()
        scalar = compile_scalar(
            MkTup((Apply("succ", (component(1),)), component(2))), registry
        )
        assert scalar(tup(1, a)) == tup(2, a)
        assert scalar(tup(a, a)) is None  # succ is undefined off naturals
        assert scalar(a) is None

    def test_an_unknown_function_fails_when_first_applied(self):
        scalar = compile_scalar(Apply("nosuch", (component(1),)), standard_registry())
        assert scalar(a) is None  # its argument is undefined: never applied
        with pytest.raises(KeyError, match="nosuch"):
            scalar(tup(a, b))

    def test_components_read_directly(self):
        registry = translation_registry()
        second = compile_scalar(Apply("comp2", (Arg(),)), registry)
        assert second(tup(a, b)) == b
        assert second(a) is None
        assert second(tup(a,)) is None
        assert registry.get("comp1").apply((tup(a, b),)) == a
        assert registry.get("comp3").apply((tup(a, b),)) is None
        with pytest.raises(ValueError):
            registry.get("comp1").apply((a, b))
