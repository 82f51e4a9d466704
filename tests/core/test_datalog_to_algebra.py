"""Unit tests for the deduction → algebra translation (Proposition 6.1)."""

import pytest

from repro.core.algebra_to_datalog import translation_registry
from repro.core.datalog_to_algebra import datalog_to_algebra, rule_to_expression
from repro.core.encoding import UNIT, database_to_environment
from repro.core.evaluator import evaluate
from repro.core.expressions import Call, RelVar
from repro.core.programs import Dialect
from repro.core.valid_eval import valid_evaluate
from repro.datalog import Database
from repro.datalog.grounding import UnsafeRuleError
from repro.datalog.parser import parse_program, parse_rule
from repro.relations import Atom, Relation, tup

a, b, c = Atom("a"), Atom("b"), Atom("c")


class TestRuleToExpression:
    def _eval(self, source, env, idb=frozenset(), arities=None):
        rule = parse_rule(source)
        program = parse_program(source)
        arities = arities or program.arities()
        expr = rule_to_expression(rule, frozenset(idb), arities)
        return evaluate(expr, env, registry=translation_registry())

    def test_single_literal(self):
        env = {"e": Relation.of(a, b, name="e")}
        assert self._eval("p(X) :- e(X).", env) == Relation.of(a, b)

    def test_join(self):
        env = {"e": Relation.of(tup(a, b), tup(b, c), name="e")}
        result = self._eval("p(X, Z) :- e(X, Y), e(Y, Z).", env)
        assert result == Relation.of(tup(a, c))

    def test_constant_in_literal(self):
        env = {"e": Relation.of(tup(a, b), tup(b, c), name="e")}
        assert self._eval("p(X) :- e(a, X).", env) == Relation.of(b)

    def test_repeated_variable(self):
        env = {"e": Relation.of(tup(a, a), tup(a, b), name="e")}
        assert self._eval("p(X) :- e(X, X).", env) == Relation.of(a)

    def test_negative_literal(self):
        env = {
            "e": Relation.of(a, b, name="e"),
            "q": Relation.of(b, name="q"),
        }
        assert self._eval("p(X) :- e(X), not q(X).", env) == Relation.of(a)

    def test_negative_binary_literal(self):
        env = {
            "e": Relation.of(a, b, name="e"),
            "r": Relation.of(tup(a, b), name="r"),
        }
        result = self._eval("p(X, Y) :- e(X), e(Y), not r(X, Y).", env)
        assert tup(a, b) not in result
        assert tup(b, a) in result
        assert len(result) == 3

    def test_assignment(self):
        env = {"e": Relation.of(1, 2, name="e")}
        assert self._eval("p(Y) :- e(X), Y = add2(X).", env) == Relation.of(3, 4)

    def test_comparison_test(self):
        env = {"e": Relation.of(1, 2, 3, name="e")}
        assert self._eval("p(X) :- e(X), X >= 2.", env) == Relation.of(2, 3)

    def test_head_tuple_construction(self):
        env = {"e": Relation.of(a, name="e")}
        result = self._eval("p(X, X) :- e(X).", env)
        assert result == Relation.of(tup(a, a))

    def test_ground_rule(self):
        result = self._eval("p(a) :- 1 = 1.", {})
        assert result == Relation.of(a)

    def test_zero_arity_head(self):
        env = {"e": Relation.of(a, name="e")}
        assert self._eval("p :- e(X).", env) == Relation.of(UNIT)

    def test_zero_arity_negative_body(self):
        program = parse_program("p :- not q.\nq.")
        rule = program.rules[0]
        expr = rule_to_expression(rule, frozenset({"q"}), program.arities())
        # q is IDB → referenced as a Call
        from repro.core.expressions import walk

        assert any(isinstance(n, Call) and n.name == "q" for n in walk(expr))

    def test_unsafe_rule_rejected(self):
        with pytest.raises(UnsafeRuleError):
            rule_to_expression(
                parse_rule("p(X) :- not q(X)."), frozenset(), {"p": 1, "q": 1}
            )


class TestProgramTranslation:
    def test_result_structure(self):
        program = parse_program(
            "tc(X, Y) :- move(X, Y).\ntc(X, Z) :- move(X, Y), tc(Y, Z)."
        )
        translation = datalog_to_algebra(program)
        assert translation.program.dialect == Dialect.ALGEBRA_EQ
        assert {d.name for d in translation.program.definitions} == {"tc"}
        assert translation.program.database_relations == {"move"}
        assert translation.arities == {"tc": 2, "move": 2}

    def test_multiple_rules_union(self):
        program = parse_program("p(X) :- e(X).\np(X) :- f(X).")
        translation = datalog_to_algebra(program)
        body = translation.program.definition("p").body
        from repro.core.expressions import Union as UnionExpr

        assert isinstance(body, UnionExpr)

    def test_execution_matches_deduction(self):
        program = parse_program(
            "tc(X, Y) :- move(X, Y).\ntc(X, Z) :- move(X, Y), tc(Y, Z)."
        )
        db = Database()
        for s, t in [(a, b), (b, c)]:
            db.add("move", s, t)
        translation = datalog_to_algebra(program)
        env = database_to_environment(db)
        result = valid_evaluate(
            translation.program, env, registry=translation_registry()
        )
        assert result.is_well_defined()
        assert result.relation("tc") == Relation.of(tup(a, b), tup(b, c), tup(a, c))


class TestProp61Counterexample:
    """A program Hypothesis found on which the translation disagreed
    with deduction (``test_random_safe_rules.py``):

        p(X) :- e(X), not p(X).
        q(X) :- e(X), X != a.
        q(Y) :- e(X), e(Y), r(X, Y), p(X), not q(X).

    over that suite's ``DATABASE``.  Every ``p`` is undefined; ``q(b)``
    and ``q(c)`` are true by the second rule.  The only instance of the
    third rule for ``q(a)`` is ``X = c`` (``r(c, a)``), whose body is
    ``p(c) ∧ not q(c)`` = U ∧ ¬T = F in Kleene logic: ``q(a)`` is false,
    as ``run()`` says.  Compiled in body order, the rule became
    ``L − σ(frame × q)`` with ``L = σ(frame × p)``: the subtrahend's
    frame read ``p`` again, at negative polarity, and with ``p(c)``
    undefined ``q(a)`` came out U ∧ ¬U = U.  The compiler now joins the
    EDB literals first, then subtracts, then joins ``p``: the frame the
    subtrahend reads holds no IDB literal.
    """

    SOURCE = (
        "p(X) :- e(X), not p(X).\n"
        "q(X) :- e(X), X != a.\n"
        "q(Y) :- e(X), e(Y), r(X, Y), p(X), not q(X)."
    )

    def test_deduction_makes_q_a_false(self):
        from repro.datalog import run

        from ..property.test_random_safe_rules import DATABASE

        result = run(
            parse_program(self.SOURCE), DATABASE, "valid", registry=translation_registry()
        )
        assert result.true_rows("q") == {(b,), (c,)}
        assert result.undefined_rows("q") == frozenset()
        assert result.undefined_rows("p") == {(a,), (b,), (c,)}

    def test_translation_agrees_with_deduction(self):
        from repro.core.equivalence import check_datalog_roundtrip

        from ..property.test_random_safe_rules import DATABASE

        report = check_datalog_roundtrip(
            parse_program(self.SOURCE), DATABASE, registry=translation_registry()
        )
        assert report.matches, report.mismatches()


class TestProp61IdbRangedCounterexample:
    """The compile order does not fix every rule:

        p(X) :- e(X), not p(X).
        t(X) :- e(X).
        q(X) :- p(X), not t(X).

    ``X`` is ranged only by the IDB literal ``p``, so the subtrahend's
    frame has to read ``p``: with every ``p`` undefined and every ``t``
    true, deduction makes ``q`` false (U ∧ ¬T) where the translation
    makes it U ∧ ¬(U ∧ T) = U.  The fix is a frame over ``p⁺``, the
    positive relaxation of ``p`` (two-valued, and ``p ⊆ p⁺``).
    """

    SOURCE = (
        "p(X) :- e(X), not p(X).\n"
        "t(X) :- e(X).\n"
        "q(X) :- p(X), not t(X)."
    )

    @pytest.mark.xfail(
        strict=True,
        reason="the frame of not t(X) must read the IDB literal p:"
        " q comes out undefined, not false",
    )
    def test_translation_agrees_with_deduction(self):
        from repro.core.equivalence import check_datalog_roundtrip

        from ..property.test_random_safe_rules import DATABASE

        report = check_datalog_roundtrip(
            parse_program(self.SOURCE), DATABASE, registry=translation_registry()
        )
        assert report.matches, report.mismatches()
