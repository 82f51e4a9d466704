"""Program registration: prepared plans."""

import pytest

from repro.datalog.grounding import UnsafeRuleError
from repro.relations import Atom
from repro.service import prepare_program

a, b = Atom("a"), Atom("b")

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
"""

WIN = "win(X) :- move(X, Y), not win(Y).\n"


class TestPreparedProgram:
    def test_schedule_marks_recursion(self):
        prepared = prepare_program("tc", TC)
        assert prepared.stratified
        by_preds = {component.predicates: component for component in prepared.schedule}
        assert frozenset({"tc"}) in by_preds
        assert by_preds[frozenset({"tc"})].recursive
        assert not by_preds[frozenset({"edge"})].recursive
        assert not by_preds[frozenset({"edge"})].has_rules()

    def test_schedule_is_topologically_ordered(self):
        prepared = prepare_program(
            "layers",
            "p(X) :- e(X).\nq(X) :- p(X), not r(X).\nr(X) :- e(X), not p(X).\n",
        )
        positions = {
            predicate: index
            for index, component in enumerate(prepared.schedule)
            for predicate in component.predicates
        }
        assert positions["e"] < positions["p"] < positions["r"] < positions["q"]

    def test_inline_facts_become_seed_database(self):
        prepared = prepare_program("tc", TC + "edge(a, b).\n")
        assert prepared.seed_facts.holds("edge", a, b)
        assert all(not rule.is_fact() for rule in prepared.program.rules)

    def test_non_stratified_flagged_not_rejected(self):
        prepared = prepare_program("win", WIN)
        assert not prepared.stratified
        assert prepared.strata is None
        assert any(component.recursive for component in prepared.schedule)

    def test_unsafe_rule_rejected_at_registration(self):
        with pytest.raises(UnsafeRuleError):
            prepare_program("unsafe", "q(X) :- not p(X).\n")

    def test_accepts_ast_programs(self):
        from repro.datalog.parser import parse_program

        prepared = prepare_program("tc", parse_program(TC))
        assert prepared.stratified
        assert prepared.source is None
        assert prepare_program("tc", TC).source == TC
