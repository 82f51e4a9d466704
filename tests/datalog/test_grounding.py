"""Unit tests for the grounder."""

import pytest

from repro.datalog.ast import Comparison, Const, FuncTerm, Program, Var, eq, fact, neg, pos, rule
from repro.datalog.database import Database
from repro.datalog.grounding import (
    GroundingBudgetExceeded,
    UnsafeRuleError,
    binding_order,
    ground,
)
from repro.datalog.parser import parse_program, parse_rule
from repro.relations import Atom, standard_registry

X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b, c = Atom("a"), Atom("b"), Atom("c")


class TestBindingOrder:
    def test_simple_join(self):
        order = binding_order(parse_rule("p(X, Z) :- e(X, Y), e(Y, Z)."))
        assert [kind for kind, _item in order] == ["match", "match"]

    def test_negative_literal_deferred(self):
        order = binding_order(parse_rule("p(X) :- not q(X), e(X)."))
        assert [kind for kind, _item in order] == ["match", "negtest"]

    def test_assignment_binds(self):
        order = binding_order(parse_rule("p(Y) :- e(X), Y = succ(X)."))
        assert [kind for kind, _item in order] == ["match", "assign"]

    def test_test_requires_bound_sides(self):
        order = binding_order(parse_rule("p(X) :- e(X), X <= 3."))
        assert [kind for kind, _item in order] == ["match", "test"]

    def test_unsafe_head_var(self):
        with pytest.raises(UnsafeRuleError):
            binding_order(parse_rule("p(X, Y) :- e(X)."))

    def test_unsafe_negation_only(self):
        with pytest.raises(UnsafeRuleError):
            binding_order(parse_rule("p(X) :- not q(X)."))

    def test_unsafe_order_comparison_cannot_bind(self):
        with pytest.raises(UnsafeRuleError):
            binding_order(parse_rule("p(X) :- X <= 3."))

    def test_ground_assignment_is_safe(self):
        order = binding_order(parse_rule("p(X) :- X = succ(0)."))
        assert [kind for kind, _item in order] == ["assign"]

    def test_function_arg_in_positive_literal(self):
        # e(succ(X)) cannot be inverted; X must be bound elsewhere first.
        with pytest.raises(UnsafeRuleError):
            binding_order(parse_rule("p(X) :- e(succ(X))."))
        order = binding_order(parse_rule("p(X) :- d(X), e(succ(X))."))
        assert [kind for kind, _item in order] == ["match", "match"]

    def test_same_literal_binds_its_own_function_arg(self):
        order = binding_order(parse_rule("p(X) :- e(X, succ(X))."))
        assert [kind for kind, _item in order] == ["match"]


class TestGrounding:
    def test_facts_become_rules(self):
        program = Program.of()
        db = Database().add("e", a, b)
        gp = ground(program, db)
        assert gp.atom_count == 1
        assert len(gp.rules) == 1
        assert gp.rules[0].is_fact()

    def test_relevant_instantiation_only(self):
        program = parse_program("p(X) :- e(X).")
        db = Database().add("e", a).add("f", b)
        gp = ground(program, db)
        # p(b) is never derivable, so it should not even be interned.
        assert gp.atom_id("p", (b,)) is None
        assert gp.atom_id("p", (a,)) is not None

    def test_certainly_false_negatives_dropped(self):
        program = parse_program("p(X) :- e(X), not q(X).\nq(X) :- f(X).")
        db = Database().add("e", a)
        gp = ground(program, db)
        (rule_for_p,) = [r for r in gp.rules if gp.decode(r.head)[0] == "p"]
        # q(a) has no possible derivation, so the negative literal is gone.
        assert rule_for_p.neg == ()

    def test_possible_negatives_kept(self):
        program = parse_program("p(X) :- e(X), not q(X).\nq(X) :- e(X).")
        db = Database().add("e", a)
        gp = ground(program, db)
        (rule_for_p,) = [r for r in gp.rules if gp.decode(r.head)[0] == "p"]
        assert len(rule_for_p.neg) == 1

    def test_recursion_grounds_to_fixpoint(self):
        program = parse_program("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).")
        db = Database()
        for s, t in [(a, b), (b, c)]:
            db.add("e", s, t)
        gp = ground(program, db)
        assert gp.complete
        assert gp.atom_id("tc", (a, c)) is not None

    def test_function_budget(self):
        program = parse_program("n(0).\nn(Y) :- n(X), Y = succ(X).")
        with pytest.raises(GroundingBudgetExceeded):
            ground(program, Database(), registry=standard_registry(), max_rounds=50)

    def test_function_budget_tolerated(self):
        program = parse_program("n(0).\nn(Y) :- n(X), Y = succ(X).")
        gp = ground(
            program,
            Database(),
            registry=standard_registry(),
            max_rounds=10,
            require_complete=False,
        )
        assert not gp.complete
        assert gp.atom_id("n", (5,)) is not None

    def test_bounded_function_recursion_completes(self):
        program = parse_program("n(0).\nn(Y) :- n(X), Y = succ(X), Y <= 5.")
        gp = ground(program, Database(), registry=standard_registry())
        assert gp.complete
        assert {args[0] for _i, args in gp.atoms_of("n")} == set(range(6))

    def test_comparison_filtering(self):
        program = parse_program("p(X) :- e(X), X > 1.")
        db = Database().add("e", 1).add("e", 2)
        gp = ground(program, db)
        assert gp.atom_id("p", (2,)) is not None
        assert gp.atom_id("p", (1,)) is None

    def test_incomparable_order_comparison_is_false(self):
        program = parse_program("p(X) :- e(X), X > 1.")
        db = Database().add("e", Atom("z"))
        gp = ground(program, db)
        assert gp.atom_id("p", (Atom("z"),)) is None

    def test_partial_function_drops_instance(self):
        program = parse_program("p(Y) :- e(X), Y = pred(X).")
        db = Database().add("e", 0).add("e", 3)
        gp = ground(program, db, registry=standard_registry())
        assert gp.atom_id("p", (2,)) is not None
        assert {args for _i, args in gp.atoms_of("p")} == {(2,)}

    def test_duplicate_ground_rules_deduped(self):
        program = parse_program("p(X) :- e(X).\np(X) :- e(X).")
        db = Database().add("e", a)
        gp = ground(program, db)
        p_rules = [r for r in gp.rules if gp.decode(r.head)[0] == "p"]
        assert len(p_rules) == 1

    def test_pretty(self):
        program = parse_program("p(X) :- e(X).")
        gp = ground(program, Database().add("e", a))
        text = gp.pretty()
        assert "p(a) :- e(a)." in text
        assert "e(a)." in text


class TestWorkBound:
    """The closure runs on the join kernel, each rule instance exactly
    once: what ``fire`` returns is what the ground program lists, and
    the rows the joins pull stay proportional to it."""

    @staticmethod
    def _measured(monkeypatch, program, database, registry=None):
        """(ground program, instances ``fire`` returned, rows it pulled)."""
        from repro.datalog.kernel import JoinKernel

        fired, kernels = [], set()
        fire = JoinKernel.fire

        def counting(self, *args, **kwargs):
            produced = fire(self, *args, **kwargs)
            fired.append(len(produced))
            kernels.add(self)
            return produced

        with monkeypatch.context() as patch:
            patch.setattr(JoinKernel, "fire", counting)
            gp = ground(program, database, registry=registry)
        (kernel,) = kernels
        return gp, sum(fired), kernel.rows_matched

    def test_every_instance_is_fired_exactly_once(self, monkeypatch, registry):
        from repro.corpus import DEDUCTIVE_CORPUS, binary_tree, chain, cycle, grid
        from repro.corpus import edges_to_database

        # (No self-loops: ``position(X) :- move(X, Y)`` and ``position(Y)
        # :- move(X, Y)`` share their instance over ``move(a, a)``; two
        # rules may, one rule never does.)
        graphs = [chain(9), cycle(6), grid(3, 3), binary_tree(3)]
        for case in DEDUCTIVE_CORPUS.values():
            for edges in graphs:
                database = edges_to_database(edges)
                gp, instances, _pulled = self._measured(
                    monkeypatch, case.program, database, registry
                )
                facts = sum(len(database.rows(p)) for p in database.predicates())
                assert instances == len(gp.rules) - facts, case.name

    def test_rows_matched_is_linear_in_the_instances(self, monkeypatch):
        from repro.corpus import DEDUCTIVE_CORPUS, chain, edges_to_database

        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        ratios = []
        for n in (16, 32, 64):
            _gp, instances, pulled = self._measured(
                monkeypatch, program, edges_to_database(chain(n))
            )
            assert instances == n * (n - 1) // 2  # one per tc pair
            ratios.append(pulled / instances)
        # A scan-and-filter join would double the ratio with n.
        assert max(ratios) < 3
        assert max(ratios) - min(ratios) < 0.5
