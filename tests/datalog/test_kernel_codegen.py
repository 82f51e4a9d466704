"""Plans compiled to Python: the generated firing functions' contract.

:meth:`JoinKernel.fire` runs one generated function per ``(plan,
before, after)``.  These tests pin what that must not change: the
instances (held to the nested-loop ``reference`` of
``tests/property/test_kernel_plans.py``, also past CPython's nested-block
limit), the ``rows_matched`` accounting, where the functions are cached
and for how long, and that no client text ever reaches the generated
source.
"""

import gc
import io
import itertools
import tokenize
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datalog.kernel as kernel_module
import tests.property.test_kernel_plans as plans
from repro.datalog.ast import Comparison, Const, FuncTerm, Literal, PredAtom, Rule, Var
from repro.datalog.kernel import HEAD, NEW, OLD, JoinKernel, compile_plan
from repro.datalog.parser import parse_program
from repro.relations.values import Atom
from tests.property.test_kernel_plans import REGISTRY, reference


def _rule(text):
    (rule,) = parse_program(text).rules
    return rule


def _kernel(facts, plus=None, minus=None):
    kernel = JoinKernel(REGISTRY)
    for name, rows in facts.items():
        for row in rows:
            kernel.add(name, row)
    kernel.plus, kernel.minus = plus or {}, minus or {}
    return kernel


@contextmanager
def _loops_per_function(limit, plan):
    """Generate ``plan``'s functions with at most ``limit`` loops each."""
    saved, default = dict(plan.functions), kernel_module._LOOPS_PER_FUNCTION
    plan.functions.clear()
    kernel_module._LOOPS_PER_FUNCTION = limit
    try:
        yield
    finally:
        kernel_module._LOOPS_PER_FUNCTION = default
        plan.functions.clear()
        plan.functions.update(saved)


def _functions(plan):
    return list(plan.functions.values())


# -- the cache ----------------------------------------------------------------


def test_kernels_share_one_function_per_plan_and_views():
    rule = _rule("shared_tc(X, Z) :- shared_tc(X, Y), shared_e(Y, Z).")
    first, second = JoinKernel(), JoinKernel()
    plan = first.plan(rule, 1)
    second.register(plan)
    first.fire(plan, {(1, 2)})
    (function,) = _functions(plan)
    second.fire(plan, {(2, 3)})
    assert _functions(plan) == [function]
    second.fire(plan, {(2, 3)}, OLD, OLD)
    assert len(plan.functions) == 2 and plan.functions[NEW, NEW] is function


def test_the_list_and_the_set_firing_share_one_function():
    rule = _rule("leaf_tc(X, Z) :- leaf_tc(X, Y), leaf_e(Y, Z).")
    first, second = JoinKernel(), JoinKernel()
    plan = first.plan(rule, 0)
    second.register(plan)
    first.add("leaf_e", (2, 3))
    second.add("leaf_e", (2, 4))
    assert first.fire(plan, {(1, 2)}) == [(1, 3)]
    assert first.fire(plan, {(1, 2)}, as_set=True) == {(1, 3)}
    assert second.fire(plan, {(1, 2), (0, 2)}, as_set=True) == {(1, 4), (0, 4)}
    assert set(plan.functions) == {(NEW, NEW)}


def test_a_function_lives_and_dies_with_its_plan():
    rule = _rule("dying_tc(X, Z) :- dying_tc(X, Y), dying_e(Y, Z).")
    kernel = JoinKernel()
    plan = kernel.plan(rule, 0)
    kernel.fire(plan, {(1, 2)})
    (function,) = _functions(plan)
    ref = weakref.ref(function)
    del plan, function
    compile_plan.cache_clear()
    gc.collect()
    assert ref() is None


def test_generated_frames_report_the_kernel_module():
    kernel = JoinKernel()
    plan = kernel.plan(_rule("tc(X, Z) :- tc(X, Y), e(Y, Z)."))
    kernel.fire(plan)
    (function,) = _functions(plan)
    assert function.__globals__["__name__"] == "repro.datalog.kernel"


def test_rows_matched_on_a_three_edge_chain():
    """Rows pulled from buckets and row sets, lead rows included, exactly
    as the service's ``rows_matched`` counter has always reported them."""
    a, b, c, d = map(Atom, "abcd")
    edges = {(a, b), (b, c), (c, d)}
    kernel = _kernel({"e": edges, "tc": edges})
    rule = _rule("tc(X, Z) :- tc(X, Y), e(Y, Z).")
    naive, delta = kernel.plan(rule), kernel.plan(rule, 0)
    # e's three rows, then tc probed by Y: nothing for a, one row each for b, c.
    assert Counter(kernel.fire(naive)) == Counter([(a, c), (b, d)])
    assert kernel.rows_matched == 5
    # The two delta rows, then e probed by c (one row) and by d (none).
    assert kernel.fire(delta, {(a, c), (b, d)}) == [(a, d)]
    assert kernel.rows_matched == 5 + 3


# -- long rules ----------------------------------------------------------------


def _chain(length):
    xs = [Var(f"X{i}") for i in range(length + 1)]
    body = [Literal(PredAtom("e", (xs[i], xs[i + 1])), True) for i in range(length)]
    return Rule(PredAtom("p", (xs[0], xs[-1])), tuple(body))


def _walks(edges, length, lead, rows):
    """The chain's instances by walking the graph: edge ``lead`` of each
    walk comes from ``rows``, or the walk's ends from ``rows`` under
    :data:`HEAD`."""
    led = set(rows or ())
    walks = Counter()
    paths = [(edge,) for edge in (led if lead == 0 else edges)]
    for step in range(1, length):
        paths = [
            path + (edge,)
            for path in paths
            for edge in (led if step == lead else edges)
            if edge[0] == path[-1][1]
        ]
    for path in paths:
        ends = (path[0][0], path[-1][1])
        walks[ends] += lead != HEAD or ends in led
    return +walks


@pytest.mark.parametrize(
    "lead, rows",
    [(None, None), (12, {(0, 0), (0,)}), (HEAD, {(0, 0), (0, 1)})],
)
def test_a_25_literal_chain_fires_past_the_nesting_limit(monkeypatch, lead, rows):
    rule = _chain(25)
    # 26 variables: the brute-force reference runs over a one-value domain.
    monkeypatch.setattr(plans, "DOMAIN", (0,))
    for facts in ({"e": {(0, 0), (0,)}}, {"e": {(0, 1)}}):
        kernel = _kernel(facts)
        plan = kernel.plan(rule, lead)
        produced = kernel.fire(plan, rows)
        assert Counter(produced) == reference(rule, lead, rows, NEW, NEW, facts, {}, {})
    (function,) = _functions(plan)
    assert "def c1(" in function.source  # the plan went on in a second function


@pytest.mark.parametrize(
    "lead, rows",
    [
        (None, None),
        (12, {(12, 13), (20, 21), (40, 41)}),
        (HEAD, {(0, 25), (2, 27), (1, 3)}),
    ],
)
def test_a_25_literal_chain_lists_every_walk(lead, rows):
    edges = {(i, i + 1) for i in range(30)} | {(3, 40), (40, 41), (41, 5), (9, 10)}
    kernel = _kernel({"e": edges})
    produced = kernel.fire(kernel.plan(_chain(25), lead), rows)
    assert produced and Counter(produced) == _walks(edges, 25, lead, rows)


def _interleaved():
    """12 chain links with a negation and a comparison between them."""
    xs = [Var(f"X{i}") for i in range(13)]
    body = []
    for i in range(12):
        body.append(Literal(PredAtom("e", (xs[i], xs[i + 1])), True))
        if i % 2:
            body.append(Literal(PredAtom("f", (xs[i],)), False))
        elif i < 11:
            body.append(Comparison("!=" if i % 4 else "<", xs[i], xs[i + 1]))
    body.append(Literal(PredAtom("q", (xs[12],)), False))
    return Rule(PredAtom("p", (xs[0], xs[12])), tuple(body))


@pytest.mark.parametrize("views", [(NEW, NEW), (OLD, NEW), (NEW, OLD)])
@pytest.mark.parametrize(
    "lead, rows",
    [
        (None, None),
        (12, {(0, 1), (1, 0), (1, 1)}),
        (HEAD, {(0, 0), (0, 1), (1, 1)}),
    ],
)
def test_a_long_rule_of_negations_and_comparisons_splits_exactly(
    monkeypatch, lead, rows, views
):
    rule = _interleaved()
    assert len(rule.body) == 25
    monkeypatch.setattr(plans, "DOMAIN", (0, 1))
    facts = {"e": {(0, 1), (1, 0), (1, 1)}, "f": {(0,)}, "q": {(0,)}}
    plus, minus = {"e": {(1, 1)}, "f": {(0,)}, "q": {(0,)}}, {"e": {(0, 0)}}
    kernel = _kernel(facts, plus, minus)
    plan = kernel.plan(rule, lead)
    expected = reference(rule, lead, rows, *views, facts, plus, minus)
    assert expected
    with _loops_per_function(4, plan):
        assert Counter(kernel.fire(plan, rows, *views)) == expected
        assert all("def c2(" in function.source for function in _functions(plan))
    assert Counter(kernel.fire(plan, rows, *views)) == expected


@given(st.data(), plans.rules, plans.stores(), plans.views, plans.views)
@settings(max_examples=200, deadline=None)
def test_one_loop_per_function_changes_nothing(data, rule, store, before, after):
    """Every match step in a function of its own: the continuation
    passes the slots and the row count along intact."""
    facts, plus, minus = store
    lead, lead_rows = data.draw(plans.leads(rule))
    kernel = _kernel(facts, plus, minus)
    plan = kernel.plan(rule, lead)
    whole = kernel.fire(plan, lead_rows, before, after), kernel.rows_matched
    with _loops_per_function(1, plan):
        kernel.rows_matched = 0
        split = kernel.fire(plan, lead_rows, before, after), kernel.rows_matched
    assert Counter(split[0]) == Counter(whole[0]) == reference(
        rule, lead, lead_rows, before, after, facts, plus, minus
    )
    assert split[1] == whole[1]


# -- function symbols, bound once per firing --------------------------------------


@pytest.fixture
def lookups(monkeypatch):
    """The names every ``FunctionRegistry.get`` looks up."""
    from repro.relations.universe import FunctionRegistry

    names = []
    get = FunctionRegistry.get

    def counting(self, name):
        names.append(name)
        return get(self, name)

    monkeypatch.setattr(FunctionRegistry, "get", counting)
    return names


def test_a_firing_looks_each_function_symbol_up_once(lookups):
    kernel = _kernel({"e": {(n,) for n in range(40)}})
    plan = kernel.plan(_rule("p(succ(X)) :- e(X)."))
    assert sorted(kernel.fire(plan)) == [(n + 1,) for n in range(40)]
    assert lookups == ["succ"]
    kernel.fire(plan, as_set=True)
    assert lookups == ["succ", "succ"]


def test_a_continuation_takes_its_binding_from_the_firing(lookups):
    """The 25-literal chain with ``Y = succ(X25)`` after its last link:
    the assignment runs in the second function, once per walk, on the
    binding the first function made once."""
    xs = [Var(f"X{i}") for i in range(26)]
    y = Var("Y")
    chain = _chain(25)
    rule = Rule(
        PredAtom("p", (xs[0], y)),
        chain.body + (Comparison("=", y, FuncTerm("succ", (xs[25],))),),
    )
    edges = {(i, i + 1) for i in range(30)} | {(3, 40), (40, 41), (41, 5), (9, 10)}
    kernel = _kernel({"e": edges})
    plan = kernel.plan(rule)
    produced = kernel.fire(plan)
    walks = _walks(edges, 25, None, None)
    assert sum(walks.values()) > 1  # the continuation runs more than once
    assert Counter(produced) == Counter(
        {(first, last + 1): count for (first, last), count in walks.items()}
    )
    assert lookups == ["succ"]
    (function,) = _functions(plan)
    first, rest = function.source.split("def c1(")
    assert "resolve(" in first and "resolve(" not in rest


def test_an_unknown_function_fails_at_the_first_row_that_reaches_it():
    kernel = _kernel({"e": set()})
    plan = kernel.plan(_rule("p(Y) :- e(X), Y = nosuch(X)."))
    assert kernel.fire(plan) == []
    kernel.add("e", (1,))
    with pytest.raises(KeyError) as raised:
        kernel.fire(plan)
    assert raised.value.args == ("unknown domain function: 'nosuch'",)


# -- no client text in the source ----------------------------------------------

HOSTILE = ["e'); import os; ('", "q\nx", "win@prev"]
QUOTED = "it's \"quoted\""


def _hostile_rule():
    e, q, prev = HOSTILE
    x, y = Var("X"), Var("Y")
    return Rule(
        PredAtom(q, (x, Const(QUOTED))),
        (
            Literal(PredAtom(e, (x, y)), True),
            Literal(PredAtom(prev, (y, Const(QUOTED))), True),
            Literal(PredAtom(prev, (x, y)), False),
            Comparison("<", x, y),
        ),
    )


def test_the_source_carries_identifiers_and_integers_only():
    e, q, prev = HOSTILE
    rule = _hostile_rule()
    facts = {
        e: {(0, 1), (1, 2), (2, 2), (0, 3)},
        prev: {(1, QUOTED), (2, QUOTED), (3, QUOTED), (0, 3)},
        q: {(0, QUOTED)},
    }
    plus, minus = {prev: {(0, 3)}}, {prev: {(0, 2)}, e: {(1, 3)}}
    kernel = _kernel(facts, plus, minus)
    for lead, rows in [
        (None, None),
        (0, {(0, 1), (1, 3)}),
        (2, {(0, 3), (1, 2)}),
        (HEAD, {(0, QUOTED), (1, QUOTED)}),
    ]:
        plan = kernel.plan(rule, lead)
        for before, after in itertools.product((NEW, OLD), repeat=2):
            produced = kernel.fire(plan, rows, before, after)
            expected = reference(rule, lead, rows, before, after, facts, plus, minus)
            assert Counter(produced) == expected, (lead, before, after)
            heads = kernel.fire(plan, rows, before, after, as_set=True)
            assert heads == set(expected), (lead, before, after)
        assert set(plan.functions) <= set(itertools.product((NEW, OLD), repeat=2))
        for function in _functions(plan):
            source = function.source
            for text in HOSTILE + [QUOTED, "import", "'", '"']:
                assert text not in source
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                assert token.type in (
                    tokenize.NAME,
                    tokenize.OP,
                    tokenize.NUMBER,
                    tokenize.NEWLINE,
                    tokenize.NL,
                    tokenize.INDENT,
                    tokenize.DEDENT,
                    tokenize.ENDMARKER,
                ), token
                assert token.type != tokenize.NUMBER or token.string.isdigit(), token
