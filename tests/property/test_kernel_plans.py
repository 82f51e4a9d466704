"""Differential property suite: compiled join-kernel plans vs. nested loops.

Every ``(rule, lead, views)`` plan of :mod:`repro.datalog.kernel` must
produce the same multiset of head rows, one per rule instance, as
:func:`reference` below — a brute-force loop over every assignment of
the rule's variables, with no ordering, no index and no slots.  Rules
are random safe rules with repeated variables, constants, function
terms (``pred`` is partial: undefined on 0), comparisons that are
assignments under one lead and tests under another, and negated
literals; states are random relations with random net ``plus`` /
``minus`` overlays; the lead is each body literal in turn (positive or
negated, fed a row set), the head (the re-derivation probe), or none.
The set firing must hold exactly the list firing's head rows, and the
batch store (``add_all`` / ``commit_add_all``) must
leave the store exactly as a per-row loop does.

The grounder's plans — a rule's positive projection with the whole
instance as its head row — are ordinary plans and are held to the same
reference; on top of that, every lead must list the instances ``lead=None``
lists, and the round split the grounder relies on (instances over the old
atoms, plus one ``OLD``-before / ``NEW``-after firing per lead over the
delta) must produce each instance over the new atoms exactly once.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import (
    Comparison,
    Const,
    FuncTerm,
    Literal,
    PredAtom,
    Rule,
    Var,
    eval_term,
)
from repro.datalog.binding import UnsafeRuleError, _compare, binding_order
from repro.datalog.grounding import _instance_rule
from repro.datalog.kernel import HEAD, NEW, OLD, JoinKernel, compile_plan
from repro.datalog.parser import parse_program
from repro.relations.universe import standard_registry

REGISTRY = standard_registry()
DOMAIN = (0, 1, 2, 3)
ARITIES = {"e": 2, "f": 1, "p": 2, "q": 1}
X, Y, Z = Var("X"), Var("Y"), Var("Z")


def reference(rule, lead, lead_rows, before, after, facts, plus, minus):
    """Nested loops: every total assignment is tried against every item."""
    led = set(lead_rows or ())
    variables = sorted(rule.vars(), key=repr)
    instances = Counter()
    for values in itertools.product(DOMAIN, repeat=len(variables)):
        env = dict(zip(variables, values))
        head = tuple(eval_term(arg, env, REGISTRY) for arg in rule.head.args)
        weight = 0 if None in head else head in led if lead == HEAD else 1
        for index, item in enumerate(rule.body):
            if isinstance(item, Comparison):
                left, right = (eval_term(t, env, REGISTRY) for t in (item.left, item.right))
                weight *= None not in (left, right) and _compare(item.op, left, right)
                continue
            row = tuple(eval_term(arg, env, REGISTRY) for arg in item.atom.args)
            new = row in facts.get(item.atom.predicate, ())
            old = row in minus.get(item.atom.predicate, ()) or (
                new and row not in plus.get(item.atom.predicate, ())
            )
            view = before if lead not in (None, HEAD) and index < lead else after
            truth = old if view == OLD else new
            weight *= None not in row  # an undefined term fails the instance
            weight *= row in led if index == lead else truth == item.positive
        if weight:
            instances[head] += 1
    return instances


# -- generators ---------------------------------------------------------------

terms = st.sampled_from(
    [X, Y, Z, X, Y, Const(0), Const(2), FuncTerm("pred", (X,)), FuncTerm("pred", (Y,))]
)


def atoms(predicates):
    return st.sampled_from(predicates).flatmap(
        lambda name: st.tuples(*[terms] * ARITIES[name]).map(
            lambda args: PredAtom(name, args)
        )
    )


body_items = st.one_of(
    atoms(["e", "f", "p", "q"]).map(lambda atom: Literal(atom, True)),
    atoms(["e", "f", "p", "q"]).map(lambda atom: Literal(atom, True)),
    atoms(["e", "f", "q"]).map(lambda atom: Literal(atom, False)),
    st.builds(Comparison, st.sampled_from(["=", "=", "!=", "<"]), terms, terms),
)


def _safe(rule):
    try:
        binding_order(rule)
    except UnsafeRuleError:
        return False
    return True


rules = st.builds(
    Rule, atoms(["p", "q"]), st.lists(body_items, min_size=1, max_size=4).map(tuple)
).filter(_safe)


def relations(arity):
    rows = list(itertools.product(DOMAIN, repeat=arity))
    return st.frozensets(st.sampled_from(rows), max_size=7)


@st.composite
def stores(draw):
    """(facts, plus, minus): ``plus`` rows are present, ``minus`` absent."""
    facts, plus, minus = {}, {}, {}
    for name, arity in ARITIES.items():
        rows = draw(relations(arity))
        facts[name] = set(rows)
        if rows:
            plus[name] = set(draw(st.frozensets(st.sampled_from(sorted(rows)), max_size=3)))
        minus[name] = set(draw(relations(arity))) - rows
    return facts, plus, minus


@st.composite
def leads(draw, rule):
    """(lead index, lead rows): none, the head, or a body literal fed a
    row set."""
    literal_indices = [
        index for index, item in enumerate(rule.body) if isinstance(item, Literal)
    ]
    lead = draw(st.sampled_from([None, HEAD] + literal_indices * 2))
    if lead is None:
        return None, None
    atom = rule.head if lead == HEAD else rule.body[lead].atom
    return lead, set(draw(relations(len(atom.args))))


views = st.sampled_from([NEW, OLD])


def _kernel(facts, plus, minus):
    kernel = JoinKernel(REGISTRY)
    for name, rows in facts.items():
        for row in rows:
            kernel.add(name, row)
    kernel.plus, kernel.minus = plus, minus
    return kernel


@given(st.data(), rules, stores(), views, views)
@settings(max_examples=300, deadline=None)
def test_every_plan_matches_the_nested_loop_reference(data, rule, store, before, after):
    facts, plus, minus = store
    lead, lead_rows = data.draw(leads(rule))
    kernel = _kernel(facts, plus, minus)
    produced = kernel.fire(kernel.plan(rule, lead), lead_rows, before, after)
    expected = reference(rule, lead, lead_rows, before, after, facts, plus, minus)
    assert Counter(produced) == expected, (rule, lead, lead_rows, before, after)


@given(rules, stores())
@settings(max_examples=100, deadline=None)
def test_indexes_follow_adds_and_removes(rule, store):
    """Indexes registered after the load, and kept through removals and
    re-adds, answer like a freshly loaded store."""
    facts, plus, _minus = store
    kernel = _kernel(facts, {}, {})
    for lead in [None, HEAD] + list(range(len(rule.body))):
        if lead in (None, HEAD) or isinstance(rule.body[lead], Literal):
            kernel.plan(rule, lead)
    for name, rows in plus.items():
        for row in rows:
            assert kernel.remove(name, row)
    remaining = {name: rows - plus.get(name, set()) for name, rows in facts.items()}
    assert Counter(kernel.fire(compile_plan(rule))) == reference(
        rule, None, None, NEW, NEW, remaining, {}, {}
    )
    for name, rows in plus.items():
        for row in rows:
            assert kernel.add(name, row)
    assert Counter(kernel.fire(compile_plan(rule))) == reference(
        rule, None, None, NEW, NEW, facts, {}, {}
    )


# -- the set leaf and the batch store -----------------------------------------


class _Ticks:
    """A budget that only counts its ticks."""

    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1


@given(st.data(), rules, stores(), views, views)
@settings(max_examples=200, deadline=None)
def test_the_set_firing_holds_the_list_firings_head_rows(data, rule, store, before, after):
    """Same heads, same rows matched, one tick per instance either way."""
    facts, plus, minus = store
    lead, lead_rows = data.draw(leads(rule))
    kernel = _kernel(facts, plus, minus)
    plan = kernel.plan(rule, lead)
    listed, heads = _Ticks(), _Ticks()
    instances = kernel.fire(plan, lead_rows, before, after, listed)
    matched = kernel.rows_matched
    produced = kernel.fire(plan, lead_rows, before, after, heads, as_set=True)
    assert isinstance(produced, set)
    assert produced == set(instances)
    assert kernel.rows_matched == 2 * matched
    assert heads.ticks == listed.ticks == len(instances)


batches = st.lists(
    st.sampled_from(sorted(ARITIES)).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.lists(
                st.one_of(
                    st.sampled_from(list(itertools.product(DOMAIN, repeat=ARITIES[name]))),
                    st.sampled_from([(0,), (1, 2, 3)]),  # another arity
                ),
                max_size=6,
            ),
        )
    ),
    max_size=5,
)


@given(rules, stores(), batches)
@settings(max_examples=200, deadline=None)
def test_batch_adds_store_exactly_what_row_adds_store(rule, store, batch_list):
    """``add_all`` / ``commit_add_all`` against a per-row ``add`` /
    ``commit_add`` loop: the same rows, indexes and net deltas, and the
    rows that loop reported new."""
    facts, plus, minus = store
    for commit in (False, True):
        one, many = (_kernel(facts, {}, {}) for _ in range(2))
        for kernel in (one, many):
            for lead in [None, HEAD] + list(range(len(rule.body))):
                if lead in (None, HEAD) or isinstance(rule.body[lead], Literal):
                    kernel.plan(rule, lead)
            kernel.plus = {name: set(rows) for name, rows in plus.items()}
            kernel.minus = {name: set(rows) for name, rows in minus.items()}
        for name, rows in batch_list:
            add = one.commit_add if commit else one.add
            new = {row for row in rows if add(name, row)}
            add_all = many.commit_add_all if commit else many.add_all
            assert add_all(name, rows) == new
            assert many.facts == one.facts and many.index == one.index
            assert many.plus == one.plus and many.minus == one.minus


# -- the grounder's instance-returning plans ----------------------------------


def _positive_leads(projection):
    return [
        (index, item.atom.predicate)
        for index, item in enumerate(projection.body)
        if isinstance(item, Literal)
    ]


@given(rules, stores())
@settings(max_examples=200, deadline=None)
def test_instance_plans_list_the_same_instances_under_every_lead(rule, store):
    facts, _plus, _minus = store
    projection, layout = _instance_rule(rule)
    kernel = _kernel(facts, {}, {})
    instances = Counter(kernel.fire(kernel.plan(projection)))
    # The leaf row is the instance: head, positive atoms, negated atoms —
    # negated literals read off the binding, never tested.
    assert instances == reference(projection, None, None, NEW, NEW, facts, {}, {})
    assert all(count == 1 for count in instances.values())
    negated = [item for item in rule.body if isinstance(item, Literal) and not item.positive]
    assert len(layout.pos) == len(_positive_leads(projection))
    assert len(layout.neg) == len(negated)
    for instance in instances:
        for predicate, start, stop in layout.pos:
            assert instance[start:stop] in facts[predicate]
    for lead, predicate in _positive_leads(projection):
        led = kernel.fire(kernel.plan(projection, lead), facts[predicate])
        assert Counter(led) == instances, (rule, lead)


@given(rules, stores())
@settings(max_examples=200, deadline=None)
def test_a_round_produces_each_new_instance_exactly_once(rule, store):
    """``plus`` is last round's delta: the instances over the old atoms
    and, per lead, the ones whose leftmost new atom sits under that lead
    partition the instances over all atoms."""
    facts, plus, _minus = store
    projection, _layout = _instance_rule(rule)
    kernel = _kernel(facts, plus, {})
    naive = kernel.plan(projection)
    produced = Counter(kernel.fire(naive, after=OLD))
    for lead, predicate in _positive_leads(projection):
        delta = plus.get(predicate)
        if delta:
            produced.update(kernel.fire(kernel.plan(projection, lead), delta, OLD, NEW))
    assert produced == Counter(kernel.fire(naive)), rule


# -- fixed cases the generators reach only by luck ----------------------------


def _rule(text):
    (rule,) = parse_program(text).rules
    return rule


@pytest.mark.parametrize(
    "lead, lead_rows",
    [
        (None, None),  # f binds X, the comparison assigns Y
        (0, {(0,), (2,), (3,)}),  # the same, from a row set
        (2, {(1, 0), (2, 1), (3, 3)}),  # not e(X, Y) binds both: a test
        (HEAD, {(1, 0), (2, 1), (3, 3)}),  # so does the head
    ],
)
def test_comparison_is_an_assignment_or_a_test_depending_on_the_lead(lead, lead_rows):
    rule = _rule("p(X, Y) :- f(X), Y = pred(X), not e(X, Y).")
    facts = {"f": {(0,), (1,), (2,), (3,)}, "e": {(2, 1)}}
    kernel = _kernel(facts, {}, {})
    produced = kernel.fire(kernel.plan(rule, lead), lead_rows)
    assert produced
    assert Counter(produced) == reference(rule, lead, lead_rows, NEW, NEW, facts, {}, {})


def test_lead_function_term_waits_for_its_variable():
    """``e(pred(X), Y)`` cannot bind X from its row: as the lead it keeps
    the row value and checks it once ``f(X)`` has bound X."""
    rule = _rule("q(X) :- f(X), e(pred(X), Y).")
    facts = {"f": {(1,), (2,), (3,)}, "e": {(0, 0), (1, 3), (3, 3)}}
    kernel = _kernel(facts, {}, {})
    delta = {(0, 0), (1, 3), (3, 2)}
    produced = kernel.fire(kernel.plan(rule, 1), delta)
    assert Counter(produced) == Counter({(1,): 1, (2,): 1})
    assert Counter(produced) == reference(rule, 1, delta, NEW, NEW, facts, {}, {})


def test_rows_of_another_arity_never_match():
    rule = _rule("q(X) :- f(X), e(X, Y).")
    kernel = JoinKernel(REGISTRY)
    plans = [kernel.plan(rule, lead) for lead in (None, 0, 1)]
    for row in [(1,), (1, 2, 3)]:
        kernel.add("e", row)
    kernel.add("f", (1,))
    kernel.add("f", (1, 2))
    assert kernel.fire(plans[0]) == []
    assert kernel.fire(plans[1], {(1,), (1, 2)}) == []
    assert kernel.fire(plans[2], {(1,), (1, 2, 3)}) == []
    kernel.add("e", (1, 2))
    assert kernel.fire(plans[0]) == [(1,)]
    assert kernel.remove("e", (1,)) and kernel.remove("e", (1, 2, 3))
    assert kernel.fire(plans[2], {(1, 2)}) == [(1,)]


def test_unsafe_rules_do_not_compile():
    for text in ("p(X, Y) :- f(X).", "q(X) :- not f(X).", "q(X) :- e(pred(X), Y)."):
        with pytest.raises(UnsafeRuleError):
            compile_plan(_rule(text))
