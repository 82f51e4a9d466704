"""Hypothesis strategies for random *safe* deductive programs.

Shared by the grounder's brute-force differential suite and the
``run()`` route differential suite.  Rules are safe **by construction**
(no ``.filter``): the positive body is drawn first, left to right, a
function term in it only over variables an earlier atom or a variable
argument of the same atom binds; an optional ``V = term`` comparison
binds one more variable; then the head, the negated literals and the
testing comparisons take their arguments only from the bound variables
and the constants.  The body is shuffled afterwards, so finding the
evaluable order is still :func:`~repro.datalog.binding.binding_order`'s
job.

The universe: EDB ``e/2`` and ``f/1``, IDB ``p/2``, ``q/1`` and ``m``
(used with arities 1 and 2), values ``0..3``, constants ``0`` and ``2``,
and the partial function ``pred`` (undefined on 0).  ``q`` has database
facts too, so a predicate can be extensional and intensional at once.
"""

import itertools

from hypothesis import strategies as st

from repro.datalog.ast import (
    Comparison,
    Const,
    FuncTerm,
    Literal,
    PredAtom,
    Program,
    Rule,
    Var,
)

DOMAIN = (0, 1, 2, 3)
VARIABLES = (Var("X"), Var("Y"), Var("Z"))
CONSTANTS = (Const(0), Const(2))
ARITIES = {"e": [2], "f": [1], "p": [2], "q": [1], "m": [1, 2]}
EDB = ("e", "f")
IDB = ("p", "q", "m")
EVERY = EDB + IDB


def _terms(bound):
    """Terms evaluable once ``bound`` is: its variables (twice as
    likely as the rest), the constants, ``pred`` of a variable."""
    bound = sorted(bound, key=repr)
    return st.sampled_from(
        bound + bound + list(CONSTANTS) + [FuncTerm("pred", (v,)) for v in bound]
    )


def _atom(draw, predicates, terms):
    name = draw(st.sampled_from(predicates))
    arity = draw(st.sampled_from(ARITIES[name]))
    return PredAtom(name, tuple(draw(terms) for _ in range(arity)))


def _positive_atom(draw, predicates, bound):
    """An atom matchable with ``bound`` bound: plain arguments are any
    variable or constant; one of them may then become ``pred`` of a
    variable that is bound before or by this very atom."""
    atom = _atom(draw, predicates, st.sampled_from(VARIABLES + VARIABLES + CONSTANTS))
    usable = sorted(bound | atom.vars(), key=repr)
    if usable and draw(st.integers(0, 3)) == 0:
        args = list(atom.args)
        position = draw(st.integers(0, len(args) - 1))
        if not isinstance(args[position], Var) or args.count(args[position]) > 1:
            # Replacing the only occurrence of a variable would unbind it.
            args[position] = FuncTerm("pred", (draw(st.sampled_from(usable)),))
            atom = PredAtom(atom.predicate, tuple(args))
    return atom


@st.composite
def rules(
    draw,
    heads=IDB,
    positive=EVERY,
    negated=EVERY,
    opening=None,
    must_negate=None,
    max_positive=3,
):
    """One safe rule.

    ``heads`` / ``positive`` / ``negated`` are the predicate pools of
    the head, the positive and the negated literals; ``opening`` (a
    pool) forces a first positive literal from it — most bodies should
    open on a database relation, so that most rules fire — and
    ``must_negate`` (a pool) forces one negated literal from it — and,
    half the time it is over a head predicate, makes it the head.
    """
    body = []
    bound = set()
    pools = ([opening] if opening else []) + [positive] * draw(
        st.integers(0, max_positive - bool(opening)) if positive else st.just(0)
    )
    for pool in pools:
        atom = _positive_atom(draw, pool, bound)
        body.append(Literal(atom, True))
        bound |= atom.vars()
    fresh = [v for v in VARIABLES if v not in bound]
    if fresh and draw(st.integers(0, 3)) == 0:
        sides = [fresh[0], draw(_terms(bound))]
        if draw(st.booleans()):
            sides.reverse()
        body.append(Comparison("=", *sides))
        bound.add(fresh[0])
    terms = _terms(bound)
    for _ in range(draw(st.integers(0, 1))):
        body.append(
            Comparison(draw(st.sampled_from(["=", "!=", "<"])), draw(terms), draw(terms))
        )
    pools = ([must_negate] if must_negate else []) + [negated] * draw(
        st.integers(0, 2 - bool(must_negate)) if negated else st.just(0)
    )
    for pool in pools:
        body.append(Literal(_atom(draw, pool, terms), False))
    head = _atom(draw, heads, terms)
    forced = body[-len(pools)].atom if must_negate else None
    if forced and forced.predicate in heads and draw(st.booleans()):
        # ``q(ā) :- ..., not q(ā)``: undefined wherever the rest holds.
        head = forced
    return Rule(head, tuple(draw(st.permutations(body))))


def programs(rule_strategy=None, max_size=4):
    """A program of 1..``max_size`` rules (by default: any head, any
    literal, two bodies in three opening on a database relation)."""
    if rule_strategy is None:
        rule_strategy = st.one_of(rules(), rules(opening=EDB), rules(opening=EDB))
    return st.lists(rule_strategy, min_size=1, max_size=max_size).map(
        lambda rs: Program(tuple(rs))
    )


def relations(arity, min_size=1, max_size=8):
    rows = list(itertools.product(DOMAIN, repeat=arity))
    return st.frozensets(st.sampled_from(rows), min_size=min_size, max_size=max_size)


# EDB rows, and a few database facts for an IDB predicate as well.
stores = st.fixed_dictionaries(
    {"e": relations(2), "f": relations(1), "q": relations(1, 0, 2)}
)
