"""Differential property suite: ``run()`` vs. forced ground-then-solve.

``run()`` evaluates the rules outside the program's open cone directly
on the join kernel and grounds only the cone; an explicit
``ground_program=`` keeps the whole program on the ground path.  For
random safe programs × small databases × every semantics the two must
give the same answer through all of :class:`QueryResult`'s readers —
``truth_of`` on every atom over the domain, most of which the grounder
pruned — and the same ``NotStratifiedError``.

Four program shapes are generated on purpose (and checked against
``open_cone``, so the generator cannot quietly lose one), beside the
free-form programs of ``program_strategies``:

* ``positive`` — no negation at all;
* ``stratified`` — negation, but only of lower layers (``p`` < ``q`` < ``m``);
* ``cycle`` — every IDB predicate on or above a cycle through negation;
* ``mixed`` — a stratified base (``p``) under a negative cycle (``q``)
  under a predicate that reads both (``m``): what depends on an
  undefined atom must come out undefined, not false.

The same comparison runs exhaustively over the deductive corpus on four
graph families and over the translated algebra corpus (function terms
through ``translation_registry()``).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra_to_datalog import translate_program, translation_registry
from repro.core.encoding import environment_to_database
from repro.corpus import (
    ALGEBRA_CORPUS,
    DEDUCTIVE_CORPUS,
    binary_tree,
    chain,
    cycle,
    edges_to_database,
    edges_to_relation,
    grid,
    nodes_of,
)
from repro.datalog import Database, Program, ground, open_cone, run
from repro.datalog.engine import SEMANTICS
from repro.datalog.parser import parse_program
from repro.datalog.semantics import Truth
from repro.datalog.stratification import NotStratifiedError
from repro.relations import Relation
from repro.relations.universe import standard_registry

from .program_strategies import ARITIES, DOMAIN, EDB, programs, rules, stores

REGISTRY = standard_registry()


def _shaped(*rule_strategies):
    """A program with one rule from each strategy, in any order."""
    return (
        st.tuples(*rule_strategies)
        .flatmap(st.permutations)
        .map(lambda rs: Program(tuple(rs)))
    )


def _layer(head, below, **kwargs):
    """Rules for ``head`` reading ``below`` + itself positively and
    negating only ``below``."""
    return rules(
        heads=(head,),
        positive=EDB + below + (head,),
        negated=EDB + below,
        opening=EDB,
        **kwargs,
    )


SHAPES = {
    "positive": _shaped(
        rules(negated=(), opening=EDB), rules(negated=()), rules(negated=())
    ),
    "stratified": _shaped(
        _layer("p", ()),
        _layer("q", ("p",), must_negate=("p",)),
        _layer("m", ("p", "q"), must_negate=("p", "q")),
    ),
    "cycle": _shaped(
        rules(heads=("p",), opening=EDB, must_negate=("p", "q")),
        rules(heads=("q",), opening=EDB, must_negate=("p", "q")),
        rules(heads=("m",), opening=("p", "q")),
    ),
    "mixed": _shaped(
        _layer("p", ()),
        rules(
            heads=("q",),
            positive=EDB + ("p", "q"),
            negated=EDB + ("p", "q"),
            opening=("p",),
            must_negate=("q",),
            max_positive=1,
        ),
        rules(
            heads=("m",),
            positive=EDB + ("p", "q", "m"),
            negated=EDB + ("p", "q"),
            opening=("q",),
            max_positive=1,
        ),
        _layer("p", ()),
    ),
}


#: The open cone each shape has by construction — checked on every
#: example, so the generator cannot quietly lose a shape.
CONES = {
    "positive": set(),
    "stratified": set(),
    "cycle": {"p", "q", "m"},
    "mixed": {"q", "m"},
}


def assert_same_answers(program, database, registry=None, atoms=()):
    """``run()`` ≡ ``run(ground_program=ground(...))`` under every semantics."""
    grounding = ground(program, database, registry=registry)
    predicates = program.predicates() | database.predicates()
    for semantics in SEMANTICS:
        try:
            forced = run(
                program, database, semantics, registry=registry, ground_program=grounding
            )
        except NotStratifiedError:
            with pytest.raises(NotStratifiedError):
                run(program, database, semantics, registry=registry)
            continue
        routed = run(program, database, semantics, registry=registry)
        for predicate in predicates:
            where = (semantics, predicate)
            assert routed.true_rows(predicate) == forced.true_rows(predicate), where
            assert routed.undefined_rows(predicate) == forced.undefined_rows(
                predicate
            ), where
        assert routed.is_total() == forced.is_total(), semantics
        for predicate, row in atoms:
            assert routed.truth_of(predicate, *row) == forced.truth_of(
                predicate, *row
            ), (semantics, predicate, row)


#: Every atom over the domain — the grounder prunes most of them.
ATOMS = [
    (predicate, row)
    for predicate, arities in ARITIES.items()
    for arity in arities
    for row in itertools.product(DOMAIN, repeat=arity)
]


@pytest.mark.parametrize("shape", [*SHAPES, "free"])
def test_run_equals_forced_ground_path(shape):
    @given(SHAPES.get(shape, programs()), stores)
    @settings(max_examples=120, deadline=None)
    def check(program, facts):
        assert shape == "free" or open_cone(program) == CONES[shape]
        assert_same_answers(program, Database(facts), REGISTRY, ATOMS)

    check()


# -- the corpora, exhaustively ------------------------------------------------

GRAPHS = {
    "chain": chain(6),
    "cycle": cycle(5),
    "grid": grid(3, 3),
    "tree": binary_tree(3),
}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("name", sorted(DEDUCTIVE_CORPUS))
def test_deductive_corpus_routes_agree(name, graph):
    case = DEDUCTIVE_CORPUS[name]
    edges = [] if case.uses_functions else GRAPHS[graph]
    nodes = nodes_of(edges)
    atoms = [
        (predicate, row)
        for predicate, arity in case.program.arities().items()
        for row in itertools.product(nodes[:4], repeat=arity)
    ]
    assert_same_answers(
        case.program, edges_to_database(edges), translation_registry(), atoms
    )


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("name", sorted(ALGEBRA_CORPUS))
def test_translated_algebra_corpus_routes_agree(name, graph):
    case = ALGEBRA_CORPUS[name]
    environment = {
        "MOVE": edges_to_relation(GRAPHS[graph], "MOVE"),
        "A": Relation.of(1, 2, 3, 4, 5, name="A"),
        "B": Relation.of(3, 4, 5, 6, name="B"),
    }
    database = environment_to_database(
        {k: v for k, v in environment.items() if k in case.program.database_relations},
        {},
    )
    assert_same_answers(
        translate_program(case.program).program, database, translation_registry()
    )


def test_what_depends_on_an_undefined_atom_is_undefined():
    """``unreach`` + ``win`` + a reader of both, over a 2-cycle with a
    tail: the stratified base is total, ``win`` is undefined on the
    cycle, and ``stuck`` — above the cone — inherits that, not FALSE."""
    program = parse_program(
        DEDUCTIVE_CORPUS["unreachable"].source
        + """
        win(X) :- move(X, Y), not win(Y).
        stuck(X) :- node(X), not win(X), not unreach(X, X).
        """
    )
    a, b, c = nodes_of(chain(3))
    database = edges_to_database([(a, b), (b, a), (c, a)])
    assert open_cone(program) == {"win", "stuck"}
    assert_same_answers(program, database)
    for semantics in ("wellfounded", "valid"):
        result = run(program, database, semantics)
        assert result.undefined_rows("win") == {(a,), (b,), (c,)}
        assert result.undefined_rows("stuck") == {(a,), (b,)}
        assert result.truth_of("stuck", a) is Truth.UNDEFINED
        assert result.truth_of("stuck", c) is Truth.FALSE  # unreach(c, c) holds
        assert result.truth_of("unreach", c, c) is Truth.TRUE
        assert not result.is_total()
