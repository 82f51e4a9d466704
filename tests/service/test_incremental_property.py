"""Randomized consistency property for incremental maintenance.

After ANY interleaving of inserts and deletes, the incrementally
maintained model must equal ``seminaive_stratified`` run from scratch
on the same extensional state.  We drive a materialized view through
random update sequences (single-fact and small batches) over a
stratified program with recursion and negation, checking equality
after every step.
"""

import random

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import seminaive_stratified
from repro.relations import Atom
from repro.service import MaterializedView, prepare_program

PROGRAM = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
reach(Y) :- source(X), tc(X, Y).
unreach(X) :- node(X), not reach(X).
"""

NODES = [Atom(f"n{i}") for i in range(6)]


def fresh_view(rng):
    db = Database()
    for node in NODES:
        db.add("node", node)
    db.add("source", NODES[0])
    universe = [(x, y) for x in NODES for y in NODES if x != y]
    for pair in rng.sample(universe, 8):
        db.add("edge", *pair)
    return MaterializedView(prepare_program("prop", PROGRAM), db), universe


def assert_matches_scratch(view, step):
    scratch = seminaive_stratified(parse_program(PROGRAM), view.engine.edb)
    model = view.engine.model()
    for predicate in set(scratch) | set(model):
        assert scratch.get(predicate, frozenset()) == model.get(
            predicate, frozenset()
        ), f"step {step}: {predicate} diverged"


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 23])
def test_random_single_fact_interleavings(seed):
    rng = random.Random(seed)
    view, universe = fresh_view(rng)
    assert_matches_scratch(view, "init")
    for step in range(40):
        pair = rng.choice(universe)
        if view.engine.edb.holds("edge", *pair):
            view.delete("edge", *pair)
        else:
            view.insert("edge", *pair)
        assert_matches_scratch(view, step)


@pytest.mark.parametrize("seed", [3, 11])
def test_random_batched_interleavings(seed):
    rng = random.Random(seed)
    view, universe = fresh_view(rng)
    for step in range(15):
        inserts, deletes = [], []
        for pair in rng.sample(universe, rng.randint(1, 5)):
            if view.engine.edb.holds("edge", *pair):
                deletes.append(("edge", pair))
            else:
                inserts.append(("edge", pair))
        view.apply(inserts=inserts, deletes=deletes)
        assert_matches_scratch(view, step)


@pytest.mark.parametrize("seed", [5])
def test_interleaving_touching_every_relation(seed):
    """Updates to node/source (the negation stratum inputs) also maintain."""
    rng = random.Random(seed)
    view, _ = fresh_view(rng)
    extra = Atom("extra")
    moves = [
        ("node", (extra,)),
        ("source", (NODES[3],)),
        ("edge", (NODES[0], extra)),
    ]
    for step in range(12):
        predicate, row = rng.choice(moves)
        if view.engine.edb.holds(predicate, *row):
            view.delete(predicate, *row)
        else:
            view.insert(predicate, *row)
        assert_matches_scratch(view, step)
