"""S4: differential testing of demand-driven answers.

For every binding pattern, the demand path (magic rewrite + seeded
incremental entry) must return exactly the rows of the fully
materialized oracle that match the pattern — across semantics, through
seeded random edit sequences, for empty-seed constants (no matching rows at all), and on recursive
components with stratified negation.  The oracle is ``query_state`` on
the same service: the fully materialized base view, maintained through
a completely separate code path from the demand entries.
"""

import random

import pytest

from repro.relations import Atom
from repro.service import QueryService

PROGRAM = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
"""

NODES = [Atom(f"n{i}") for i in range(7)]
#: A constant that never appears in any fact — the empty-seed pattern.
GHOST = Atom("ghost")


def matches(row, pattern):
    return all(
        want is None or got == want for got, want in zip(row, pattern)
    )


def check_pattern(service, predicate, pattern):
    oracle_rows, oracle_undef, _ = service.query_state("demo", predicate)
    rows, undefined, _ = service.query_pattern("demo", predicate, pattern)
    expected = {r for r in oracle_rows if matches(r, pattern)}
    assert rows == expected, (
        f"{predicate}{pattern}: demand={sorted(map(str, rows))} "
        f"oracle={sorted(map(str, expected))}"
    )
    # Stratified-class semantics are total here; the demand path never
    # reports undefined rows and the oracle must not either.
    assert undefined <= {
        r for r in oracle_undef if matches(r, pattern)
    }


def patterns_for(rng):
    x, y = rng.choice(NODES), rng.choice(NODES)
    return [
        (x, None),
        (None, y),
        (x, y),
        (None, None),
        (GHOST, None),     # empty magic seed: no rows may leak
        (GHOST, y),
    ]


def seed_facts(service):
    for node in NODES:
        service.insert("demo", "node", node)
    for i in range(len(NODES) - 1):
        service.insert("demo", "edge", NODES[i], NODES[i + 1])


def run_differential(service, seed, steps=8):
    rng = random.Random(seed)
    seed_facts(service)
    edges = {(NODES[i], NODES[i + 1]) for i in range(len(NODES) - 1)}
    for _ in range(steps):
        if edges and rng.random() < 0.4:
            edge = rng.choice(sorted(edges, key=str))
            edges.discard(edge)
            service.delete("demo", "edge", *edge)
        else:
            edge = (rng.choice(NODES), rng.choice(NODES))
            edges.add(edge)
            service.insert("demo", "edge", *edge)
        for pattern in patterns_for(rng):
            check_pattern(service, "tc", pattern)
            check_pattern(service, "unreach", pattern)


def test_differential_stratified():
    service = QueryService()
    try:
        service.register("demo", PROGRAM)
        run_differential(service, seed=11)
        counters = service.metrics_snapshot()["counters"]
        # The bound patterns were served demand-driven, not by fallback.
        assert counters["demand_registrations"] > 0
        assert counters["demand_fallbacks"] == 0
    finally:
        service.close()


@pytest.mark.parametrize("semantics", ["wellfounded", "valid"])
def test_differential_alternate_semantics(semantics):
    # On stratified programs the well-founded and valid semantics agree
    # with the stratified least model, so demand entries (evaluated
    # stratified) must still match the oracle exactly.
    service = QueryService()
    try:
        service.register("demo", PROGRAM, semantics=semantics)
        run_differential(service, seed=23, steps=5)
    finally:
        service.close()


def test_differential_inflationary_falls_back():
    # Inflationary semantics is outside the demand envelope; patterns
    # must still answer correctly (by filtering the full view).
    service = QueryService()
    try:
        service.register("demo", PROGRAM, semantics="inflationary")
        run_differential(service, seed=31, steps=4)
        counters = service.metrics_snapshot()["counters"]
        assert counters["demand_registrations"] == 0
        assert counters["demand_fallbacks"] > 0
    finally:
        service.close()


def test_differential_annotated_views_fall_back():
    # Annotated views sit outside the demand envelope — the magic
    # rewrite is support-level and would drop annotations — so every
    # bound pattern must answer by filtering the full annotated model,
    # never by building a demand entry.
    service = QueryService(semiring="tropical")
    try:
        service.register("demo", PROGRAM)
        run_differential(service, seed=61, steps=4)
        counters = service.metrics_snapshot()["counters"]
        assert counters["demand_registrations"] == 0
        assert counters["demand_fallbacks"] > 0
    finally:
        service.close()


def test_differential_group_commit_write_path():
    # coalesce > 1 routes every edit through the ticket queue and the
    # leader's drain loop — the propagation path the burst applies use.
    service = QueryService(coalesce=4)
    try:
        service.register("demo", PROGRAM)
        run_differential(service, seed=47, steps=6)
    finally:
        service.close()


def test_differential_same_generation_recursion():
    # A nonlinear recursive component (the classic same-generation
    # program): demanded cones overlap and grow transitively.
    program = """
    sg(X, X) :- person(X).
    sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
    """
    people = [Atom(f"p{i}") for i in range(8)]
    parents = [(0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6), (6, 7)]
    service = QueryService()
    try:
        service.register("demo", program)
        for person in people:
            service.insert("demo", "person", person)
        for child, parent in parents:
            service.insert("demo", "par", people[child], people[parent])
        rng = random.Random(5)
        for _ in range(6):
            child, parent = rng.choice(parents)
            if rng.random() < 0.5:
                service.delete("demo", "par", people[child], people[parent])
            else:
                service.insert("demo", "par", people[child], people[parent])
            for bound in (people[0], people[3], GHOST):
                oracle, _, _ = service.query_state("demo", "sg")
                rows, _, _ = service.query_pattern("demo", "sg", (bound, None))
                assert rows == {r for r in oracle if r[0] == bound}
    finally:
        service.close()
