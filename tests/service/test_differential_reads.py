"""Differential fuzzing of the wait-free read path against an oracle.

Each schedule drives one :class:`QueryService` through a seeded-random
sequence of ``register`` / ``update`` / ``query`` / ``unregister``
operations across four views, and checks **every** answer the snapshot
path produces — certainly-true rows *and* undefined rows, via
``query_state`` so both come from one linearization point — against a
from-scratch evaluation of the view's program over its current
database (:func:`repro.datalog.engine.run`, the same oracle the
concurrency stress suite trusts).

Five service configurations are fuzzed, covering every engine a
boolean view can run on:

* ``stratified`` on the delta-stream circuit, once over the small pool
  and once over the recursive shapes the annotated axis below also
  draws (nonlinear and mutual recursion, a negation gate inside a
  recursive component, three strata),
* ``inflationary`` on the rebuild engine (``run()`` once per burst,
  published by the diff), over a pool that also negates a database
  predicate (``not`` of a fact holds in the first
  inflationary stage: the stages start from nothing),
* ``wellfounded`` and ``valid``, with non-stratified programs in the
  mix so undefined rows actually occur: those run on the alternating
  chain of circuits; the stratified programs beside them take the
  plain circuit.

Every view, whatever its engine, is always servable from a published
snapshot: after every batch the schedule reads the view and checks the
read came off the snapshot (``snapshot_reads`` moved).

The acceptance bar: 250 schedules, zero oracle mismatches.  Schedules
are deterministic per seed, so any failure is replayable from the test
id alone.
"""

import os
import random

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import run
from repro.datalog.parser import parse_program
from repro.relations import Atom
from repro.service import QueryService, views

#: Stratified-safe programs (registerable under every semantics).
TC = (
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
)
PAIRS = (
    "pair(X) :- a(X), b(X).\n"
    "only_a(X) :- a(X), not b(X).\n"
)

#: Non-stratified: ``win`` has undefined rows on move cycles under the
#: three-valued semantics — the answers that make the undefined-rows
#: half of the differential check earn its keep.
WIN = "win(X) :- move(X, Y), not win(Y).\n"

#: (program text, query predicates, update predicates)
STRATIFIED_POOL = [
    (TC, ("tc", "edge"), ("edge",)),
    (PAIRS, ("pair", "only_a"), ("a", "b")),
]
THREE_VALUED_POOL = STRATIFIED_POOL + [
    (WIN, ("win", "move"), ("move",)),
]
#: A negated database predicate: under the inflationary semantics
#: ``not m(X)`` is read against stage 0, before any fact is in.
NEG_EDB = "p(X) :- n(X), not m(X).\n"
INFLATIONARY_POOL = THREE_VALUED_POOL + [
    (NEG_EDB, ("p", "n", "m"), ("n", "m")),
]

#: A negation gate *inside* a recursive component.  On a cycle, rows of
#: ``r`` support each other: when ``+cut(a, b)`` closes the gate under
#: one of them, invalidating only through positive changes leaves them
#: holding each other up at stale costs (count-to-infinity).
GATED = (
    "r(X, Y) :- e(X, Y), not cut(X, Y).\n"
    "r(X, Z) :- r(X, Y), e(Y, Z), not cut(Y, Z).\n"
)
NONLINEAR = (
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), tc(Y, Z).\n"
)
MUTUAL = (
    "odd(X, Y) :- edge(X, Y).\n"
    "odd(X, Z) :- even(X, Y), edge(Y, Z).\n"
    "even(X, Z) :- odd(X, Y), edge(Y, Z).\n"
)
STRATA = (
    TC
    + "apart(X, Y) :- node(X), node(Y), not tc(X, Y).\n"
    "lacks(X) :- apart(X, Y).\n"
    "full(X) :- node(X), not lacks(X).\n"
)
#: Recursive shapes the delta circuit and the annotated engine have to
#: get right: linear, nonlinear and mutual recursion, a negation gate
#: inside a recursive component, three strata with ``not`` between them.
RECURSIVE_POOL = [
    (TC, ("tc", "edge"), ("edge",)),
    (NONLINEAR, ("tc", "edge"), ("edge",)),
    (MUTUAL, ("odd", "even", "edge"), ("edge",)),
    (GATED, ("r", "e", "cut"), ("e", "cut")),
    (STRATA, ("tc", "apart", "lacks", "full"), ("edge", "node")),
]

#: The five fuzzed service configurations:
#: (config id, semantics, program pool).
CONFIGS = [
    ("stratified-dbsp", "stratified", STRATIFIED_POOL),
    ("stratified-recursive", "stratified", RECURSIVE_POOL),
    ("inflationary", "inflationary", INFLATIONARY_POOL),
    ("wellfounded", "wellfounded", THREE_VALUED_POOL),
    ("valid", "valid", THREE_VALUED_POOL),
]

pytestmark = pytest.mark.slow

#: The repo-wide seeded-suite scaling convention (pyproject markers):
#: REPRO_BENCH_SCALE=smoke shrinks the seed budget for quick local runs.
_SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

VIEWS = 4
OPS_PER_SCHEDULE = 12
#: 5 configs x 50 seeds = 250 schedules (x 7 at smoke).
SEEDS_PER_CONFIG = 7 if _SMOKE else 50
NODES = [Atom(f"n{i}") for i in range(5)]

_PARSED = {
    text: parse_program(text)
    for text, _, _ in INFLATIONARY_POOL + RECURSIVE_POOL
}


def _seed_database(rng, update_predicates, **shape):
    database = Database()
    for predicate in update_predicates:
        database.declare(predicate)
    for predicate in update_predicates:
        for _ in range(rng.randint(1, 3)):
            database.add(predicate, *_random_row(rng, predicate, **shape))
    return database


#: Update predicates of arity two; every other one is unary.
BINARY = ("edge", "move", "e", "cut")


def _random_row(rng, predicate, nodes=len(NODES), acyclic=False):
    """A row over the first ``nodes`` nodes; ``acyclic`` keeps binary
    rows forward (``i < j``), so no set of them closes a cycle."""
    if predicate not in BINARY:
        return (NODES[rng.randrange(nodes)],)
    if acyclic:
        i, j = sorted(rng.sample(range(nodes), 2))
    else:
        i, j = rng.randrange(nodes), rng.randrange(nodes)
    return (NODES[i], NODES[j])


def _oracle(program_text, database, semantics):
    """From-scratch ground truth for one view's current database."""
    result = run(_PARSED[program_text], database, semantics=semantics)
    return result


def _check_view(service, name, state, semantics):
    """Compare every predicate's query_state answer with the oracle."""
    program_text, query_predicates, _ = state[name]
    view = service.view(name)
    database = view.database
    oracle = _oracle(program_text, database, semantics)
    assert (view.alternation_levels() > 0) == (
        semantics in ("valid", "wellfounded") and program_text is WIN
    )
    for predicate in query_predicates:
        rows, undefined, stale = service.query_state(name, predicate)
        assert not stale
        expected_true = oracle.true_rows(predicate)
        expected_undefined = oracle.undefined_rows(predicate)
        assert rows == expected_true, (
            f"true-row mismatch on {name}/{predicate} under {semantics}: "
            f"service={sorted(map(repr, rows))} "
            f"oracle={sorted(map(repr, expected_true))}"
        )
        assert undefined == expected_undefined, (
            f"undefined-row mismatch on {name}/{predicate} under "
            f"{semantics}: service={sorted(map(repr, undefined))} "
            f"oracle={sorted(map(repr, expected_undefined))}"
        )


def _assert_served_from_snapshot(service, name, state):
    """After a batch: the view has a published snapshot, and a read is
    answered off it (lock-free) — whatever engine maintains the view."""
    view = service.view(name)
    assert view.read_snapshot() is not None
    before = view.metrics.counters["snapshot_reads"]
    service.query_state(name, state[name][1][0])
    assert view.metrics.counters["snapshot_reads"] == before + 1


def _register(service, rng, name, state, semantics, pool):
    program_text, query_predicates, update_predicates = rng.choice(pool)
    service.register(
        name,
        program_text,
        semantics=semantics,
        database=_seed_database(rng, update_predicates),
    )
    state[name] = (program_text, query_predicates, update_predicates)


def _compaction_schedule(monkeypatch, seed):
    """Alternate compaction schedule-by-schedule so the fuzz also
    exercises reads over freshly compacted vs deep-chain cells."""
    monkeypatch.setattr(views, "COMPACT_DEPTH", 2)
    monkeypatch.setattr(views, "COMPACT_INTERVAL", (3, 10**9)[seed % 2])


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[config[0] for config in CONFIGS]
)
@pytest.mark.parametrize("seed", range(SEEDS_PER_CONFIG))
def test_random_schedule_matches_oracle(config, seed, monkeypatch):
    config_id, semantics, pool = config
    # A string seed hashes deterministically (unlike built-in hash()),
    # so a failing test id replays the exact schedule.
    rng = random.Random(f"{config_id}-{seed}")
    _compaction_schedule(monkeypatch, seed)
    service = QueryService(cache_capacity=32)
    state = {}
    names = [f"v{i}" for i in range(VIEWS)]
    for name in names:
        _register(service, rng, name, state, semantics, pool)

    for _ in range(OPS_PER_SCHEDULE):
        name = rng.choice(names)
        op = rng.random()
        if op < 0.35:  # an insert burst (stacks snapshot delta cells)
            _, _, update_predicates = state[name]
            inserts = [
                (predicate, _random_row(rng, predicate))
                for predicate in (
                    rng.choice(update_predicates),
                ) * rng.randint(1, 3)
            ]
            service.update(name, inserts=inserts)
            _assert_served_from_snapshot(service, name, state)
        elif op < 0.55:  # a delete of existing or phantom facts
            _, _, update_predicates = state[name]
            predicate = rng.choice(update_predicates)
            existing = list(service.view(name).database.rows(predicate))
            deletes = [(predicate, _random_row(rng, predicate))]
            if existing:
                deletes.append((predicate, rng.choice(existing)))
            service.update(name, deletes=deletes)
            _assert_served_from_snapshot(service, name, state)
        elif op < 0.85:  # the differential check itself
            _check_view(service, name, state, semantics)
        elif op < 0.95:  # replace the registration in place
            _register(service, rng, name, state, semantics, pool)
        else:  # full unregister + re-register cycle
            service.unregister(name)
            _register(service, rng, name, state, semantics, pool)

    # Quiescent sweep: every surviving view still agrees with the
    # oracle on every predicate.
    for name in names:
        _check_view(service, name, state, semantics)


# ---------------------------------------------------------------------------
# The semiring axis: annotated views against the annotated oracle
# ---------------------------------------------------------------------------
#
# Same schedule shape as above, but each view is registered under an
# annotation semiring and every check compares both the *support* and
# the *annotation wire text* of every answer against a from-scratch
# :func:`repro.datalog.annotated_model` over the view's current
# database.  ``bool`` runs on the circuit as the byte-identical
# baseline (its ``query_annotated`` must serve no annotations at all),
# over the small pool and over the recursive shapes.
# Every annotated view is maintained by the one
# discipline of :class:`~repro.service.annotated.AnnotatedEngine`
# (invalidate the cone, re-derive from below), so the axis crosses
# the semirings with the program shapes that discipline has to get
# right: linear, nonlinear and mutual recursion, negation gates inside
# a recursive component, three strata with ``not`` between them, on
# cyclic data where the algebra converges there (``tropical``; ``why``
# on pools small enough for the oracle itself) and on forward-only
# pools for ``naturals``, whose bag annotations are finite exactly on
# acyclic derivation spaces (docs/SEMIRINGS.md).  The gate gets a
# config of its own under every annotated semiring, since a recursive
# pool draws it for only one view in five.

from typing import NamedTuple  # noqa: E402

from repro.datalog import annotated_model  # noqa: E402
from repro.semiring import get_semiring  # noqa: E402

#: Non-recursive, so every naturals annotation is derivation-finite on
#: any data — cyclic edges included.
HOP = "hop(X, Z) :- edge(X, Y), edge(Y, Z).\n"
ACYCLIC_SAFE_POOL = [
    (HOP, ("hop", "edge"), ("edge",)),
]
IDEMPOTENT_POOL = [
    (TC, ("tc", "edge"), ("edge",)),
    (PAIRS, ("pair", "only_a"), ("a", "b")),
]
GATED_POOL = [
    (GATED, ("r", "e", "cut"), ("e", "cut")),
]


class SemiringConfig(NamedTuple):
    config_id: str
    semiring: str
    pool: list
    #: Annotation texts drawn on inserts — () sends bare facts.
    texts: tuple = ()
    #: Rows range over this many nodes, forward-only when ``acyclic``.
    nodes: int = len(NODES)
    acyclic: bool = False


#: "naturals-differential" predates the single discipline; the id is
#: kept so the test ids stay put.
SEMIRING_CONFIGS = [
    SemiringConfig("bool-dbsp", "bool", STRATIFIED_POOL),
    SemiringConfig("bool-recursive-cyclic", "bool", RECURSIVE_POOL),
    SemiringConfig("naturals-differential", "naturals",
                   ACYCLIC_SAFE_POOL, ("1", "2", "3")),
    SemiringConfig("naturals-recursive-dag", "naturals",
                   RECURSIVE_POOL, ("1", "2", "3"), acyclic=True),
    SemiringConfig("naturals-gated-dag", "naturals",
                   GATED_POOL, ("1", "2", "3"), acyclic=True),
    SemiringConfig("tropical", "tropical",
                   IDEMPOTENT_POOL, ("0", "1", "2", "5")),
    SemiringConfig("tropical-recursive-cyclic", "tropical",
                   RECURSIVE_POOL, ("0", "1", "2", "5")),
    SemiringConfig("tropical-gated-cyclic", "tropical",
                   GATED_POOL, ("0", "1", "2", "5")),
    SemiringConfig("why", "why", IDEMPOTENT_POOL),
    SemiringConfig("why-gated-cyclic", "why", GATED_POOL, nodes=4),
    SemiringConfig("why-recursive-cyclic", "why", RECURSIVE_POOL, nodes=3),
]

#: 11 configs x 12 seeds = 132 annotated schedules (x 4 at smoke).
SEMIRING_SEEDS = 4 if _SMOKE else 12

_PARSED.update(
    {text: parse_program(text) for text, _, _ in ACYCLIC_SAFE_POOL}
)


def _check_annotated_view(service, name, state, semiring_name):
    """Support *and* annotation text of every answer vs the oracle."""
    program_text, query_predicates, _ = state[name]
    semiring = get_semiring(semiring_name)
    database = service.view(name).database
    oracle = annotated_model(_PARSED[program_text], database, semiring)
    for predicate in query_predicates:
        rows, undefined, stale, annotations = service.query_annotated(
            name, predicate
        )
        assert not stale
        assert not undefined
        expected = oracle.get(predicate, {})
        assert rows == frozenset(expected), (
            f"support mismatch on {name}/{predicate} under "
            f"{semiring_name}: service={sorted(map(repr, rows))} "
            f"oracle={sorted(map(repr, expected))}"
        )
        if semiring_name == "bool":
            # The baseline: boolean views never construct annotation
            # tables, so the wire serves none.
            assert annotations is None
        else:
            expected_texts = {
                row: semiring.format(weight)
                for row, weight in expected.items()
            }
            assert dict(annotations) == expected_texts, (
                f"annotation mismatch on {name}/{predicate} under "
                f"{semiring_name}: service={dict(annotations)!r} "
                f"oracle={expected_texts!r}"
            )


def _register_annotated(service, rng, name, state, config):
    program_text, query_predicates, update_predicates = rng.choice(config.pool)
    service.register(
        name,
        program_text,
        semantics="stratified",
        database=_seed_database(
            rng, update_predicates, nodes=config.nodes, acyclic=config.acyclic
        ),
        semiring=config.semiring,
    )
    state[name] = (program_text, query_predicates, update_predicates)


@pytest.mark.parametrize(
    "config", SEMIRING_CONFIGS, ids=[config[0] for config in SEMIRING_CONFIGS]
)
@pytest.mark.parametrize("seed", range(SEMIRING_SEEDS))
def test_random_semiring_schedule_matches_oracle(config, seed, monkeypatch):
    rng = random.Random(f"{config.config_id}-{seed}")
    _compaction_schedule(monkeypatch, seed)
    service = QueryService(cache_capacity=32)
    state = {}
    names = [f"v{i}" for i in range(VIEWS)]
    for name in names:
        _register_annotated(service, rng, name, state, config)

    def row(predicate):
        return _random_row(rng, predicate, config.nodes, config.acyclic)

    def annotate(annotations, predicate, fact_row, share):
        # Wire-text annotations exercise the parse path; re-annotating
        # a live fact is an absolute replace.
        if config.texts and rng.random() < share:
            annotations[(predicate, fact_row)] = rng.choice(config.texts)

    for _ in range(OPS_PER_SCHEDULE):
        name = rng.choice(names)
        _, _, update_predicates = state[name]
        op = rng.random()
        if op < 0.3:  # insert burst, annotated where the algebra allows
            inserts = []
            annotations = {}
            for predicate in (
                rng.choice(update_predicates),
            ) * rng.randint(1, 3):
                inserts.append((predicate, row(predicate)))
                annotate(annotations, *inserts[-1], 0.7)
            service.update(
                name, inserts=inserts, annotations=annotations or None
            )
            _assert_served_from_snapshot(service, name, state)
        elif op < 0.45:  # delete existing or phantom facts
            predicate = rng.choice(update_predicates)
            existing = list(service.view(name).database.rows(predicate))
            deletes = [(predicate, row(predicate))]
            if existing:
                deletes.append((predicate, rng.choice(existing)))
            service.update(name, deletes=deletes)
            _assert_served_from_snapshot(service, name, state)
        elif op < 0.6:  # one live fact deleted, re-inserted, re-annotated
            predicate = rng.choice(update_predicates)
            existing = list(service.view(name).database.rows(predicate))
            if existing:
                fact = (predicate, rng.choice(existing))
                annotations = {}
                annotate(annotations, *fact, 0.8)
                # Deletes apply first, so the fact comes back bare or
                # under the new annotation — or is only re-annotated.
                service.update(
                    name,
                    inserts=[fact],
                    deletes=[fact] if rng.random() < 0.6 else [],
                    annotations=annotations or None,
                )
                _assert_served_from_snapshot(service, name, state)
        elif op < 0.85:  # the differential check itself
            _check_annotated_view(service, name, state, config.semiring)
        elif op < 0.95:  # replace the registration in place
            _register_annotated(service, rng, name, state, config)
        else:  # full unregister + re-register cycle
            service.unregister(name)
            _register_annotated(service, rng, name, state, config)

    # Quiescent sweep.
    for name in names:
        _check_annotated_view(service, name, state, config.semiring)
