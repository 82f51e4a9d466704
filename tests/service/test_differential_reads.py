"""Differential fuzzing of the wait-free read path against an oracle.

Each schedule drives one :class:`QueryService` through a seeded-random
sequence of ``register`` / ``update`` / ``query`` / ``unregister``
operations across four views, and checks **every** answer the snapshot
path produces — certainly-true rows *and* undefined rows, via
``query_state`` so both come from one linearization point — against a
from-scratch evaluation of the view's program over its current
database (:func:`repro.datalog.engine.run`, the same oracle the
concurrency stress suite trusts).

Six service configurations are fuzzed, covering every maintenance
discipline a view can run under:

* ``stratified`` on the incremental fast path under **both** engines —
  the delta-stream circuit (``maintenance="dbsp"``, the default) and
  the counting/DRed baseline (``maintenance="legacy"``),
* ``stratified`` forced onto the recompute path (snapshot republished
  from full models),
* ``inflationary`` — the recompute discipline that remains for
  boolean views left on their default,
* ``wellfounded`` and ``valid``, with non-stratified programs in the
  mix so undefined rows actually occur: those run on the alternating
  chain of circuits and, like every engine-backed view, answer every
  read from a published snapshot without the view lock (asserted per
  check); the stratified programs beside them take the plain circuit.

The acceptance bar: 250+ schedules, zero oracle mismatches.  Schedules
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
from repro.service import QueryService

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

#: The six fuzzed service configurations:
#: (config id, semantics, incremental flag, maintenance, program pool).
CONFIGS = [
    ("stratified-dbsp", "stratified", True, "dbsp", STRATIFIED_POOL),
    ("stratified-legacy", "stratified", True, "legacy", STRATIFIED_POOL),
    ("stratified-recompute", "stratified", False, "dbsp", STRATIFIED_POOL),
    ("inflationary", "inflationary", True, "dbsp", THREE_VALUED_POOL),
    ("wellfounded", "wellfounded", True, "dbsp", THREE_VALUED_POOL),
    ("valid", "valid", True, "dbsp", THREE_VALUED_POOL),
]

pytestmark = pytest.mark.slow

#: The repo-wide seeded-suite scaling convention (pyproject markers):
#: REPRO_BENCH_SCALE=smoke shrinks the seed budget for quick local runs.
_SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

VIEWS = 4
OPS_PER_SCHEDULE = 12
#: 6 configs x 42 seeds = 252 schedules (x 7 at smoke).
SEEDS_PER_CONFIG = 7 if _SMOKE else 42
NODES = [Atom(f"n{i}") for i in range(5)]

_PARSED = {text: parse_program(text) for text, _, _ in THREE_VALUED_POOL}


def _seed_database(rng, update_predicates):
    database = Database()
    for predicate in update_predicates:
        database.declare(predicate)
    for predicate in update_predicates:
        for _ in range(rng.randint(1, 3)):
            database.add(predicate, *_random_row(rng, predicate))
    return database


def _random_row(rng, predicate):
    if predicate in ("edge", "move"):
        return (rng.choice(NODES), rng.choice(NODES))
    return (rng.choice(NODES),)


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
    if view.mode == "incremental":
        # Engine-backed, the alternating chain included: the lock-free
        # snapshot is always servable, no read waits for an evaluation.
        assert view.read_snapshot() is not None
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


def _register(service, rng, name, state, semantics, incremental, pool):
    program_text, query_predicates, update_predicates = rng.choice(pool)
    service.register(
        name,
        program_text,
        semantics=semantics,
        database=_seed_database(rng, update_predicates),
        incremental=incremental,
    )
    state[name] = (program_text, query_predicates, update_predicates)


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[config[0] for config in CONFIGS]
)
@pytest.mark.parametrize("seed", range(SEEDS_PER_CONFIG))
def test_random_schedule_matches_oracle(config, seed):
    config_id, semantics, incremental, maintenance, pool = config
    # A string seed hashes deterministically (unlike built-in hash()),
    # so a failing test id replays the exact schedule.
    rng = random.Random(f"{config_id}-{seed}")
    # Alternate the compactor mode schedule-by-schedule so the fuzz
    # also exercises reads over freshly compacted vs deep-chain cells.
    compactor = ("on-publish", "off")[seed % 2]
    service = QueryService(
        cache_capacity=32, compactor=compactor, compact_depth=2,
        compact_interval=3, maintenance=maintenance,
    )
    state = {}
    names = [f"v{i}" for i in range(VIEWS)]
    for name in names:
        _register(service, rng, name, state, semantics, incremental, pool)

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
        elif op < 0.55:  # a delete of existing or phantom facts
            _, _, update_predicates = state[name]
            predicate = rng.choice(update_predicates)
            existing = list(service.view(name).database.rows(predicate))
            deletes = [(predicate, _random_row(rng, predicate))]
            if existing:
                deletes.append((predicate, rng.choice(existing)))
            service.update(name, deletes=deletes)
        elif op < 0.85:  # the differential check itself
            _check_view(service, name, state, semantics)
        elif op < 0.95:  # replace the registration in place
            _register(
                service, rng, name, state, semantics, incremental, pool
            )
        else:  # full unregister + re-register cycle
            service.unregister(name)
            _register(
                service, rng, name, state, semantics, incremental, pool
            )

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
# database.  ``bool`` runs under both maintenance engines as the
# byte-identical baseline (its ``query_annotated`` must serve no
# annotations at all); ``naturals`` runs both annotated disciplines
# (weighted differential deltas and recompute-on-update); ``tropical``
# and ``why`` are recursive-safe (idempotent) and exercise the
# recompute discipline with recursion and negation in the mix.

from repro.datalog import annotated_model  # noqa: E402
from repro.semiring import get_semiring  # noqa: E402

#: Non-recursive, so every naturals annotation is derivation-finite on
#: any data — cyclic edges included.  (Recursive programs over cyclic
#: data diverge under ℕ, by design; see docs/SEMIRINGS.md.)
HOP = "hop(X, Z) :- edge(X, Y), edge(Y, Z).\n"

ACYCLIC_SAFE_POOL = [
    (HOP, ("hop", "edge"), ("edge",)),
]
IDEMPOTENT_POOL = [
    (TC, ("tc", "edge"), ("edge",)),
    (PAIRS, ("pair", "only_a"), ("a", "b")),
]

#: (config id, semiring, incremental flag, maintenance, pool,
#:  annotation texts drawn on inserts — () sends bare facts).
SEMIRING_CONFIGS = [
    ("bool-dbsp", "bool", True, "dbsp", STRATIFIED_POOL, ()),
    ("bool-legacy", "bool", True, "legacy", STRATIFIED_POOL, ()),
    ("naturals-differential", "naturals", True, "dbsp",
     ACYCLIC_SAFE_POOL, ("1", "2", "3")),
    ("naturals-recompute", "naturals", False, "dbsp",
     ACYCLIC_SAFE_POOL, ("1", "2", "3")),
    ("tropical", "tropical", True, "dbsp",
     IDEMPOTENT_POOL, ("0", "1", "2", "5")),
    ("why", "why", True, "dbsp", IDEMPOTENT_POOL, ()),
]

#: 6 configs x 12 seeds = 72 annotated schedules (x 4 at smoke).
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


def _register_annotated(
    service, rng, name, state, semiring_name, incremental, pool
):
    program_text, query_predicates, update_predicates = rng.choice(pool)
    service.register(
        name,
        program_text,
        semantics="stratified",
        database=_seed_database(rng, update_predicates),
        incremental=incremental,
        semiring=semiring_name,
    )
    state[name] = (program_text, query_predicates, update_predicates)


@pytest.mark.parametrize(
    "config", SEMIRING_CONFIGS, ids=[config[0] for config in SEMIRING_CONFIGS]
)
@pytest.mark.parametrize("seed", range(SEMIRING_SEEDS))
def test_random_semiring_schedule_matches_oracle(config, seed):
    config_id, semiring_name, incremental, maintenance, pool, texts = config
    rng = random.Random(f"{config_id}-{seed}")
    service = QueryService(
        cache_capacity=32,
        compactor=("on-publish", "off")[seed % 2],
        compact_depth=2,
        compact_interval=3,
        maintenance=maintenance,
    )
    state = {}
    names = [f"v{i}" for i in range(VIEWS)]
    for name in names:
        _register_annotated(
            service, rng, name, state, semiring_name, incremental, pool
        )

    for _ in range(OPS_PER_SCHEDULE):
        name = rng.choice(names)
        op = rng.random()
        if op < 0.35:  # insert burst, annotated where the algebra allows
            _, _, update_predicates = state[name]
            inserts = []
            annotations = {}
            for predicate in (
                rng.choice(update_predicates),
            ) * rng.randint(1, 3):
                row = _random_row(rng, predicate)
                inserts.append((predicate, row))
                if texts and rng.random() < 0.7:
                    # Wire-text annotations exercise the parse path;
                    # re-annotating a live fact is an absolute replace.
                    annotations[(predicate, row)] = rng.choice(texts)
            service.update(
                name, inserts=inserts, annotations=annotations or None
            )
        elif op < 0.55:  # delete existing or phantom facts
            _, _, update_predicates = state[name]
            predicate = rng.choice(update_predicates)
            existing = list(service.view(name).database.rows(predicate))
            deletes = [(predicate, _random_row(rng, predicate))]
            if existing:
                deletes.append((predicate, rng.choice(existing)))
            service.update(name, deletes=deletes)
        elif op < 0.85:  # the differential check itself
            _check_annotated_view(service, name, state, semiring_name)
        elif op < 0.95:  # replace the registration in place
            _register_annotated(
                service, rng, name, state, semiring_name, incremental, pool
            )
        else:  # full unregister + re-register cycle
            service.unregister(name)
            _register_annotated(
                service, rng, name, state, semiring_name, incremental, pool
            )

    # Quiescent sweep.
    for name in names:
        _check_annotated_view(service, name, state, semiring_name)
