"""Mid-flight differential fuzzing with a legal-version-set oracle.

The quiescent differential suite (``test_differential_reads``) checks
answers between operations; this one checks answers **during** them —
and, since PR 8, during *group-committed* ones: several writer threads
race the same view, the update queue's leader absorbs whole bursts into
single publishes, so a reader can observe states no single writer ever
submitted.  The classic "replay the writer's log" oracle breaks there;
what replaces it is a **legal version set**:

* every batch writer ``w`` submits carries a unique, never-deleted
  ``seq`` marker fact, so any published snapshot *names* exactly the
  set of batches it includes;
* writers own disjoint row slices (batches of different writers
  commute), so a state is **legal** iff each writer's included batches
  form a prefix of that writer's submit order — the FIFO queue can
  coalesce, but it can never reorder or skip;
* the oracle recomputes the model of that prefix vector from scratch
  (:func:`repro.datalog.engine.run`) and every row a reader saw —
  certainly-true and undefined, plus the markers themselves, all drawn
  from one immutable snapshot — must match it exactly;
* across ascending generations the prefix vector must be monotone
  (coordinate-wise non-decreasing): the linearization check that
  group commit only ever moves the published state *forward* along
  the acked-batch order.

Any torn publish (rows mixing two generations), stranded ticket
(a batch acked but never published, or published out of order), or
maintenance bug under coalescing shows up as a mismatch.  The whole
harness runs with the group-commit queue active.
"""

import os
import random
import threading

import pytest

pytestmark = pytest.mark.slow

from repro.datalog.database import Database
from repro.datalog.engine import run
from repro.datalog.parser import parse_program
from repro.relations import Atom
from repro.service import QueryService

TC = (
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
    "seen(I) :- seq(I).\n"
)
WIN = (
    "win(X) :- move(X, Y), not win(Y).\n"
    "seen(I) :- seq(I).\n"
)

#: (config id, program, semantics, query predicate, update predicate,
#:  semiring) — with the group-commit queue on.  The
#: tropical config runs the annotated engine under the same concurrent
#: writers: it is idempotent, so its *support* equals the boolean least
#: model and the prefix-replay oracle still applies (annotated updates
#: bypass the coalescing queue by design, which is exactly the routing
#: this config pins down under contention).  The inflationary
#: configs run the rebuild engine, over the win game and over the
#: closure: ``run()`` once per drained burst, published by the diff,
#: read off the snapshot like every other view.
CONFIGS = [
    ("stratified-dbsp", TC, "stratified", "tc", "edge", "bool"),
    ("wellfounded-dbsp", WIN, "wellfounded", "win", "move", "bool"),
    ("tropical-annotated", TC, "stratified", "tc", "edge", "tropical"),
    ("inflationary", WIN, "inflationary", "win", "move", "bool"),
    ("inflationary-tc", TC, "inflationary", "tc", "edge", "bool"),
]

NODES = [Atom(f"n{i}") for i in range(6)]
WRITERS = 3
BATCHES_PER_WRITER = 10
READERS = 3
#: Seeds per config; REPRO_BENCH_SCALE=smoke shrinks the matrix (the
#: repo-wide seeded-suite convention, see pyproject markers).
SEEDS = 2 if os.environ.get("REPRO_BENCH_SCALE") == "smoke" else 5

_PARSED = {TC: parse_program(TC), WIN: parse_program(WIN)}

#: Deterministic base facts, registered before any writer starts (the
#: prefix-vector (0, …, 0) state).
_BASE_ROWS = [(NODES[0], NODES[1]), (NODES[1], NODES[0])]


def _slice_nodes(writer):
    """Writer ``writer``'s exclusive first-coordinate nodes."""
    return [node for i, node in enumerate(NODES) if i % WRITERS == writer]


def _make_schedules(rng, predicate):
    """Per-writer batch lists: a unique ``seq`` marker plus 1–3
    mutations whose rows stay inside the writer's own slice (so batches
    of different writers commute and only submit order matters)."""
    schedules = []
    for writer in range(WRITERS):
        owned = _slice_nodes(writer)
        inserted = [
            row for row in _BASE_ROWS if row[0] in owned
        ]  # base rows this writer may legally delete
        batches = []
        for index in range(BATCHES_PER_WRITER):
            marker = (Atom(f"w{writer}b{index}"),)
            inserts = [("seq", marker)]
            deletes = []
            for _ in range(rng.randint(1, 3)):
                if inserted and rng.random() < 0.35:
                    deletes.append((predicate, rng.choice(inserted)))
                else:
                    row = (rng.choice(owned), rng.choice(NODES))
                    inserts.append((predicate, row))
                    inserted.append(row)
            batches.append((inserts, deletes))
        schedules.append(batches)
    return schedules


def _replay(schedules, prefix, predicate):
    """The database after the base facts plus each writer's first
    ``prefix[w]`` batches (writer order is immaterial — disjoint
    slices — and within a writer the submit order is replayed)."""
    database = Database()
    database.declare("seq")
    for row in _BASE_ROWS:
        database.add(predicate, *row)
    for writer, count in enumerate(prefix):
        for inserts, deletes in schedules[writer][:count]:
            # Deletes before inserts, matching the engines' batch order.
            for pred, row in deletes:
                if database.holds(pred, *row):
                    database.remove(pred, *row)
            for pred, row in inserts:
                if not database.holds(pred, *row):
                    database.add(pred, *row)
    return database


def _prefix_of(markers, config_id, seed):
    """Decode a snapshot's marker rows into a prefix vector, asserting
    prefix-closedness (the FIFO queue must never skip a batch)."""
    included = [set() for _ in range(WRITERS)]
    for (marker,) in markers:
        text = marker.name  # "w<writer>b<index>"
        writer, index = text[1:].split("b")
        included[int(writer)].add(int(index))
    prefix = []
    for writer, indices in enumerate(included):
        assert indices == set(range(len(indices))), (
            f"writer {writer}'s included batches {sorted(indices)} are "
            f"not a prefix under {config_id} (seed {seed}) — the queue "
            f"skipped or reordered a batch"
        )
        prefix.append(len(indices))
    return tuple(prefix)


def _reader_loop(service, name, view, query_predicate, stop, observations):
    """Record (generation, true, undefined, markers) per new generation
    — all four drawn from one immutable snapshot."""
    seen = set()
    while not stop.is_set():
        service.query_state(name, query_predicate)
        snapshot = view.read_snapshot()
        if snapshot.generation not in seen:
            seen.add(snapshot.generation)
            observations.append(
                (
                    snapshot.generation,
                    snapshot.rows(query_predicate),
                    snapshot.undefined_rows(query_predicate),
                    snapshot.rows("seq"),
                )
            )


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[config[0] for config in CONFIGS]
)
@pytest.mark.parametrize("seed", range(SEEDS))
def test_midflight_answers_form_a_monotone_legal_version_chain(config, seed):
    (
        config_id, program, semantics, query_predicate, update_predicate,
        semiring,
    ) = config
    rng = random.Random(f"{config_id}-midflight-{seed}")
    schedules = _make_schedules(rng, update_predicate)
    service = QueryService(coalesce=8)
    try:
        name = "mid"
        base = Database()
        base.declare("seq")
        for row in _BASE_ROWS:
            base.add(update_predicate, *row)
        service.register(
            name, program, semantics=semantics, database=base,
            semiring=semiring,
        )
        view = service.view(name)
        if semantics == "wellfounded":
            assert view.alternation_levels() >= 2
        assert view.mode == (
            "recompute" if semantics == "inflationary" else "incremental"
        )

        observations = [[] for _ in range(READERS)]
        failures = []
        stop = threading.Event()
        readers = [
            threading.Thread(
                target=_reader_loop,
                args=(
                    service, name, view, query_predicate, stop,
                    observations[i],
                ),
            )
            for i in range(READERS)
        ]

        def writer_loop(batches):
            try:
                for inserts, deletes in batches:
                    service.update(name, inserts=inserts, deletes=deletes)
            except BaseException as exc:  # surfaced after join
                failures.append(exc)

        writers = [
            threading.Thread(target=writer_loop, args=(schedule,))
            for schedule in schedules
        ]
        for thread in readers:
            thread.start()
        try:
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        assert not failures, failures
        assert not any(t.is_alive() for t in readers + writers)

        # The quiescent endpoint is itself an observation: every acked
        # batch must be visible once the writers drain.
        final = view.read_snapshot()
        merged = [obs for reader in observations for obs in reader] + [
            (
                final.generation,
                final.rows(query_predicate),
                final.undefined_rows(query_predicate),
                final.rows("seq"),
            )
        ]

        # (a) Same generation ⇒ same answer, whoever read it.
        by_generation = {}
        for generation, rows, undefined, markers in merged:
            answer = (rows, undefined, markers)
            assert by_generation.setdefault(generation, answer) == answer, (
                f"two readers disagree on generation {generation} under "
                f"{config_id} (seed {seed}) — a torn publish"
            )

        # (b) Per reader, generations never run backwards.
        for recorded in observations:
            generations = [generation for generation, *_ in recorded]
            assert generations == sorted(generations)

        # (c) Every observed state is a legal version, and the chain of
        # prefix vectors is monotone in generation order.
        oracle_cache = {}
        previous_prefix = (0,) * WRITERS
        for generation in sorted(by_generation):
            rows, undefined, markers = by_generation[generation]
            prefix = _prefix_of(markers, config_id, seed)
            assert all(
                new >= old for new, old in zip(prefix, previous_prefix)
            ), (
                f"generation {generation} rolled writer progress back "
                f"from {previous_prefix} to {prefix} under {config_id} "
                f"(seed {seed})"
            )
            previous_prefix = prefix
            if prefix not in oracle_cache:
                oracle_cache[prefix] = run(
                    _PARSED[program],
                    _replay(schedules, prefix, update_predicate),
                    semantics=semantics,
                )
            oracle = oracle_cache[prefix]
            assert rows == oracle.true_rows(query_predicate), (
                f"true-row mismatch at generation {generation} "
                f"(prefix {prefix}) under {config_id} (seed {seed})"
            )
            assert undefined == oracle.undefined_rows(query_predicate), (
                f"undefined-row mismatch at generation {generation} "
                f"(prefix {prefix}) under {config_id} (seed {seed})"
            )

        # (d) The writers finished, so the final prefix is complete.
        assert previous_prefix == (BATCHES_PER_WRITER,) * WRITERS

        # (e) The race actually happened: readers sampled more than the
        # endpoint states.
        assert len(by_generation) >= 2, (
            "readers never caught a mid-flight state"
        )
    finally:
        service.close()
