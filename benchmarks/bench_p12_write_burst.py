"""P12 — write bursts: one engine pass per burst vs one per batch.

A burst of N update batches handed to a view at once is differentiated
into one net Z-set — insertions and retractions of the same fact cancel
*before any rule fires* — and costs one circuit pass plus one snapshot
publish, where the same engine fed the same batches one at a time pays
N maintenance rounds and N publishes.  The headline bar: on a
churn-heavy transitive-closure workload at 64-batch bursts,
``apply_stream`` sustains **>= 3x** the throughput of per-batch
``apply`` on the same engine (>= 1.5x under ``REPRO_BENCH_SCALE=smoke``,
where fixed costs dominate the shorter stream).

Two scenarios:

* ``burst`` — the view in isolation: the batch stream applied one
  batch at a time (``view.apply``, what ``coalesce=1`` serves) and in
  bursts of 8 / 64 via ``apply_stream`` (the drain path the
  group-commit leader runs);
* ``group-commit`` — the full service under 8 racing writer threads
  pushing single-batch updates through ``service.update``: the leader
  coalesces whatever contention piles up (``coalesce=64``) or drains
  per batch (``coalesce=1``).

Every arm checks its final model against the per-batch one, so the
speedup is for byte-identical results.
"""

import os
import threading

import pytest

from repro.relations import Atom
from repro.service import MaterializedView, QueryService, prepare_program

from support import ExperimentTable, timed

SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

#: Total update batches per measured stream (divisible by 64).
BATCHES = 192 if SMOKE else 640
#: Burst sizes for the view-level scenario (1 is the per-batch row).
BURSTS = (8, 64)
#: Writer threads for the service-level scenario.
WRITERS = 8
#: The headline acceptance bar at 64-batch bursts.
MIN_SPEEDUP = 1.5 if SMOKE else 3.0

RULES = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
#: Chain length: every insert extends a live transitive closure, so
#: per-batch maintenance does real work.
CHAIN = 24

table = ExperimentTable(
    "P12-write-burst",
    "64-batch bursts through apply_stream sustain >= 3x the per-batch "
    "apply throughput of the same engine (>= 1.5x at smoke scale), "
    "byte-identical final models",
    [
        "scenario",
        "path",
        "burst",
        "batches",
        "seconds",
        "batches-per-sec",
        "speedup-vs-per-batch",
    ],
)


def _batch_stream(count):
    """``count`` churn-heavy batches over growing chains: two chain
    extensions plus one retraction of a recently added edge, so a
    burst cancels much of its own work before the rules see it."""
    batches = []
    live = []
    chain = 0
    position = 0
    while len(batches) < count:
        if position >= CHAIN:
            chain += 1
            position = 0
        a = Atom(f"c{chain}n{position}")
        b = Atom(f"c{chain}n{position + 1}")
        c = Atom(f"c{chain}n{position + 2}")
        inserts = [("edge", (a, b)), ("edge", (b, c))]
        live.extend(row for _, row in inserts)
        deletes = []
        if len(live) > 3 and len(batches) % 2:
            deletes.append(("edge", live.pop(-3)))
        batches.append((inserts, deletes))
        position += 2
    return batches


def _fresh_view():
    return MaterializedView(prepare_program("p12", RULES))


def _run_per_batch(batches):
    view = _fresh_view()
    for inserts, deletes in batches:
        view.apply(inserts=inserts, deletes=deletes)
    return view


def _run_bursts(batches, burst):
    view = _fresh_view()
    for start in range(0, len(batches), burst):
        view.apply_stream(batches[start:start + burst])
    return view


@pytest.mark.parametrize("burst", BURSTS)
def test_burst_absorption_vs_per_batch_apply(benchmark, burst):
    batches = _batch_stream(BATCHES)
    # Best-of-2 on both sides: the claim is a ratio.
    per_batch_view, _ = timed(_run_per_batch, batches)
    _, per_batch_sec = timed(_run_per_batch, batches)
    burst_view, _ = timed(_run_bursts, batches, burst)
    _, burst_sec = timed(_run_bursts, batches, burst)
    benchmark.pedantic(_run_bursts, args=(batches, burst), rounds=1, iterations=1)

    assert burst_view.engine.model() == per_batch_view.engine.model()
    assert (
        burst_view.read_snapshot().fingerprint
        == per_batch_view.read_snapshot().fingerprint
    )
    speedup = per_batch_sec / burst_sec
    if burst == BURSTS[0]:
        table.add(
            "burst", "per-batch apply", 1, BATCHES,
            f"{per_batch_sec:.4f}", f"{BATCHES / per_batch_sec:.0f}", "1.00x",
        )
    table.add(
        "burst", "apply_stream", burst, BATCHES,
        f"{burst_sec:.4f}", f"{BATCHES / burst_sec:.0f}", f"{speedup:.2f}x",
    )
    if burst == 64:
        assert speedup >= MIN_SPEEDUP, (
            f"64-batch bursts reached only {speedup:.2f}x the per-batch "
            f"apply throughput (bar: {MIN_SPEEDUP}x; "
            f"{burst_sec:.4f}s vs {per_batch_sec:.4f}s for {BATCHES} batches)"
        )


def _run_service(coalesce, batches):
    """Push the stream through ``service.update`` from WRITERS threads."""
    service = QueryService(coalesce=coalesce)
    try:
        service.register("g", RULES)
        failures = []

        def writer(slice_):
            try:
                for inserts, deletes in slice_:
                    service.update("g", inserts=inserts, deletes=deletes)
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(batches[w::WRITERS],))
            for w in range(WRITERS)
        ]

        def run():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        _, seconds = timed(run)
        assert not failures, failures
        rows = service.query("g", "tc")
        coalesced = service.view("g").metrics.counters[
            "delta_batches_coalesced"
        ]
        return seconds, rows, coalesced
    finally:
        service.close()


def test_group_commit_under_writer_contention(benchmark):
    """8 racing writers: a ``coalesce=64`` leader drains bursts, a
    ``coalesce=1`` service applies every batch on its own.

    The deletes are withheld from this scenario so the final model is
    order-independent across thread interleavings and both services
    can be checked row-for-row against each other.
    """
    batches = [
        (inserts, []) for inserts, _ in _batch_stream(BATCHES)
    ]
    per_batch_sec, per_batch_rows, _ = _run_service(1, batches)
    burst_sec, burst_rows, coalesced = _run_service(64, batches)
    benchmark.pedantic(_run_service, args=(64, batches), rounds=1, iterations=1)
    assert burst_rows == per_batch_rows
    speedup = per_batch_sec / burst_sec
    table.add(
        "group-commit", "coalesce=1", 1, BATCHES,
        f"{per_batch_sec:.4f}", f"{BATCHES / per_batch_sec:.0f}", "1.00x",
    )
    table.add(
        "group-commit", "coalesce=64", f"<=64 ({coalesced} coalesced)", BATCHES,
        f"{burst_sec:.4f}", f"{BATCHES / burst_sec:.0f}", f"{speedup:.2f}x",
    )
