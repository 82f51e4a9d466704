"""P9 — wait-free reads end to end: COW name table + chain compaction.

PR 4 made answers lock-free (published model snapshots); this PR makes
the *whole* read path wait-free and bounds its worst read.  Two claims,
two workloads:

**Hot-read tail latency.**  Per-query name resolution comes off a
copy-on-write name table (one atomic reference load), and the answer
off the published snapshot — no registry lock, no view lock.  Four
open-loop readers query a deep transitive-
closure view on a fixed cadence while a writer applies expensive
batches and churns other registrations (each batch cuts or restores
the chain's middle edge, so a quarter of the closure retracts or
re-derives: the cost is in the *delta*.  Until the join kernel the
batches were single shortcut edges, expensive only because every rule
firing scanned the resident view; those now take about a millisecond
and the writer was gone before a reader sampled); per-read latencies
are corrected for coordinated omission (a read blocked for ``L`` at
cadence ``T`` also records the ``L/T`` requests it silently queued —
the wrk2/HdrHistogram discipline, without which a closed-loop reader
under-samples exactly the blocked reads the tail is about).  A reader
that waited behind the view lock would record the writer's batch as
its tail (the deleted locked read path did; its last measurement is
frozen in EXPERIMENTS.md), so the bar compares the wait-free p99 with
the median writer batch of the same run: **the batch is >= 2x the
p99** (orders of magnitude in practice).

**Cold reads after a write burst.**  Delta-maintained snapshots stack
one copy-on-write cell per batch; with no interleaved reads the first
read after a burst used to pay the whole chain walk.  Every view
flattens chains deeper than ``COMPACT_DEPTH`` on every
``COMPACT_INTERVAL``-th publish (``repro.service.views``), so the burst
amortizes the walk into the write path.  A 16-batch burst lands on an
8k-row predicate, then one cold snapshot read is timed: the service's
view against the same 16 deltas stacked on a bare ``ModelSnapshot``,
which nothing compacts.

``REPRO_BENCH_SCALE=smoke`` shrinks both workloads for the CI
bench-smoke job and relaxes the tail bar accordingly.
"""

import os
import threading
import time

from repro.corpus import edges_to_database
from repro.datalog.database import Database
from repro.relations import Atom
from repro.service import ModelSnapshot, QueryService

from support import ExperimentTable

SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

tail_table = ExperimentTable(
    "P09-wait-free-reads",
    "wait-free reads keep the hot-read p99 >=2x under the writer's batch time",
    [
        "readers",
        "reads",
        "p50-us",
        "p99-us",
        "write-batch-p50-us",
        "batch/p99",
    ],
)

chain_table = ExperimentTable(
    "P09-chain-compaction",
    "compaction on publish bounds the cold read after a write burst",
    [
        "base-rows",
        "burst",
        "compactor",
        "chain-depth",
        "cold-read-us",
        "speedup",
    ],
)

TC = """
tc(X, Y) :- move(X, Y).
tc(X, Z) :- move(X, Y), tc(Y, Z).
"""
FILLER = "p(X) :- b(X).\nb(s).\n"

READERS = 4
FILLER_VIEWS = 8
WRITER_OPS = 2 if SMOKE else 4
CHAIN = 120 if SMOKE else 220  # deep closure: a cut moves (CHAIN/2)^2 rows
READ_INTERVAL = 0.002  # the open-loop cadence: one read per 2ms
TAIL_BAR = 1.5 if SMOKE else 2.0

BASE_ROWS = 2_000 if SMOKE else 8_000
BURSTS = 16
COLD_REPS = 4
COLD_BAR = 1.2 if SMOKE else 1.5


def _chain(length):
    nodes = [Atom(f"n{i}") for i in range(length + 1)]
    return list(zip(nodes, nodes[1:]))


def _percentile(samples, q):
    return samples[min(len(samples) - 1, int(q * len(samples)))]


def _run_tail_scenario():
    """(reads, p50_seconds, p99_seconds, writer_batch_p50_seconds)."""
    service = QueryService()
    service.register("hot", TC, database=edges_to_database(_chain(CHAIN)))
    for index in range(FILLER_VIEWS):
        service.register(f"filler{index}", FILLER)
    cut = Atom(f"n{CHAIN // 2}"), Atom(f"n{CHAIN // 2 + 1}")
    expected_prefix = (Atom("n0"), cut[0])  # on the near side of the cut
    stop = threading.Event()
    latencies = [[] for _ in range(READERS)]
    batches = []

    def writer():
        try:
            for index in range(WRITER_OPS):
                for update in (service.delete, service.insert):
                    start = time.perf_counter()
                    update("hot", "move", *cut)
                    batches.append(time.perf_counter() - start)
                # Registration churn on the registry write lock, which
                # a query never takes.
                service.register(f"filler{index % FILLER_VIEWS}", FILLER)
        finally:
            stop.set()

    def reader(index):
        samples = latencies[index]
        while not stop.is_set():
            start = time.perf_counter()
            rows = service.query("hot", "tc")
            elapsed = time.perf_counter() - start
            # Every answer is a complete model at some version.
            assert expected_prefix in rows
            # Coordinated-omission correction: a read that blocked for
            # longer than the cadence also stands for the requests the
            # open-loop client would have issued meanwhile.
            samples.append(elapsed)
            queued = elapsed - READ_INTERVAL
            while queued > 0:
                samples.append(queued)
                queued -= READ_INTERVAL
            if elapsed < READ_INTERVAL:
                time.sleep(READ_INTERVAL - elapsed)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(index,))
        for index in range(READERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    samples = sorted(s for per_reader in latencies for s in per_reader)
    batches.sort()
    return (
        len(samples),
        _percentile(samples, 0.5),
        _percentile(samples, 0.99),
        _percentile(batches, 0.5),
    )


def test_wait_free_tail_stays_under_the_write_batch(benchmark):
    _run_tail_scenario()  # warm: no first-run costs in the measured run
    reads, p50, p99, batch = benchmark.pedantic(
        _run_tail_scenario, rounds=1, iterations=1
    )
    ratio = batch / max(p99, 1e-9)
    tail_table.add(
        READERS, reads, f"{p50 * 1e6:.1f}", f"{p99 * 1e6:.1f}",
        f"{batch * 1e6:.1f}", f"{ratio:.0f}x",
    )
    # The acceptance bar: no read waits out a write — the hot-read tail
    # under concurrent maintenance + name churn stays well under the
    # writer's batch, which a locked reader's tail would equal.
    assert ratio >= TAIL_BAR, (
        f"the wait-free p99 ({p99 * 1e6:.0f}us) is only {ratio:.2f}x under "
        f"the writer's median batch ({batch * 1e6:.0f}us)"
    )


def _base_rows():
    return frozenset((Atom(f"r{index}"),) for index in range(BASE_ROWS))


def _served_bursts():
    """The snapshot a view publishes after each burst, under the one
    compaction policy every view runs."""
    database = Database()
    for (row,) in _base_rows():
        database.add("base", row)
    service = QueryService(cache_capacity=8)
    service.register("cold", "p(X) :- base(X).\n", database=database)
    service.query("cold", "p")  # flatten the initial snapshot
    view = service.view("cold")
    for rep in range(COLD_REPS):
        for index in range(BURSTS):
            service.insert("cold", "base", Atom(f"n{rep}_{index}"))
        yield view.read_snapshot()


def _stacked_bursts():
    """The same deltas stacked on a bare snapshot: nothing compacts."""
    base = _base_rows()
    snapshot = ModelSnapshot.full({"base": base, "p": base})
    snapshot.rows("p")  # flatten the initial snapshot
    for rep in range(COLD_REPS):
        for index in range(BURSTS):
            row = frozenset({(Atom(f"n{rep}_{index}"),)})
            snapshot = snapshot.apply_delta(
                {"base": row, "p": row}, {}, snapshot.generation + 1
            )
        yield snapshot


def _run_cold_scenario(bursts):
    """(median_cold_read_seconds, chain_depth_seen) over ``bursts``."""
    reads, depths = [], []
    for snapshot in bursts():
        depths.append(snapshot.max_chain_depth())
        start = time.perf_counter()
        snapshot.rows("p")
        reads.append(time.perf_counter() - start)
    reads.sort()
    return reads[len(reads) // 2], max(depths)


def test_compaction_bounds_cold_reads_after_bursts(benchmark):
    _run_cold_scenario(_stacked_bursts)  # warm

    uncompacted, deep = _run_cold_scenario(_stacked_bursts)
    compacted, shallow = benchmark.pedantic(
        lambda: _run_cold_scenario(_served_bursts), rounds=1, iterations=1
    )
    speedup = uncompacted / max(compacted, 1e-9)

    chain_table.add(
        BASE_ROWS, BURSTS, "none", deep,
        f"{uncompacted * 1e6:.1f}", "1.0x",
    )
    chain_table.add(
        BASE_ROWS, BURSTS, "on-publish", shallow,
        f"{compacted * 1e6:.1f}", f"{speedup:.1f}x",
    )
    # The burst must not leave the reader a full-depth chain walk.
    assert shallow < deep
    assert speedup >= COLD_BAR, (
        f"compacted cold read only {speedup:.2f}x faster "
        f"({compacted * 1e6:.0f}us vs {uncompacted * 1e6:.0f}us)"
    )
