"""P8 — lock-free snapshot reads vs the locked read path on a hot view.

The snapshot tentpole claims that publishing each consistent model as
an immutable snapshot behind an atomic reference frees queries from the
per-view lock entirely.  What that eliminates on a *single* hot view is
readers stalling behind maintenance: with locked reads, every query
must wait for whatever update batch currently holds the view lock
(tens of milliseconds of DRed work on a deep closure); with snapshot
reads a query grabs the last published model and answers immediately,
paying only GIL scheduling.

The workload: one writer thread applies expensive batches to a deep
transitive-closure view (each cuts or restores the chain's middle
edge, so a quarter of the closure retracts or re-derives: the cost is
in the *delta*.  The single shortcut-edge batches used until the join
kernel were expensive only because every firing scanned the resident
view; they now take about a millisecond) while four reader threads
query it flat out.  The identical scenario runs under
``read_mode="locked"`` (the pre-snapshot path) and
``read_mode="snapshot"`` (the default), comparing read throughput.
The acceptance bar: snapshots buy at least 2x reads on a hot view
under concurrent updates.

``REPRO_BENCH_SCALE=smoke`` shrinks the workload for the CI
bench-smoke job and relaxes the bar accordingly.
"""

import os
import threading
import time

import pytest

from repro.corpus import edges_to_database
from repro.relations import Atom
from repro.service import QueryService

from support import ExperimentTable

SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

table = ExperimentTable(
    "P08-snapshot-reads",
    "lock-free snapshot reads beat locked reads >=2x on a hot view",
    [
        "readers",
        "writer-ops",
        "locked-reads",
        "snapshot-reads",
        "locked-reads-per-sec",
        "snapshot-reads-per-sec",
        "speedup",
    ],
)

TC = """
tc(X, Y) :- move(X, Y).
tc(X, Z) :- move(X, Y), tc(Y, Z).
"""

READERS = 4
WRITER_OPS = 2 if SMOKE else 4
CHAIN = 120 if SMOKE else 220  # deep closure: a cut moves (CHAIN/2)^2 rows
SPEEDUP_BAR = 1.5 if SMOKE else 2.0


def _chain(length):
    nodes = [Atom(f"n{i}") for i in range(length + 1)]
    return list(zip(nodes, nodes[1:]))


def _run_scenario(read_mode):
    """(total_reads, elapsed_seconds) for one read discipline."""
    service = QueryService(read_mode=read_mode)
    service.register("hot", TC, database=edges_to_database(_chain(CHAIN)))
    cut = Atom(f"n{CHAIN // 2}"), Atom(f"n{CHAIN // 2 + 1}")
    expected_prefix = (Atom("n0"), cut[0])  # on the near side of the cut
    stop = threading.Event()
    read_counts = [0] * READERS

    def writer():
        try:
            for _ in range(WRITER_OPS):
                service.delete("hot", "move", *cut)
                service.insert("hot", "move", *cut)
        finally:
            stop.set()

    def reader(index):
        while not stop.is_set():
            rows = service.query("hot", "tc")
            # Every answer is a complete model at some version: the
            # near-side prefix is in the closure of both versions.
            assert expected_prefix in rows
            read_counts[index] += 1

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(index,))
        for index in range(READERS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    assert not any(thread.is_alive() for thread in threads)
    # The writer's last insert landed: the chain is whole again.
    assert cut in service.view("hot").database.rows("move")
    return sum(read_counts), elapsed


def test_snapshot_reads_beat_locked_reads(benchmark):
    # Warm both code paths once so neither scenario pays first-run costs.
    _run_scenario("locked")
    _run_scenario("snapshot")

    locked_reads, locked_elapsed = _run_scenario("locked")
    snapshot_reads, snapshot_elapsed = benchmark.pedantic(
        lambda: _run_scenario("snapshot"), rounds=1, iterations=1
    )
    locked_rate = locked_reads / max(locked_elapsed, 1e-9)
    snapshot_rate = snapshot_reads / max(snapshot_elapsed, 1e-9)
    speedup = snapshot_rate / max(locked_rate, 1e-9)

    table.add(
        READERS,
        WRITER_OPS,
        locked_reads,
        snapshot_reads,
        f"{locked_rate:.0f}",
        f"{snapshot_rate:.0f}",
        f"{speedup:.1f}x",
    )
    # The acceptance bar: lock-free snapshot reads must at least double
    # query throughput on a hot view under concurrent updates.
    assert speedup >= SPEEDUP_BAR, (
        f"snapshot reads only reached {speedup:.2f}x the locked-read "
        f"throughput ({snapshot_rate:.0f} vs {locked_rate:.0f} reads/sec)"
    )
