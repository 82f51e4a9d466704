"""P11 — the cost of durability: WAL overhead and cold-start recovery.

The durability tentpole claims the write-ahead log is cheap relative
to incremental maintenance: journaling is one buffered-JSON append per
acked batch, so with ``fsync=off`` the durable write path must stay
within **15%** of the pure in-memory service on the P06-style
incremental workload.  ``fsync=batch`` and ``fsync=always`` buy their
extra guarantees with real disk flushes — recorded here so the price
is a measured number, not folklore.

The write-latency rows time each write of a stream of single-edge
toggles on a small closure — every write the same cheap size, the shape
of the end-to-end ``write_small`` — so a write that waits on a disk
flush shows at p95.  ``fsync=batch`` fsyncs every 16th append on the
log's syncer thread, off the request path, so its p95 may be at most
**1.25x** ``fsync=off``'s.  The bar is on the *paced* rows: the loop
sleeps ``PACE_SECONDS`` between two writes, outside the timed part, as
a server waits for its next request; while it waits, the syncer takes
the interpreter lock and starts the fsync.  The *back-to-back* rows
never let go of that lock, so the write after a hand-off pays the
fsync; they are recorded beside the bar, not under it.

The second half times cold-start recovery against the WAL length: a
crashed service with N journaled operations must replay exactly N
records — as group commits through the normal update path, a run of
records per circuit pass — so recovery time is **linear** in the log
(4x the records may cost at most 6x the time; best of 3 per size),
the recovered model equals a from-scratch evaluation, and a checkpoint
resets the cost to near zero.

``REPRO_BENCH_SCALE=smoke`` runs the small write stream (the CI
bench-smoke job); both bars and all three log sizes apply at every
scale — 1,600 records recover in a third of a second.
"""

import os
import statistics
import time

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import run
from repro.datalog.parser import parse_program
from repro.service import QueryService

from support import ExperimentTable, timed

SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

#: Acked single-fact updates per measured stream.
OPS = 240 if SMOKE else 800
#: Nodes per chain — every insert extends a live transitive closure.
CHAIN = 30
#: WAL lengths for the recovery-time curve.
RECOVERY_SIZES = (100, 400, 1600)
#: The headline acceptance bar: fsync=off overhead vs pure in-memory.
MAX_OFF_OVERHEAD = 0.15
#: Linear recovery: time(1,600) / time(400) may not exceed this (4 is
#: linear; 100 → 400 is a few ms and too close to timer noise to bar).
MAX_RECOVERY_GROWTH = 6.0

#: Timed writes per fsync mode in the write-latency rows.
LATENCY_WRITES = 800 if SMOKE else 3200
#: Sleep between two paced writes: the wait for a server's next request.
PACE_SECONDS = 100e-6
#: The latency bar: ``batch`` p95 over ``off`` p95, paced rows.
MAX_BATCH_P95_RATIO = 1.25

RULES = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."

table = ExperimentTable(
    "P11-durability",
    "fsync=off WAL overhead <= 15% on the incremental write path; "
    "paced per-write p95 under fsync=batch <= 1.25 x fsync=off; "
    "cold recovery replays the log as group commits, linear in its length "
    "(time(1600) <= 6 x time(400))",
    [
        "scenario",
        "fsync",
        "ops",
        "seconds",
        "ops-per-sec",
        "overhead-vs-memory",
        "write-p50-us",
        "write-p95-us",
        "replayed",
        "recovery-sec",
    ],
)


def _edges(count):
    """``count`` chain edges: disjoint chains of ``CHAIN`` hops, so each
    insert triggers incremental maintenance over one growing chain."""
    edges = []
    chain = 0
    while len(edges) < count:
        nodes = [f"c{chain}n{i}" for i in range(CHAIN + 1)]
        edges.extend(zip(nodes, nodes[1:]))
        chain += 1
    return edges[:count]


def _run_stream(service, edges):
    service.register("g", RULES)
    for x, y in edges:
        service.insert("g", "edge", x, y)


def _time_stream(edges, data_dir=None, fsync="off"):
    """Seconds to push the whole op stream through one fresh service."""
    if data_dir is None:
        service = QueryService()
    else:
        service = QueryService(
            data_dir=str(data_dir), fsync=fsync, checkpoint_every=10**9
        )
    try:
        _, seconds = timed(_run_stream, service, edges)
    finally:
        service.close()
    return seconds


@pytest.mark.parametrize("fsync", ["off", "batch", "always"])
def test_wal_write_path_overhead(benchmark, tmp_path, fsync):
    edges = _edges(OPS)
    # Best-of-2 for both arms: the comparison is overhead, so both
    # sides get the same favourable treatment.
    baseline = min(_time_stream(edges) for _ in range(2))
    counter = iter(range(100))

    def durable_run():
        return _time_stream(
            edges, tmp_path / f"run-{next(counter)}", fsync
        )

    durable = min(durable_run() for _ in range(2))
    benchmark.pedantic(durable_run, rounds=1, iterations=1)
    overhead = durable / baseline - 1.0
    table.add(
        "write-path",
        fsync,
        OPS,
        f"{durable:.4f}",
        f"{OPS / durable:.0f}",
        f"{overhead * 100:+.1f}%",
        "-",
        "-",
        "-",
        "-",
    )
    if fsync == "off":
        assert overhead <= MAX_OFF_OVERHEAD, (
            f"fsync=off WAL overhead {overhead:.1%} exceeds "
            f"{MAX_OFF_OVERHEAD:.0%} vs the in-memory write path "
            f"({durable:.4f}s vs {baseline:.4f}s for {OPS} ops)"
        )


def _write_latencies(data_dir, fsync, pace):
    """Microseconds of each of ``LATENCY_WRITES`` single-edge toggles on
    eight disjoint edges (tc stays at most eight rows)."""
    service = QueryService(
        data_dir=str(data_dir), fsync=fsync, checkpoint_every=10**9
    )
    clock = time.perf_counter_ns
    latencies = []
    try:
        service.register("g", RULES)
        for index in range(LATENCY_WRITES):
            edge = (f"a{index // 2 % 8}", f"b{index // 2 % 8}")
            write = service.insert if index % 2 == 0 else service.delete
            if pace:
                time.sleep(pace)
            start = clock()
            write("g", "edge", *edge)
            latencies.append((clock() - start) / 1000)
    finally:
        service.close()
    return latencies


def _p50_p95(latencies):
    return statistics.median(latencies), statistics.quantiles(latencies, n=20)[18]


def test_write_latency_per_fsync_mode(benchmark, tmp_path):
    counter = iter(range(100))

    def latencies(fsync, pace):
        return _write_latencies(tmp_path / f"lat-{next(counter)}", fsync, pace)

    benchmark.pedantic(lambda: latencies("batch", PACE_SECONDS), rounds=1, iterations=1)
    p95 = {}
    for scenario, pace in (("write-paced", PACE_SECONDS), ("write-back-to-back", 0)):
        for fsync in ("off", "batch", "always"):
            p50, p95[scenario, fsync] = _p50_p95(latencies(fsync, pace))
            table.add(
                scenario,
                fsync,
                LATENCY_WRITES,
                "-",
                "-",
                "-",
                f"{p50:.1f}",
                f"{p95[scenario, fsync]:.1f}",
                "-",
                "-",
            )
    ratio = p95["write-paced", "batch"] / p95["write-paced", "off"]
    assert ratio <= MAX_BATCH_P95_RATIO, (
        f"paced fsync=batch write p95 {p95['write-paced', 'batch']:.1f} us is "
        f"{ratio:.2f}x fsync=off's {p95['write-paced', 'off']:.1f} us "
        f"(bar {MAX_BATCH_P95_RATIO}x): a batch fsync is on the request path"
    )


#: records → (cold_boot, best-of-3 seconds), measured once per size.
_RECOVERIES = {}


def _cold_recovery(tmp_path_factory, records):
    """The function that cold-boots a crashed ``records``-insert log,
    and its best boot → first read time of three."""
    if records in _RECOVERIES:
        return _RECOVERIES[records]
    data_dir = tmp_path_factory.mktemp(f"crashed-{records}")
    edges = _edges(records)
    service = QueryService(
        data_dir=str(data_dir), fsync="off", checkpoint_every=10**9
    )
    _run_stream(service, edges)
    # Crash: no final checkpoint, so every boot replays the whole log.
    service.durability.close(final_checkpoint=False)
    database = Database()
    for x, y in edges:
        database.add("edge", x, y)
    oracle = run(parse_program(RULES), database, semantics="stratified")
    expected = {tuple(map(str, row)) for row in oracle.true_rows("tc")}

    def recover_and_read():
        recovered = QueryService(data_dir=str(data_dir), fsync="off")
        return recovered, recovered.query("g", "tc")

    def cold_boot():
        """Seconds from boot to the first full read, then checked."""
        (recovered, rows), seconds = timed(recover_and_read)
        assert recovered.last_recovery.replayed_records == records + 1
        assert {tuple(map(str, row)) for row in rows} == expected
        # Leave the directory exactly as found (no shutdown
        # checkpoint), so every round replays the same log.
        recovered.durability.close(final_checkpoint=False)
        recovered.close()
        return seconds

    _RECOVERIES[records] = cold_boot, min(cold_boot() for _ in range(3))
    return _RECOVERIES[records]


@pytest.mark.parametrize("records", RECOVERY_SIZES)
def test_cold_recovery_time_scales_with_log(benchmark, tmp_path_factory, records):
    cold_boot, recovery_sec = _cold_recovery(tmp_path_factory, records)
    benchmark.pedantic(cold_boot, rounds=2, iterations=1)
    table.add(
        "cold-recovery",
        "off",
        records,
        "-",
        "-",
        "-",
        "-",
        "-",
        records + 1,
        f"{recovery_sec:.4f}",
    )
    if records == 1600:
        # Here and not in a test of its own: ``--benchmark-only`` (the
        # CI bench-smoke job) skips tests without the fixture.
        _, small = _cold_recovery(tmp_path_factory, 400)
        assert recovery_sec <= MAX_RECOVERY_GROWTH * small, (
            f"cold recovery of 1,600 records took {recovery_sec:.4f}s, "
            f"{recovery_sec / small:.1f}x the {small:.4f}s of 400 "
            f"(bar {MAX_RECOVERY_GROWTH:.0f}x; 4x is linear)"
        )
