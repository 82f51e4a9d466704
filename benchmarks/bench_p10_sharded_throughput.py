"""P10 — multi-process sharding vs the single-process serving tier.

The cluster tentpole exists because the GIL caps a single
``QueryService`` process: past one saturated core, more writer threads
only queue.  N worker processes behind the consistent-hash router can
apply updates to views on different shards truly in parallel — write
throughput should scale with cores, which the GIL forbids in-process.

Two measurements:

* **write throughput**: the identical multi-view pipelined insert load
  pushed through a 1-shard cluster and an N-shard cluster (same
  router, same framing — the only variable is how many worker
  processes share the work).  The issue's bar is >=2x at 4 shards on
  4 cores; the bar below scales honestly with the cores this machine
  actually has (``len(os.sched_getaffinity(0))``), because worker
  processes pinned to one core cannot beat physics: on a single-core
  box the N-shard run only has to stay within sanity range (0.4x) of
  the 1-shard run, i.e. sharding must not *collapse* throughput.

* **router-hop read latency**: the same ``query`` measured against a
  worker's line-protocol socket directly and through the router's
  framed front door.  The router adds one unix-socket round trip plus
  framing; the bar is a loose sanity cap, not a target.

* **router cost per forwarded request**: a ``repro serve --shards 2``
  process driven with the ``cluster_mix`` mix (per ten requests: five
  writes, four point reads, one full read, over four views), its CPU
  time and minor page faults read from ``/proc/<router pid>/stat``
  before and after.  The router executes nothing, so its CPU is pure
  hop cost.  The bar is on faults: a read path that allocates its
  receive buffer per read moves glibc's heap top across the trim
  threshold and faults about once a request; buffers each connection
  owns fault close to never (<= 0.05 a request).
"""

import os
import random
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.service.cluster import ClusterClient, cluster

from support import ExperimentTable

SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

CORES = len(os.sched_getaffinity(0))
SHARDS = 2 if SMOKE else 4
WRITERS = 4
DURATION = 2.0 if SMOKE else 6.0
BATCH = 20
LATENCY_SAMPLES = 100 if SMOKE else 300
ROUTER_REQUESTS = 1000 if SMOKE else 8000
FAULTS_PER_REQUEST_BAR = 0.05

#: The issue's bar (2x at 4 shards) presumes >=4 cores.  Scale it to
#: the hardware: with fewer cores true parallel speedup is impossible,
#: so the bar degrades to "sharding does not collapse throughput".
if CORES >= 4:
    SPEEDUP_BAR = 2.0
elif CORES >= 2:
    SPEEDUP_BAR = 1.2
else:
    SPEEDUP_BAR = 0.4

#: Router adds a second unix-socket round trip per query; anything
#: beyond this multiple (or 10ms absolute) means the front door itself
#: became the bottleneck.
LATENCY_OVERHEAD_CAP = 8.0
LATENCY_ABSOLUTE_CAP_S = 0.010

TC = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- edge(X, Y), tc(Y, Z)."

table = ExperimentTable(
    "P10-sharded-throughput",
    f"{SHARDS}-shard writes >= {SPEEDUP_BAR}x 1-shard on {CORES} core(s); "
    "router hop adds bounded read latency; router takes "
    f"<= {FAULTS_PER_REQUEST_BAR} minor faults per forwarded request",
    [
        "scenario",
        "shards",
        "cores",
        "writers",
        "acked-ops",
        "elapsed-s",
        "ops-per-sec",
        "factor",
    ],
)


def _write_load(socket_path):
    """(acked_ops, elapsed) for the standard pipelined insert load."""
    views = [f"w{index}" for index in range(WRITERS)]
    with ClusterClient(socket_path, timeout=120.0) as setup:
        for view in views:
            setup.register(view, TC)
    counts = [0] * WRITERS
    stop = threading.Event()

    def writer(slot):
        view = views[slot]
        with ClusterClient(socket_path, timeout=120.0) as mine:
            tick = 0
            while not stop.is_set():
                lines = [
                    f"+{view} edge(n{tick + i}, n{tick + i + 1})"
                    for i in range(BATCH)
                ]
                tick += BATCH
                replies = mine.pipeline(lines)
                counts[slot] += sum(
                    1 for reply in replies if reply[-1].startswith("ok")
                )

    threads = [
        threading.Thread(target=writer, args=(slot,))
        for slot in range(WRITERS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(DURATION)
    stop.set()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    assert not any(thread.is_alive() for thread in threads)
    # The acked writes actually landed: each view's chain closed over
    # at least the first batch.
    with ClusterClient(socket_path, timeout=120.0) as check:
        for slot, view in enumerate(views):
            if counts[slot]:
                rows, _ = check.query(view, "edge")
                assert len(rows) >= min(counts[slot], BATCH)
    return sum(counts), elapsed


def _scenario(shards, tmp_base):
    os.makedirs(tmp_base, exist_ok=True)
    socket_path = f"{tmp_base}/fd{shards}"
    with cluster(socket_path, shards=shards):
        return _write_load(socket_path)


def _read_latencies(tmp_base):
    """(direct_mean_s, routed_mean_s) for one warm query."""
    import socket as socket_module

    socket_path = f"{tmp_base}/lat"
    with cluster(socket_path, shards=1) as router:
        with ClusterClient(socket_path, timeout=120.0) as client:
            client.register("lat_tc", TC)
            for index in range(8):
                client.insert("lat_tc", f"edge(m{index}, m{index + 1})")
            client.query("lat_tc", "tc")  # warm both paths

            # Direct: line protocol straight to the worker's socket.
            worker_socket = router._workers["shard-0"].socket_path
            raw = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            raw.settimeout(120.0)
            raw.connect(worker_socket)
            reader = raw.makefile("r")

            def direct_query():
                raw.sendall(b"query lat_tc tc\n")
                while True:
                    line = reader.readline().strip()
                    if line.startswith("ok") or line.startswith("error"):
                        return

            def routed_query():
                client.query("lat_tc", "tc")

            direct_query()
            direct = []
            for _ in range(LATENCY_SAMPLES):
                tick = time.perf_counter()
                direct_query()
                direct.append(time.perf_counter() - tick)
            routed = []
            for _ in range(LATENCY_SAMPLES):
                tick = time.perf_counter()
                routed_query()
                routed.append(time.perf_counter() - tick)
            raw.close()
    return statistics.mean(direct), statistics.mean(routed)


def test_sharded_write_throughput(benchmark, tmp_path):
    base = str(tmp_path)
    # Warm both topologies once (cold spawn pays interpreter start-up).
    _scenario(1, base + "/warm1")
    _scenario(SHARDS, base + f"/warm{SHARDS}")

    single_ops, single_elapsed = _scenario(1, base + "/run1")
    sharded_ops, sharded_elapsed = benchmark.pedantic(
        lambda: _scenario(SHARDS, base + f"/run{SHARDS}"),
        rounds=1,
        iterations=1,
    )
    single_rate = single_ops / max(single_elapsed, 1e-9)
    sharded_rate = sharded_ops / max(sharded_elapsed, 1e-9)
    speedup = sharded_rate / max(single_rate, 1e-9)

    table.add(
        "writes-1-shard", 1, CORES, WRITERS, single_ops,
        f"{single_elapsed:.2f}", f"{single_rate:.0f}", "1.0x",
    )
    table.add(
        f"writes-{SHARDS}-shard", SHARDS, CORES, WRITERS, sharded_ops,
        f"{sharded_elapsed:.2f}", f"{sharded_rate:.0f}",
        f"{speedup:.2f}x",
    )
    assert speedup >= SPEEDUP_BAR, (
        f"{SHARDS}-shard throughput only reached {speedup:.2f}x the "
        f"1-shard rate ({sharded_rate:.0f} vs {single_rate:.0f} "
        f"acked ops/sec) on {CORES} core(s); bar {SPEEDUP_BAR}x"
    )


def test_router_hop_read_latency(benchmark, tmp_path):
    direct_mean, routed_mean = benchmark.pedantic(
        lambda: _read_latencies(str(tmp_path)), rounds=1, iterations=1
    )
    overhead = routed_mean / max(direct_mean, 1e-9)
    table.add(
        "read-direct-worker", 1, CORES, 1, LATENCY_SAMPLES,
        f"{direct_mean * 1e6:.0f}us", "-", "1.0x",
    )
    table.add(
        "read-via-router", 1, CORES, 1, LATENCY_SAMPLES,
        f"{routed_mean * 1e6:.0f}us", "-", f"{overhead:.2f}x",
    )
    assert routed_mean < LATENCY_ABSOLUTE_CAP_S, (
        f"routed query mean {routed_mean * 1e3:.2f}ms exceeds "
        f"{LATENCY_ABSOLUTE_CAP_S * 1e3:.0f}ms"
    )
    assert overhead < LATENCY_OVERHEAD_CAP, (
        f"router hop costs {overhead:.1f}x the direct worker query "
        f"(cap {LATENCY_OVERHEAD_CAP}x)"
    )


def _router_stat(pid):
    """(minor faults, user + system CPU seconds) of process ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return int(fields[7]), (int(fields[11]) + int(fields[12])) / ticks


def _mixed_requests(count, seed=0):
    """``count`` requests of the cluster_mix shape on views m0 m1 m2 m6:
    each block of ten shuffles five edge toggles, four bound-pattern
    reads and one full read."""
    rng = random.Random(seed)
    views = ["m0", "m1", "m2", "m6"]
    pool = [(f"n{i}", f"n{i + 1}") for i in range(16)]
    present = {view: set(pool[::2]) for view in views}
    requests = []
    while len(requests) < count:
        block = ["write"] * 5 + ["point"] * 4 + ["full"]
        rng.shuffle(block)
        for kind in block:
            view = rng.choice(views)
            if kind == "write":
                edge = rng.choice(pool)
                sign = "-" if edge in present[view] else "+"
                present[view] ^= {edge}
                requests.append(f"{sign}{view} edge({edge[0]}, {edge[1]})")
            elif kind == "point":
                requests.append(f"query {view} tc(n{rng.randrange(16)}, _)")
            else:
                requests.append(f"query {view} tc")
    return views, pool, requests[:count]


def _router_cost(tmp_base):
    """(forwarded, seconds, cpu_us, faults) per forwarded request of a
    two-shard ``serve`` router process over the cluster_mix mix."""
    os.makedirs(tmp_base, exist_ok=True)
    socket_path = f"{tmp_base}/mix"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    router = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--shards", "2",
         "--socket", socket_path],
        env=env,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while not os.path.exists(socket_path):
            assert router.poll() is None, "serve --shards 2 exited"
            assert time.monotonic() < deadline, "front door never opened"
            time.sleep(0.1)
        views, pool, requests = _mixed_requests(ROUTER_REQUESTS + 500)
        with ClusterClient(socket_path, timeout=120.0) as client:
            for view in views:
                client.register(view, TC)
                for edge in pool[::2]:
                    client.insert(view, "edge(%s, %s)" % edge)
            for line in requests[:500]:  # warm the pools and the views
                assert client.request(line)[-1].startswith("ok")
            counters = client.metrics()["router"]["counters"]
            forwarded = counters["forwarded_total"]
            faults, cpu = _router_stat(router.pid)
            started = time.perf_counter()
            for line in requests[500:]:
                assert client.request(line)[-1].startswith("ok")
            elapsed = time.perf_counter() - started
            faults_after, cpu_after = _router_stat(router.pid)
            forwarded = (
                client.metrics()["router"]["counters"]["forwarded_total"]
                - forwarded
            )
        return (
            forwarded,
            elapsed,
            (cpu_after - cpu) / forwarded * 1e6,
            (faults_after - faults) / forwarded,
        )
    finally:
        router.terminate()
        router.wait(timeout=60)


def test_router_cost_per_forwarded_request(benchmark, tmp_path):
    if not os.path.exists(f"/proc/{os.getpid()}/stat"):
        pytest.skip("needs /proc/<pid>/stat")
    forwarded, elapsed, cpu_us, faults = benchmark.pedantic(
        lambda: _router_cost(str(tmp_path)), rounds=1, iterations=1
    )
    table.add(
        "router-cost-cluster-mix", 2, CORES, 1, forwarded,
        f"{elapsed:.2f}", f"{forwarded / elapsed:.0f}",
        f"{cpu_us:.0f}us-cpu {faults:.3f}-faults per request",
    )
    assert faults <= FAULTS_PER_REQUEST_BAR, (
        f"the router took {faults:.3f} minor page faults per forwarded "
        f"request (bar {FAULTS_PER_REQUEST_BAR})"
    )
