"""P13 — point lookups probed off the view's snapshot vs full-view reads.

A bound-pattern query ("everything reachable from ``x``") is answered
by ``ModelSnapshot.probe``: one bucket of a hash index per pattern
shape, which the view's snapshot builds on the shape's first probe and
carries across writes by delta.  On a left-linear transitive closure
over a long chain the full view holds O(N^2) rows while one constant's
answer holds O(N) — the headline bar: hot probed point lookups sustain
**>= 10x** the full-read-and-filter lookup rate (>= 3x under
``REPRO_BENCH_SCALE=smoke``, where the chain — and so the scan being
beaten — is much shorter), with the answers row-identical.

Rows recorded beyond the headline ratio:

* **cold first probe** — the one-time price of a new pattern shape:
  one pass over the relation builds the shape's index;
* **write cost with resident patterns** — the same leaf-edge toggles
  on a view nobody has read by pattern and on one with 8 patterns
  read.  A bound pattern builds nothing a write has to maintain, so
  the bar is **<= 1.2x** (a view that kept one magic-rewritten demand
  entry per pattern shape paid one more maintenance pass per entry).

``rows-touched`` is what one lookup reads: every row of the relation
for the full read, the ``rows_scanned`` counter for a probe.
"""

import os
import random

import pytest

from repro.relations import Atom
from repro.service import QueryService

from support import ExperimentTable, timed

SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

#: Chain length (nodes).  The full closure holds N*(N-1)/2 rows.
CHAIN = 128 if SMOKE else 320
#: Hot lookups per measured arm.
LOOKUPS = 60 if SMOKE else 240
#: Leaf-edge writes per write arm (an even number: each arm leaves the
#: view as it found it), and the alternating repeats of the arms.
WRITES = 200
REPEATS = 5
#: The headline acceptance bar.
MIN_SPEEDUP = 3.0 if SMOKE else 10.0
#: A write with 8 resident patterns against one with none.
MAX_WRITE_RATIO = 1.2

#: Left-linear TC: a constant's answer ``tc(c, _)`` is its reachable
#: suffix — O(N) rows against the O(N^2) full closure.
RULES = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."

table = ExperimentTable(
    "P13-demand-point-lookup",
    "hot snapshot-probe point lookups sustain >= 10x the full-view "
    "read-and-filter rate (>= 3x at smoke scale), row-identical answers; "
    "a write with 8 resident bound patterns costs <= 1.2x one with none",
    [
        "arm",
        "ops",
        "seconds",
        "ops-per-sec",
        "ratio",
        "rows-touched",
    ],
)


def _nodes():
    return [Atom(f"n{i}") for i in range(CHAIN)]


def _build_service():
    service = QueryService()
    service.register("big", RULES)
    nodes = _nodes()
    service.update(
        "big",
        inserts=[("edge", (nodes[i], nodes[i + 1])) for i in range(CHAIN - 1)],
    )
    return service, nodes


def _full_read_lookup(service, bound):
    rows, _, _ = service.query_state("big", "tc")
    return {row for row in rows if row[0] == bound}


def _probe_lookup(service, bound):
    rows, _, _ = service.query_pattern("big", "tc", (bound, None))
    return rows


def _scanned(service):
    return service.view("big").metrics.counters["rows_scanned"]


def test_point_lookup_speedup(benchmark):
    service, nodes = _build_service()
    try:
        rng = random.Random(13)
        # A skew-hot working set from the front third of the chain:
        # long answers, so the probe arm is not winning by returning
        # trivia.
        hot_set = rng.sample(nodes[: CHAIN // 3], 4)
        hot = [rng.choice(hot_set) for _ in range(LOOKUPS)]

        # Cold first probe of the shape: builds its index, one-time.
        before = _scanned(service)
        _, cold_sec = timed(_probe_lookup, service, hot[0])
        cold_rows = _scanned(service) - before

        # Warm the full view (materializes + caches the closure).
        _full_read_lookup(service, hot[0])

        def full_arm():
            for bound in hot:
                _full_read_lookup(service, bound)

        _, full_sec = timed(full_arm)
        _, full_sec2 = timed(full_arm)
        full_sec = min(full_sec, full_sec2)

        def probe_arm():
            for bound in hot:
                _probe_lookup(service, bound)

        before = _scanned(service)
        _, probe_sec = timed(probe_arm)
        hot_rows = (_scanned(service) - before) / LOOKUPS
        _, probe_sec2 = timed(probe_arm)
        probe_sec = min(probe_sec, probe_sec2)
        benchmark.pedantic(probe_arm, rounds=1, iterations=1)

        # Row-identical answers on every hot constant.
        for bound in set(hot):
            assert _probe_lookup(service, bound) == _full_read_lookup(
                service, bound
            )

        full_rows = service.view("big").stats()["model_rows"]
        speedup = full_sec / probe_sec
        table.add(
            "full-read+filter", LOOKUPS, f"{full_sec:.4f}",
            f"{LOOKUPS / full_sec:.0f}", "1.00x", full_rows,
        )
        table.add(
            "probe-hot", LOOKUPS, f"{probe_sec:.4f}",
            f"{LOOKUPS / probe_sec:.0f}", f"{speedup:.2f}x", f"{hot_rows:.0f}",
        )
        table.add(
            "probe-cold-first-shape", 1, f"{cold_sec:.4f}",
            f"{1 / cold_sec:.0f}", "-", cold_rows,
        )
        assert speedup >= MIN_SPEEDUP, (
            f"hot probed lookups reached only {speedup:.2f}x the "
            f"full-read rate (bar: {MIN_SPEEDUP}x; "
            f"{probe_sec:.4f}s vs {full_sec:.4f}s for {LOOKUPS} lookups)"
        )
    finally:
        service.close()


def test_resident_patterns_cost_a_write_nothing(benchmark):
    quiet, nodes = _build_service()
    read, _ = _build_service()
    try:
        # 8 resident patterns on ``read``: 4 constants under each of
        # the two one-bound shapes of ``tc``.
        rng = random.Random(29)
        for bound in rng.sample(nodes[: CHAIN // 2], 4):
            read.query_pattern("big", "tc", (bound, None))
            read.query_pattern("big", "tc", (None, nodes[-1 - nodes.index(bound)]))
        leaf = ("edge", (nodes[-1], Atom("leaf")))

        def writes(service):
            for _ in range(WRITES // 2):
                service.update("big", inserts=[leaf])
                service.update("big", deletes=[leaf])

        seconds = {0: [], 8: []}
        for _ in range(REPEATS):
            for patterns, service in ((0, quiet), (8, read)):
                seconds[patterns].append(timed(writes, service)[1])
        benchmark.pedantic(writes, args=(read,), rounds=1, iterations=1)
        best = {patterns: min(runs) for patterns, runs in seconds.items()}
        ratio = best[8] / best[0]
        for patterns in (0, 8):
            table.add(
                f"write-{patterns}-patterns", WRITES, f"{best[patterns]:.4f}",
                f"{WRITES / best[patterns]:.0f}",
                f"{best[patterns] / best[0]:.2f}x", "-",
            )
        # Both views still answer alike.
        probe = (nodes[1], None)
        assert quiet.query_pattern("big", "tc", probe) == read.query_pattern(
            "big", "tc", probe
        )
        assert ratio <= MAX_WRITE_RATIO, (
            f"a write with 8 resident patterns cost {ratio:.2f}x one with "
            f"none (bar: {MAX_WRITE_RATIO}x; {best[8]:.4f}s vs "
            f"{best[0]:.4f}s for {WRITES} writes)"
        )
    finally:
        quiet.close()
        read.close()
