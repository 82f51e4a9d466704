"""The metrics contract, pinned to literals.

One fixed protocol script — writes, a malformed write, an unknown verb,
reads — against a stratified ``tc`` view (the delta circuit), a
``valid`` win-move view (the alternating chain) and a tropical ``tc``
view (the annotated engine).  Every per-view counter, every phase
histogram's observation count (per view and service-wide), the
service counters and the Prometheus samples built from them must read
exactly these numbers: a dropped counter bump or phase observation
anywhere on the write path changes one of them.

The script is chosen so that no number depends on set iteration order:
every retraction with alternative support finds it outside the
retracted rows, so the engines' work counters are the same whatever
``PYTHONHASHSEED`` is (checked below in fresh interpreters).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.service import QueryService, serve_stream
from repro.service.prometheus import render_prometheus

TC = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)."

SCRIPT = [
    f"register t stratified {TC} e(a, b). e(b, c). e(a, x). e(x, c).",
    "register w valid win(X) :- move(X, Y), not win(Y). move(a, b). move(b, c).",
    f"register c stratified --semiring=tropical {TC}",
    "+t e(c, d)", "-t e(c, d)", "-t e(b, c)", "+t e(b, c)", "-t e(a, x)", "+t e(a, x)",
    "+t e(c, d)", "+t e(d, f)", "-t e(d, f)",
    "+w move(d, d)", "+w move(c, a)", "-w move(b, c)", "+w move(b, c)", "-w move(d, d)",
    "+c e(a, b) @ 1", "+c e(b, c) @ 1", "+c e(a, c) @ 5", "-c e(b, c)", "+c e(c, a) @ 2",
    "+c e(b, c) @ 3",
    "+t e(f(a), b)", "frobnicate",
    "query t tc", "query w win", "query c tc", "query t tc(a, _)",
    "+t e(d, g)", "+t e(g, h)", "-t e(g, h)", "query t tc",
]

#: Counters every view reports, zero or not, with the same value.
_COMMON = {
    "annotated_initializes": 0,
    "cache_hits": 0,
    "compaction_rows": 0,
    "compactions": 0,
    "degraded_entries": 0,
    "delta_batches_coalesced": 0,
    "recompute_batches": 0,
    "recovery_retries": 0,
    "rollbacks": 0,
    "stale_queries": 0,
}

VIEW_COUNTERS = {
    "t": {
        **_COMMON,
        "cache_misses": 4,
        "circuit_steps": 12,
        "compaction_rows": 14,
        "compactions": 1,
        "deletes_applied": 5,
        "delta_minus_total": 22,
        "delta_plus_total": 33,
        "incremental_batches": 12,
        "inserts_applied": 7,
        "overdeleted_total": 19,
        "queries": 3,
        "rederived_total": 2,
        "rows_matched": 167,
        "rows_scanned": 22,
        "rules_fired": 80,
        "snapshot_reads": 3,
        "snapshot_swaps": 13,
        "update_batches": 12,
    },
    "w": {
        **_COMMON,
        "cache_misses": 2,
        "circuit_steps": 11,
        "deletes_applied": 2,
        "delta_minus_total": 4,
        "delta_plus_total": 4,
        "incremental_batches": 5,
        "inserts_applied": 3,
        "overdeleted_total": 2,
        "queries": 1,
        "rederived_total": 0,
        "rows_matched": 71,
        "rows_scanned": 0,
        "rules_fired": 46,
        "snapshot_reads": 1,
        "snapshot_swaps": 6,
        "update_batches": 5,
    },
    "c": {
        **_COMMON,
        "annotated_initializes": 1,
        "cache_misses": 2,
        "circuit_steps": 6,
        "deletes_applied": 1,
        "delta_minus_total": 2,
        "delta_plus_total": 15,
        "incremental_batches": 6,
        "inserts_applied": 5,
        "overdeleted_total": 2,
        "queries": 1,
        "rederived_total": 1,
        "rows_matched": 162,
        "rows_scanned": 18,
        "rules_fired": 43,
        "snapshot_reads": 1,
        "snapshot_swaps": 7,
        "update_batches": 6,
    },
}

_CLOSURE = {"insert_close": 12, "overdelete": 12, "rederive": 12}
VIEW_PHASES = {
    "t": {"compact": 1, "initialize": 1, "maintain": 12, "snapshot": 12, **_CLOSURE},
    "w": {"initialize": 1, "maintain": 5, "snapshot": 5},
    "c": {"initialize": 1, "maintain": 6, "snapshot": 6},
}

#: The views' phases summed: ``query t tc(a, _)`` probes t's snapshot
#: and adds none.
SERVICE_PHASES = {
    "compact": 1,
    "initialize": 3,
    "insert_close": 12,
    "maintain": 23,
    "overdelete": 12,
    "rederive": 12,
    "snapshot": 23,
}

SERVICE_COUNTERS = {
    "errors_total": 1,
    "lock_acquisitions": 23,
    "queries_total": 5,
    "recoveries": 0,
    "recovery_replay_records": 0,
    "registrations": 3,
    "requests_total": 33,
    "unregistrations": 0,
    "updates_total": 23,
    "wal_appends": 0,
    "wal_checkpoints": 0,
    "wal_fsyncs": 0,
    "wal_torn_records_dropped": 0,
}

#: Counter samples and histogram ``_count`` samples (sums and buckets
#: are timings), in rendering order.
PROMETHEUS = [
    *(f"repro_service_{name}_total {value}" for name, value in [
        ("errors", 1),
        ("lock_acquisitions", 23),
        ("queries", 5),
        ("recoveries", 0),
        ("recovery_replay_records", 0),
        ("registrations", 3),
        ("requests", 33),
        ("unregistrations", 0),
        ("updates", 23),
        ("wal_appends", 0),
        ("wal_checkpoints", 0),
        ("wal_fsyncs", 0),
        ("wal_torn_records_dropped", 0),
    ]),
    *(f"repro_{name}_total {value}" for name, value in [
        ("annotated_initializes", 1),
        ("cache_hits", 0),
        ("cache_misses", 8),
        ("circuit_steps", 29),
        ("compaction_rows", 14),
        ("compactions", 1),
        ("degraded_entries", 0),
        ("deletes_applied", 8),
        ("delta_batches_coalesced", 0),
        ("delta_minus", 28),
        ("delta_plus", 52),
        ("incremental_batches", 23),
        ("inserts_applied", 15),
        ("overdeleted", 23),
        ("queries", 5),
        ("recompute_batches", 0),
        ("recovery_retries", 0),
        ("rederived", 3),
        ("rollbacks", 0),
        ("rows_matched", 400),
        ("rows_scanned", 40),
        ("rules_fired", 169),
        ("snapshot_reads", 5),
        ("snapshot_swaps", 26),
        ("stale_queries", 0),
        ("update_batches", 23),
    ]),
    "repro_lock_wait_seconds_count 23",
    "repro_lock_hold_seconds_count 23",
    *(
        f'repro_phase_seconds_count{{phase="{phase}"}} {count}'
        for phase, count in sorted(SERVICE_PHASES.items())
    ),
]


def observed():
    """Run :data:`SCRIPT` on a fresh service; every pinned number."""
    service = QueryService()
    replies = []
    serve_stream(service, SCRIPT, replies.append)
    stats = {name: service.stats(name) for name in VIEW_COUNTERS}
    snapshot = service.metrics_snapshot()
    samples = [
        line
        for line in render_prometheus(snapshot).splitlines()
        if not line.startswith("#") and ("_total " in line or "_count" in line)
    ]
    return {
        "errors": [reply for reply in replies if reply.startswith("error")],
        "view_counters": {name: view["counters"] for name, view in stats.items()},
        "view_phases": {
            name: {phase: h["count"] for phase, h in view["phase_histograms"].items()}
            for name, view in stats.items()
        },
        "service_counters": snapshot["counters"],
        "service_phases": {
            phase: h["count"] for phase, h in snapshot["phase_histograms"].items()
        },
        "lock_waits": snapshot["locks"]["wait"]["count"],
        "prometheus": samples,
    }


def test_every_counter_and_phase_count_matches_the_contract():
    got = observed()
    assert got["errors"] == [
        "error ValueError: expected a single ground fact, got 'e(f(a), b).'",
        "error unknown command 'frobnicate'",
    ]
    assert got["view_counters"] == VIEW_COUNTERS
    assert got["view_phases"] == VIEW_PHASES
    assert got["service_counters"] == SERVICE_COUNTERS
    assert got["service_phases"] == SERVICE_PHASES
    assert got["lock_waits"] == SERVICE_COUNTERS["lock_acquisitions"]


def test_prometheus_samples_match_the_contract():
    assert observed()["prometheus"] == PROMETHEUS


def test_the_contract_does_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import json, runpy, sys\n"
        "print(json.dumps(runpy.run_path(sys.argv[1])['observed']()))\n"
    )
    want = observed()
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code, __file__],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == want, seed
