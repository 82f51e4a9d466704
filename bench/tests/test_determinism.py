"""One seed, one stream, one set of counts; another seed, another stream."""

import json
import subprocess
import sys

import workloads
from conftest import REPO_ROOT

EXACT = (
    "pycalls.datalog.seminaive",
    "pycalls.service.dbsp.engine",
    "pycalls.service.snapshot",
    "pycalls.total",
    "service.dbsp.engine.rules_fired",
    "service.dbsp.engine.delta_rows",
    "service.durability.wal.fsyncs",
    "service.durability.wal.bytes_per_write",
    "service.durability.checkpoint.count",
    "service.cache.hit_ratio",
    "service.demand.hit_ratio",
    "service.demand.evictions",
    "service.server.reply_bytes",
)


def test_streams_are_a_function_of_the_seed():
    for workload in workloads.SERVING.values():
        first = workloads.stream_sha256(workload, 7, 300)
        assert first == workloads.stream_sha256(workload, 7, 300), workload.name
        assert first != workloads.stream_sha256(workload, 8, 300), workload.name
    assert workloads.recovery_records(7, 50) == workloads.recovery_records(7, 50)
    assert workloads.recovery_records(7, 50) != workloads.recovery_records(8, 50)
    names = [case.name for case in workloads.eval_cases(7)]
    assert names == [case.name for case in workloads.eval_cases(7)]
    assert names != [case.name for case in workloads.eval_cases(8)]
    assert sorted(names) == sorted(case.name for case in workloads.eval_cases(8))


def traced(tmp_path, tag, workload, seed):
    out = tmp_path / f"{tag}.json"
    subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "1", "--seconds", "2", "--out", str(out)],
        cwd=REPO_ROOT, check=True, capture_output=True, timeout=600,
    )
    [run] = json.loads(out.read_text())["runs"]
    return run


def test_exact_counts_repeat_for_one_seed(tmp_path):
    """Two invocations, same seed: byte-identical stream and identical
    counts (python calls per op, rules fired, fsyncs, WAL bytes, cache
    and demand hits).  ``rw_large`` has all of them non-trivial."""
    first = traced(tmp_path, "a", "rw_large", 5)
    second = traced(tmp_path, "b", "rw_large", 5)
    other = traced(tmp_path, "c", "rw_large", 6)
    assert first["detail"]["stream_sha256"] == second["detail"]["stream_sha256"]
    assert first["detail"]["stream_sha256"] != other["detail"]["stream_sha256"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["pycalls.total"]["value"] > 0
    assert first["metrics"]["service.dbsp.engine.rules_fired"]["value"] > 0
