"""``BENCHMARK.json`` obeys the driver's contract, and what ``run.py``
prints is exactly what it declares — no undeclared name, none missing."""

import json
import re
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run_benchmark(*args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_contract_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"] and SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert len((REPO_ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    # ~12 s of set-up, checking and teardown around each timed window.
    assert runs * (SPEC["run_seconds"] + 12) <= 3420


def test_workloads_match_the_code():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.ORDER)
    for workload in SPEC["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]]


def test_smoke_reports_exactly_the_declared_end_to_end_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    stdout = run_benchmark("--smoke", "--out", str(out))
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == [w["name"] for w in SPEC["workloads"]]
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run
        assert {k: v["unit"] for k, v in run["metrics"].items()} == declared
        assert all(entry["value"] > 0 for entry in run["metrics"].values()), run
        assert run["host"]["nproc"] and run["host"]["connections"] == 1


@pytest.mark.parametrize("workload", ["annotated_rw", "eval_paper"])
def test_traced_run_reports_exactly_the_declared_layers(workload):
    stdout = run_benchmark("--workload", workload, "--trace", "1", "--seconds", "2")
    last = json.loads(stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert last["correct"] and last["metrics"]["failed_op_share"]["value"] == 0
    assert last["metrics"]["trace.coverage"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        REPO_ROOT / "bench",
        tmp_path / "bench",
        ignore=shutil.ignore_patterns(".run", "results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "write_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and not done.stdout.strip()
