#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread of one.

    python3 bench/compare.py A.json            # spread of one set
    python3 bench/compare.py A.json B.json     # B against base A

Each file is what ``run.py --out FILE`` accumulates: one record per run.
Only timed runs (``--trace 0``) are compared; a set needs several runs
per workload — different invocations, same or different seeds — for its
medians and quartiles to mean anything.

One row per (end-to-end metric, workload): both medians, the ratio
``B/A`` (A is the base), each side's own spread (interquartile range as
a share of its median, ``statistics.quantiles(n=4)``) and a verdict by
the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — a side's own spread exceeds the bound, so the bound
  cannot be checked on this pair;
* ``worse`` / ``better`` — B's median is beyond the bound on the wrong /
  right side of A's;
* ``same`` — within the bound.

Exit status is non-zero when any row is ``worse``, when B failed a
larger share of its ops than A, or (single file) when any spread
exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

Samples = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Tuple[Samples, Dict[str, float]]:
    """``{(workload, metric): [values]}`` and the failed share per workload."""
    runs = json.loads(Path(path).read_text())["runs"]
    samples: Samples = defaultdict(list)
    attempted: Dict[str, int] = defaultdict(int)
    failed: Dict[str, int] = defaultdict(int)
    for run in runs:
        if run.get("trace"):
            continue
        attempted[run["workload"]] += run["attempted"]
        failed[run["workload"]] += run["failed"]
        for metric, entry in run["metrics"].items():
            samples[(run["workload"], metric)].append(entry["value"])
    shares = {w: failed[w] / attempted[w] for w in attempted if attempted[w]}
    return samples, shares


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(base: float, other: float, better: str, bound: float) -> str:
    change = (other - base) / base
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    order = [w["name"] for w in spec["workloads"]]
    base, base_failed = load(argv[0])
    bad = 0
    if len(argv) == 1:
        print(f"{'workload':<14}{'metric':<13}{'n':>3}{'median':>12}{'spread':>8}{'bound':>7}  verdict")
        for workload in order:
            for name, entry in metrics.items():
                values = base.get((workload, name))
                if not values:
                    continue
                share = spread(values)
                steady = name == "setup_s" or share <= entry["bound"]
                bad += not steady
                print(
                    f"{workload:<14}{name:<13}{len(values):>3}"
                    f"{statistics.median(values):>12.4f}{share:>8.1%}{entry['bound']:>7.0%}"
                    f"  {'steady' if steady else 'FLAPPING'}"
                )
        for workload, share in sorted(base_failed.items()):
            if share:
                bad += 1
                print(f"{workload}: failed_op_share = {share:.4%}")
        return 1 if bad else 0

    other, other_failed = load(argv[1])
    print(
        f"{'workload':<14}{'metric':<13}{'A median':>12}{'B median':>12}"
        f"{'B/A':>8}{'A iqr':>7}{'B iqr':>7}{'bound':>7}  verdict"
    )
    for workload in order:
        for name, entry in metrics.items():
            a, b = base.get((workload, name)), other.get((workload, name))
            if not a or not b:
                continue
            a_median, b_median = statistics.median(a), statistics.median(b)
            a_spread, b_spread = spread(a), spread(b)
            if max(a_spread, b_spread) > entry["bound"]:
                outcome = "unresolved"
            else:
                outcome = verdict(a_median, b_median, entry["better"], entry["bound"])
            bad += outcome == "worse"
            print(
                f"{workload:<14}{name:<13}{a_median:>12.4f}{b_median:>12.4f}"
                f"{b_median / a_median:>8.3f}{a_spread:>7.1%}{b_spread:>7.1%}"
                f"{entry['bound']:>7.0%}  {outcome}"
            )
    for workload in order:
        a_share = base_failed.get(workload, 0.0)
        b_share = other_failed.get(workload, 0.0)
        if b_share > a_share:
            bad += 1
            print(f"{workload}: failed_op_share rose {a_share:.4%} -> {b_share:.4%}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
