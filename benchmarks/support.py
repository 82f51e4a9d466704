"""Shared infrastructure for the experiment harnesses.

The paper has no numeric tables or figures — its evaluation is a chain of
theorems, propositions and worked examples (see DESIGN.md §5).  Each
benchmark module therefore plays two roles:

* it *times* the relevant computation with pytest-benchmark, and
* it *verifies and records* the paper's claim on that workload, appending
  rows to ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can
  quote paper-vs-measured outcomes.

Run with::

    pytest benchmarks/ --benchmark-only

The result tables survive in ``benchmarks/results/`` either way.
"""

from __future__ import annotations

import atexit
import gc
import time
from pathlib import Path
from typing import Dict, List, Sequence

RESULTS_DIR = Path(__file__).parent / "results"


class ExperimentTable:
    """Collects rows for one experiment and writes them on exit."""

    _instances: List["ExperimentTable"] = []

    def __init__(self, experiment: str, claim: str, columns: Sequence[str]):
        self.experiment = experiment
        self.claim = claim
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        self._written = False
        ExperimentTable._instances.append(self)

    def add(self, *values) -> None:
        row = [str(value) for value in values]
        if len(row) != len(self.columns):
            raise ValueError(
                f"{self.experiment}: row width {len(row)} != {len(self.columns)}"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in self.rows), 1)
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"# {self.experiment}", f"# claim: {self.claim}"]
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def write(self) -> None:
        if self._written or not self.rows:
            return
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.experiment}.txt"
        path.write_text(self.render() + "\n")
        self._written = True


@atexit.register
def _flush_tables() -> None:
    for table in ExperimentTable._instances:
        table.write()


def timed(func, *args, **kwargs):
    """(result, seconds) of one call — for rows that record their own
    wall-clock alongside the pytest-benchmark measurement."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def best_of(func, *args, rounds: int = 5, **kwargs):
    """(result, seconds) of the fastest of ``rounds`` calls, after a full
    collection — so a cyclic-GC pass landing in one call is not the row."""
    gc.collect()
    return min(
        (timed(func, *args, **kwargs) for _round in range(rounds)),
        key=lambda outcome: outcome[1],
    )
