"""P15 — performance: a three-valued view over deep games.

``win(X) :- move(X, Y), not win(Y).`` over a chain of *n* moves needs
*n* + 2 levels of the alternating fixpoint.  For n = 32, 64, 128 and
256, under ``valid``, the table records the view's levels, its build
(best of ``ROUNDS``) and the peak allocation traced over one build, a
write at the tail (a move out of the last position: every row's status
flips) and at the head (a move into the first: one new row), each the
best of ``ROUNDS`` inserts, a from-scratch ``run(valid)`` for scale, and
the ``rows_matched`` of one tail insert.

The bar is on that count, not on a time: a tail insert on chain-256
matches at most ``BAR`` = 6x the rows it matches on chain-64 (4x the
chain), which holds when a write costs the rows whose level status
changes.  Keeping one engine per level matched 15x.
"""

import time
import tracemalloc

from repro.datalog import run
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.relations import Atom
from repro.service import MaterializedView, prepare_program

from support import ExperimentTable

table = ExperimentTable(
    "P15-alternating-chain",
    "a write to a valid win-chain view costs the rows it changes, not levels x model",
    [
        "n",
        "levels",
        "build-ms",
        "peak-MiB",
        "tail-write-ms",
        "head-write-ms",
        "run-valid-ms",
        "tail-rows-matched",
        "matched-vs-64",
    ],
)

WIN = "win(X) :- move(X, Y), not win(Y).\n"
CHAINS = (32, 64, 128, 256)
BAR = 6.0
ROUNDS = 3


def _database(n):
    database = Database()
    for i in range(n):
        database.add("move", Atom(f"c{i}"), Atom(f"c{i + 1}"))
    return database


def _build(database):
    return MaterializedView(prepare_program("win", WIN), database, semantics="valid")


def _best_write(view, fact):
    """Best of ``ROUNDS`` inserts of ``fact``, each undone untimed."""
    best = None
    for _round in range(ROUNDS):
        started = time.perf_counter()
        view.apply(inserts=[fact])
        elapsed = time.perf_counter() - started
        view.apply(deletes=[fact])
        best = elapsed if best is None else min(best, elapsed)
    return best


def _measure(n):
    database = _database(n)
    builds = []
    for _round in range(ROUNDS):
        started = time.perf_counter()
        view = _build(database)
        builds.append(time.perf_counter() - started)
    tracemalloc.start()
    _build(database)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tail = ("move", (Atom(f"c{n}"), Atom("tail")))
    head = ("move", (Atom("head"), Atom("c0")))
    counters = view.metrics.counters
    matched = counters["rows_matched"]
    view.apply(inserts=[tail])
    tail_matched = counters["rows_matched"] - matched
    view.apply(deletes=[tail])
    tail_seconds = _best_write(view, tail)
    head_seconds = _best_write(view, head)
    program = parse_program(WIN)
    run_seconds = min(
        _timed(lambda: run(program, database, semantics="valid")) for _ in range(ROUNDS)
    )
    return {
        "levels": view.alternation_levels(),
        "build": min(builds),
        "peak": peak / 2**20,
        "tail": tail_seconds,
        "head": head_seconds,
        "run": run_seconds,
        "matched": tail_matched,
    }


def _timed(function):
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


def test_alternating_chain_is_linear(benchmark):
    results = {n: _measure(n) for n in CHAINS}
    benchmark.pedantic(_build, args=(_database(CHAINS[-1]),), rounds=1, iterations=1)
    base = results[64]["matched"]
    for n, row in results.items():
        table.add(
            n,
            row["levels"],
            f"{row['build'] * 1e3:.1f}",
            f"{row['peak']:.2f}",
            f"{row['tail'] * 1e3:.2f}",
            f"{row['head'] * 1e3:.2f}",
            f"{row['run'] * 1e3:.2f}",
            row["matched"],
            f"{row['matched'] / base:.2f}x",
        )
    ratio = results[256]["matched"] / base
    assert ratio <= BAR, (
        f"a tail insert on chain-256 matched {ratio:.1f}x the rows of chain-64 "
        f"(bar {BAR}x)"
    )
