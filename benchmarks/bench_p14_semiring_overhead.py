"""P14 — what does carrying semiring annotations cost?

The PR 10 tentpole generalizes resident views from boolean truth to
K-relations over a pluggable commutative semiring, with two pricing
claims this benchmark pins down on P06's chain-forest workload:

* **the boolean fast path is free** — registering with an explicit
  ``semiring="bool"`` takes *exactly* the pre-annotation code paths
  (structurally asserted: the view runs a DBSP circuit, not the
  annotated engine), so maintenance stays within noise of a view built
  the seed way with no semiring argument at all; the timing ratio is a
  tripwire on top of that structural guarantee, and
* **annotations are pay-as-you-go** — the naturals / tropical /
  why-provenance views cost more, but only the views that opted in pay
  it, and what they pay is bounded: since annotated maintenance runs on
  the join kernel (invalidate the cone, re-derive from below) every
  annotated tier stays within ``ANNOTATED_BAR`` of the boolean circuit
  on the same update (1-4x measured; ~3,500x when each update re-ran
  the whole fixpoint).

Every annotated view's *support* is checked against the boolean view
after each timed update: annotations change what rows carry, never
which rows exist.

The build rows price an annotated view's first materialization, which
is its maintenance pass from ∅ (every EDB fact one insert): on a
chain, doubling the length quadruples the ``tc`` rows, and the rows the
build matches may grow by at most ``BUILD_BAR`` (≈ 4x measured; 7.65x
when the build ran whole-stratum Jacobi rounds).

``REPRO_BENCH_SCALE=smoke`` (the CI bench-smoke job) cuts the timing
repeats and relaxes the tripwire correspondingly.
"""

import os

import pytest

from repro.corpus import edges_to_database
from repro.relations import Atom
from repro.service import AnnotatedEngine, DBSPEngine, MaterializedView, prepare_program

from support import ExperimentTable, timed

SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"

table = ExperimentTable(
    "P14-semiring-overhead",
    "bool views keep the seed fast path; annotated semirings are pay-as-you-go",
    [
        "semiring",
        "graph",
        "tc-rows",
        "update-sec",
        "vs-bool",
        "engine",
        "support-agrees",
        "build-ms",
        "rows-matched",
        "matched-vs-64",
    ],
)

TC = """
tc(X, Y) :- move(X, Y).
tc(X, Z) :- move(X, Y), tc(Y, Z).
"""

CHAIN_EDGES = 20

#: Measured semirings, in reporting order; ``bool`` is the baseline the
#: ratios are computed against.
SEMIRINGS = ("bool", "naturals", "tropical", "why")

#: One size for every semiring: the ratios in the table only mean
#: something on a shared workload.
SIZE = 100
GRAPH_NAME = f"edges-{SIZE}"
#: Update cycles per timing sample — a shortcut update is a millisecond
#: or a few under every semiring, so amortize the clock over a batch.
REPEATS = 10 if SMOKE else 30
#: The bar that can fail: an annotated update costs at most this many
#: boolean ones.  It prices the discipline (a cone of ~100 rows reset
#: and re-derived in full against the circuit's delta), not the view.
ANNOTATED_BAR = 20.0
#: The boolean tripwire: the structural assert below is the real
#: guarantee (explicit ``semiring="bool"`` constructs the same engine
#: class the seed ctor does); the timing bound just catches an
#: accidental slow path sneaking into the shared dispatch.  The 5%
#: acceptance target is checked on the recorded full-scale numbers;
#: the in-test bound is looser because per-run jitter at these
#: durations routinely exceeds 5%.
BOOL_TRIPWIRE = 2.0 if SMOKE else 1.5
#: Chain lengths the build rows measure, and the bar on their
#: ``rows_matched`` ratio (doubling the chain quadruples the rows).
BUILD_CHAINS = (64, 128)
BUILD_BAR = 5.0

_baseline: dict = {}


def chain_forest(total_edges):
    edges = []
    for chain_index in range(total_edges // CHAIN_EDGES):
        nodes = [Atom(f"c{chain_index}n{i}") for i in range(CHAIN_EDGES + 1)]
        edges += list(zip(nodes, nodes[1:]))
    return edges


def _view(semiring=None):
    database = edges_to_database(chain_forest(SIZE))
    prepared = prepare_program("tc", TC)
    if semiring is None:  # the seed ctor, no semiring argument at all
        return MaterializedView(prepared, database)
    return MaterializedView(prepared, database, semiring=semiring)


SOURCE, TARGET = Atom("c0n5"), Atom("c0n15")


def _cycles(view, repeats=REPEATS):
    """``repeats`` shortcut insert+delete cycles on ``view``."""
    for _ in range(repeats):
        view.insert("move", SOURCE, TARGET)
        view.delete("move", SOURCE, TARGET)


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_semiring_maintenance_overhead(benchmark, semiring):
    view = _view(semiring)
    benchmark.pedantic(lambda: _cycles(view, 1), rounds=3, iterations=1)

    _cycles(view, 1)  # warm
    _, total_sec = timed(_cycles, view)
    update_sec = total_sec / REPEATS

    # Support agreement at the apex of one more cycle: annotations
    # change what rows carry, never which rows exist.
    oracle = _view("bool")
    view.insert("move", SOURCE, TARGET)
    oracle.insert("move", SOURCE, TARGET)
    agree = view.rows("tc") == oracle.rows("tc")
    view.delete("move", SOURCE, TARGET)
    oracle.delete("move", SOURCE, TARGET)
    agree = agree and view.rows("tc") == oracle.rows("tc")

    # The structural half of the "boolean is free" claim: an explicit
    # bool semiring runs the exact seed engine, everything else the
    # annotated one.
    if semiring == "bool":
        assert isinstance(view.engine, DBSPEngine)
        _baseline["update_sec"] = update_sec
    else:
        assert isinstance(view.engine, AnnotatedEngine)

    baseline = _baseline.get("update_sec")
    ratio = (
        f"{update_sec / max(baseline, 1e-9):.2f}x"
        if baseline is not None
        else "n/a"
    )
    table.add(
        semiring,
        GRAPH_NAME,
        len(view.rows("tc")),
        f"{update_sec:.6f}",
        ratio,
        type(view.engine).__name__,
        agree,
        "-",
        "-",
        "-",
    )
    assert agree
    if semiring != "bool":
        assert baseline is not None, "the bool tier runs first"
        assert view.metrics.counters.get("annotated_initializes") == 1
        assert update_sec <= ANNOTATED_BAR * baseline, (
            f"{semiring} maintenance ({update_sec:.6f}s per update) is more "
            f"than {ANNOTATED_BAR:g}x the boolean circuit ({baseline:.6f}s) — "
            "annotated views are back to paying for their view, not their cone"
        )

    if semiring == "bool":
        # The timing tripwire: the same cycles on a view built the
        # seed way (no semiring argument).  Same engine class, same
        # code — any stable multiple here means the shared dispatch
        # grew an annotation branch on the hot path.
        seed_view = _view()
        assert type(seed_view.engine) is type(view.engine)
        _cycles(seed_view, 2)  # warm
        _, seed_total = timed(_cycles, seed_view)
        seed_sec = seed_total / REPEATS
        assert update_sec < seed_sec * BOOL_TRIPWIRE, (
            f"explicit semiring='bool' maintenance ({update_sec:.6f}s) "
            f"is more than {BOOL_TRIPWIRE}x the seed path "
            f"({seed_sec:.6f}s) — the boolean fast path regressed"
        )
        table.add(
            "bool-seed-ctor",
            GRAPH_NAME,
            len(seed_view.rows("tc")),
            f"{seed_sec:.6f}",
            f"{seed_sec / max(update_sec, 1e-9):.2f}x",
            type(seed_view.engine).__name__,
            True,
            "-",
            "-",
            "-",
        )


def _build(semiring, length):
    """Best-of-3 (view, seconds) of registering ``tc`` over a chain."""
    nodes = [Atom(f"n{i}") for i in range(length + 1)]
    database = edges_to_database(list(zip(nodes, nodes[1:])))
    prepared = prepare_program("tc", TC)
    runs = [
        timed(MaterializedView, prepared, database, semiring=semiring)
        for _ in range(3)
    ]
    return min(runs, key=lambda run: run[1])


@pytest.mark.parametrize("semiring", SEMIRINGS[1:])
def test_annotated_build_work(benchmark, semiring):
    benchmark.pedantic(
        lambda: _build(semiring, BUILD_CHAINS[0]), rounds=1, iterations=1
    )
    matched = {}
    for length in BUILD_CHAINS:
        view, seconds = _build(semiring, length)
        assert isinstance(view.engine, AnnotatedEngine)
        matched[length] = view.engine.state.rows_matched
        assert view.metrics.counters["rows_matched"] == matched[length]
        oracle = MaterializedView(
            prepare_program("tc", TC), view.database, semiring="bool"
        )
        agree = view.rows("tc") == oracle.rows("tc")
        table.add(
            semiring,
            f"chain-{length}",
            len(view.rows("tc")),
            "-",
            "-",
            type(view.engine).__name__,
            agree,
            f"{seconds * 1e3:.1f}",
            matched[length],
            f"{matched[length] / matched[BUILD_CHAINS[0]]:.2f}x",
        )
        assert agree
    first, last = (matched[length] for length in BUILD_CHAINS)
    assert last <= BUILD_BAR * first, (
        f"{semiring}: the chain-{BUILD_CHAINS[-1]} build matched {last} rows, "
        f"more than {BUILD_BAR:g}x chain-{BUILD_CHAINS[0]}'s {first} — the "
        "build is back to re-firing whole strata every round"
    )
