"""P17 — performance: what preparing a program costs a ``run()`` call.

The route of a program (its open cone, the closed part evaluated
component by component, the part to ground), the condensation of its
predicate graph and its component schedule (each component's naive and
lead plans) depend on the program alone; ``run()`` memoizes them per
immutable :class:`~repro.datalog.ast.Program`, and the corpus parses
each source once.  For the deductive programs of the
``eval_paper`` workload on its graph sizes, the table sets a *cold* call
— a fresh ``parse_program`` of the source, every such memo cleared, then
``run()`` — against a *warm* one — ``run()`` on the corpus's program —
each the best of ``ROUNDS`` samples of ``CALLS`` calls, taken
alternately.  Plans compiled by :func:`~repro.datalog.kernel.compile_plan`
stay warm on both sides: only the parse and the per-program analysis
differ.

The bar: warm ≤ ``BAR`` = 0.85x cold on every stratified row, which
holds when a call pays only for its data.  Where each call re-parsed
and re-analysed its program, both sides did the same work (≈ 1.0x).
"""

import timeit

from repro.corpus import DEDUCTIVE_CORPUS, binary_tree, chain, cycle, edges_to_database, grid
from repro.datalog import run
from repro.datalog.engine import _route
from repro.datalog.parser import parse_program
from repro.datalog.schedule import components
from repro.datalog.stratification import condensation, open_cone

from support import ExperimentTable

table = ExperimentTable(
    "P17-prepared-run",
    "a warm run() pays only for its data: warm <= 0.85x cold on every stratified row",
    ["program", "graph", "semantics", "cold-ms", "warm-ms", "warm/cold"],
)

GRAPHS = {
    "chain-24": chain(24),
    "chain-32": chain(32),
    "chain-96": chain(96),
    "cycle-25": cycle(25),
    "cycle-97": cycle(97),
    "grid-5": grid(5, 5),
    "grid-7": grid(7, 7),
    "tree-4": binary_tree(4),
}
CASES = (
    ("transitive-closure", ("chain-32", "cycle-25", "grid-5", "tree-4")),
    ("same-generation", ("tree-4", "grid-5")),
    ("unreachable", ("chain-24", "grid-5", "cycle-25", "tree-4")),
    ("win-move", ("chain-96", "cycle-97", "grid-7")),
    ("double-negation", ("chain-32", "cycle-25")),
)
BAR = 0.85
ROUNDS = 5
CALLS = 20


def _best_pair(cold, warm):
    """Best of ``ROUNDS`` samples of each side, taken alternately; a
    sample is the mean seconds of ``CALLS`` calls (``timeit``: no GC)."""
    samples = {cold: [], warm: []}
    for _round in range(ROUNDS):
        for call, times in samples.items():
            times.append(timeit.Timer(call).timeit(CALLS) / CALLS)
    return min(samples[cold]), min(samples[warm])


def _measure(name, graph):
    case = DEDUCTIVE_CORPUS[name]
    database = edges_to_database(GRAPHS[graph])
    semantics = "stratified" if case.stratified else "valid"

    def cold():
        for memo in (_route, open_cone, condensation, components):
            memo.cache_clear()
        run(parse_program(case.source, name=name), database, semantics)

    def warm():
        run(case.program, database, semantics)

    warm()
    return (semantics, *_best_pair(cold, warm))


def test_a_warm_run_pays_only_for_its_data(benchmark):
    rows = [
        (name, graph, *_measure(name, graph)) for name, graphs in CASES for graph in graphs
    ]
    benchmark.pedantic(
        run,
        args=(DEDUCTIVE_CORPUS["unreachable"].program, edges_to_database(GRAPHS["grid-5"])),
        rounds=1,
        iterations=1,
    )
    slow = []
    for name, graph, semantics, cold, warm in rows:
        table.add(
            name, graph, semantics, f"{cold * 1e3:.3f}", f"{warm * 1e3:.3f}",
            f"{warm / cold:.2f}x",
        )
        if DEDUCTIVE_CORPUS[name].stratified and warm > BAR * cold:
            slow.append(f"{name}/{graph} {warm / cold:.2f}x")
    assert not slow, f"warm run() above {BAR}x cold: {', '.join(slow)}"
