"""P5 — performance/ablation: direct semi-naive vs ground-then-solve.

Stratified programs can skip grounding entirely; this compares the
direct tuple-at-a-time evaluator against the grounding pipeline on TC
and stratified-negation workloads as the graph grows.

Both arms run their joins on the same kernel (PR 16 moved the grounder
onto it), so what ground-then-solve pays on top is materialising and
solving the propositional program: **ground-then-solve stays within
``RATIO_BAR`` = 8x of the direct evaluator on every row** (measured
2–3x; 11–21x when the grounder still walked its own scan-and-filter
join).  Each arm is timed best-of-``ROUNDS``: the rows are
milliseconds, one scheduler hiccup is a multiple.
"""

import pytest

from repro.core.algebra_to_datalog import translation_registry
from repro.corpus import DEDUCTIVE_CORPUS, chain, complete, edges_to_database, random_graph
from repro.datalog import run
from repro.datalog.seminaive import seminaive_stratified

from support import ExperimentTable, timed

table = ExperimentTable(
    "P05-direct-vs-ground",
    "direct semi-naive vs ground-then-solve on stratified programs (ablation)",
    ["program", "graph", "direct-sec", "ground-sec", "ratio", "agree"],
)
RATIO_BAR = 8.0
ROUNDS = 5

REGISTRY = translation_registry()

CASES = [
    ("transitive-closure", "chain-32", chain(32)),
    ("transitive-closure", "chain-64", chain(64)),
    ("transitive-closure", "complete-10", complete(10)),
    ("unreachable", "chain-16", chain(16)),
    ("same-generation", "random-12", random_graph(12, 0.15, seed=71)),
]


@pytest.mark.parametrize(
    "case_name,graph_name,edges", CASES, ids=[f"{c}-{g}" for c, g, _e in CASES]
)
def test_direct_vs_ground(benchmark, case_name, graph_name, edges):
    case = DEDUCTIVE_CORPUS[case_name]
    database = edges_to_database(edges)

    direct = benchmark.pedantic(
        seminaive_stratified,
        args=(case.program, database),
        kwargs={"registry": REGISTRY},
        rounds=ROUNDS,
        iterations=1,
    )
    direct_sec = benchmark.stats.stats.min
    grounded, ground_sec = min(
        (
            timed(run, case.program, database, semantics="stratified", registry=REGISTRY)
            for _round in range(ROUNDS)
        ),
        key=lambda outcome: outcome[1],
    )
    ratio = ground_sec / direct_sec
    agree = all(
        direct.get(predicate, frozenset()) == grounded.true_rows(predicate)
        for predicate in case.predicates
    )
    table.add(
        case_name, graph_name, f"{direct_sec:.4f}", f"{ground_sec:.4f}", f"{ratio:.1f}x", agree
    )
    assert agree
    assert ratio <= RATIO_BAR, (
        f"ground-then-solve is {ratio:.1f}x the direct evaluator on "
        f"{case_name}/{graph_name} (bar {RATIO_BAR}x)"
    )
