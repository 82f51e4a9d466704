"""P2 — performance/ablation: naive vs dependency-counting least models,
and the ground-vs-solve cost split.

The semantics engines sit on one primitive (the oracle least model); this
benchmark isolates its two implementations on grounded TC workloads, and
separately times grounding vs solving — grounding dominates, which is
why the grounder carries the argument-position index.
"""

import pytest

from repro.core.algebra_to_datalog import translation_registry
from repro.corpus import DEDUCTIVE_CORPUS, chain, complete, edges_to_database, random_graph
from repro.datalog.grounding import ground
from repro.datalog.semantics import least_model_with_oracle

from support import ExperimentTable, timed

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "datalog"))
from least_model_reference import least_model_naive  # noqa: E402

table = ExperimentTable(
    "P02-seminaive",
    "least-model implementations and ground/solve split (ablation)",
    ["graph", "ground-rules", "ground-sec", "counting-sec", "naive-sec", "agree"],
)

REGISTRY = translation_registry()

GRAPHS = {
    "chain-32": chain(32),
    "chain-64": chain(64),
    "random-20": random_graph(20, 0.1, seed=22),
    "complete-10": complete(10),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_least_model_implementations(benchmark, graph_name):
    program = DEDUCTIVE_CORPUS["transitive-closure"].program
    database = edges_to_database(GRAPHS[graph_name])
    gp, ground_sec = timed(ground, program, database, registry=REGISTRY)
    oracle = lambda _atom: True  # noqa: E731

    counting = benchmark.pedantic(
        least_model_with_oracle, args=(gp.rules, oracle), rounds=3, iterations=1
    )
    naive, naive_sec = timed(least_model_naive, gp.rules, oracle)
    counting_sec = benchmark.stats.stats.mean
    table.add(
        graph_name,
        len(gp.rules),
        f"{ground_sec:.4f}",
        f"{counting_sec:.4f}",
        f"{naive_sec:.4f}",
        counting == naive,
    )
    assert counting == naive
