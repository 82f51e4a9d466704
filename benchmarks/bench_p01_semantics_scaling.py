"""P1 — performance: the semantics engines across workloads and scales.

Times grounding + solving for each engine on TC and WIN workloads over
chains, cycles and random graphs (n = 8 … 64).  The headline shapes:
stratified/WFS/valid cost the same order on these workloads (valid *is*
an alternating fixpoint), inflationary is round-bound, and everything is
polynomial in the ground-program size.

The scaling bar: ``win`` over chains of 64, 128 and 256 moves under
``wellfounded`` and ``valid``.  Both solve one component of the atom
graph at a time, so an acyclic game costs linear work; ``run()`` on
chain-256 must take at most ``SCALING_BAR`` = 8x its time on chain-64
(4x the chain).  Alternating the whole program, as the solvers once
did, read 11–16x.  Each chain is timed best-of-``ROUNDS``.
"""

import pytest

from repro.core.algebra_to_datalog import translation_registry
from repro.corpus import DEDUCTIVE_CORPUS, chain, cycle, edges_to_database, random_graph
from repro.datalog import run

from support import ExperimentTable, timed

table = ExperimentTable(
    "P01-semantics-scaling",
    "engine wall-clock across workloads (performance)",
    ["workload", "graph", "semantics", "true-atoms", "seconds"],
)

REGISTRY = translation_registry()

WORKLOADS = {
    "tc": DEDUCTIVE_CORPUS["transitive-closure"],
    "win": DEDUCTIVE_CORPUS["win-move"],
}

GRAPHS = {
    "chain-16": chain(16),
    "chain-32": chain(32),
    "chain-64": chain(64),
    "cycle-24": cycle(24),
    "random-16": random_graph(16, 0.12, seed=21),
    "random-24": random_graph(24, 0.08, seed=21),
}

SEMANTICS = ("stratified", "inflationary", "wellfounded", "valid")

SCALING_CHAINS = (64, 128, 256)
SCALING_BAR = 8.0
ROUNDS = 5


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("semantics", SEMANTICS)
def test_engine(benchmark, workload, graph_name, semantics):
    case = WORKLOADS[workload]
    if semantics == "stratified" and not case.stratified:
        pytest.skip("not stratified")
    database = edges_to_database(GRAPHS[graph_name])

    def solve():
        return run(case.program, database, semantics=semantics, registry=REGISTRY)

    outcome = benchmark.pedantic(solve, rounds=1, iterations=1)
    true_atoms = sum(len(outcome.true_rows(p)) for p in case.predicates)
    table.add(workload, graph_name, semantics, true_atoms,
              f"{benchmark.stats.stats.mean:.4f}")


@pytest.mark.parametrize("semantics", ("wellfounded", "valid"))
def test_win_chain_scaling(benchmark, semantics):
    case = WORKLOADS["win"]
    seconds = {}
    for n in SCALING_CHAINS[:-1]:
        database = edges_to_database(chain(n))
        outcome, seconds[n] = min(
            (
                timed(run, case.program, database, semantics=semantics, registry=REGISTRY)
                for _round in range(ROUNDS)
            ),
            key=lambda result: result[1],
        )
        if n != SCALING_CHAINS[0]:
            table.add("win", f"chain-{n}", semantics, len(outcome.true_rows("win")),
                      f"{seconds[n]:.4f}")
    longest = SCALING_CHAINS[-1]
    outcome = benchmark.pedantic(
        run,
        args=(case.program, edges_to_database(chain(longest)), semantics),
        kwargs={"registry": REGISTRY},
        rounds=ROUNDS,
        iterations=1,
    )
    seconds[longest] = benchmark.stats.stats.min
    table.add("win", f"chain-{longest}", semantics, len(outcome.true_rows("win")),
              f"{seconds[longest]:.4f}")
    ratio = seconds[longest] / seconds[SCALING_CHAINS[0]]
    assert ratio <= SCALING_BAR, (
        f"{semantics}: win on chain-{longest} took {ratio:.1f}x chain-"
        f"{SCALING_CHAINS[0]} (bar {SCALING_BAR}x)"
    )
