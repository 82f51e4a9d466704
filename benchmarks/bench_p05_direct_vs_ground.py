"""P5 — performance/ablation: ``run()`` vs forced ground-then-solve.

``run()`` evaluates whatever negation leaves closed directly on the join
kernel and grounds only the program's open cone (PR 22); an explicit
``ground_program=`` keeps the whole program on ground-then-solve.  Both
arms are the shipped front door — the second with grounding timed
inside it — so the table measures what a caller gets, and the bar fails
if the wiring is lost:

* on every **stratified** row ``run()`` is at least ``SPEEDUP_BAR`` =
  1.5x faster than the forced ground path (2.1–2.9x between the same
  two evaluators when they were called directly);
* on the **mixed** row — ``unreach`` + ``win`` over one grid under
  ``valid``, where only ``win`` is grounded — ``run()`` is not slower.

Each arm is timed best-of-``ROUNDS``: the rows are milliseconds, one
scheduler hiccup is a multiple.
"""

import pytest

from repro.core.algebra_to_datalog import translation_registry
from repro.corpus import (
    DEDUCTIVE_CORPUS,
    chain,
    complete,
    edges_to_database,
    grid,
    random_graph,
)
from repro.datalog import ground, open_cone, run
from repro.datalog.parser import parse_program

from support import ExperimentTable, timed

table = ExperimentTable(
    "P05-direct-vs-ground",
    "run() (closed components direct, cone grounded) vs forced ground-then-solve",
    ["program", "graph", "semantics", "run-sec", "ground-sec", "speedup", "agree"],
)
SPEEDUP_BAR = 1.5
ROUNDS = 5

REGISTRY = translation_registry()

UNREACH_AND_WIN = parse_program(
    DEDUCTIVE_CORPUS["unreachable"].source + "win(X) :- move(X, Y), not win(Y).",
    name="unreachable+win",
)


def _corpus(name):
    return DEDUCTIVE_CORPUS[name].program, DEDUCTIVE_CORPUS[name].predicates


#: (program, answer predicates, graph name, edges, semantics)
CASES = [
    (*_corpus("transitive-closure"), "chain-32", chain(32), "stratified"),
    (*_corpus("transitive-closure"), "chain-64", chain(64), "stratified"),
    (*_corpus("transitive-closure"), "complete-10", complete(10), "stratified"),
    (*_corpus("unreachable"), "chain-16", chain(16), "stratified"),
    (*_corpus("same-generation"), "random-12", random_graph(12, 0.15, seed=71), "stratified"),
    (UNREACH_AND_WIN, ("tc", "unreach", "win"), "grid-5", grid(5, 5), "valid"),
]


def _forced(program, database, semantics):
    return run(
        program,
        database,
        semantics,
        registry=REGISTRY,
        ground_program=ground(program, database, registry=REGISTRY),
    )


@pytest.mark.parametrize(
    "program,predicates,graph_name,edges,semantics",
    CASES,
    ids=[f"{case[0].name}-{case[2]}" for case in CASES],
)
def test_run_vs_forced_ground(benchmark, program, predicates, graph_name, edges, semantics):
    database = edges_to_database(edges)
    # A program with a cone still grounds part of itself: not slower.
    bar = 1.0 if open_cone(program) else SPEEDUP_BAR

    routed = benchmark.pedantic(
        run,
        args=(program, database, semantics),
        kwargs={"registry": REGISTRY},
        rounds=ROUNDS,
        iterations=1,
    )
    run_sec = benchmark.stats.stats.min
    forced, ground_sec = min(
        (timed(_forced, program, database, semantics) for _round in range(ROUNDS)),
        key=lambda outcome: outcome[1],
    )
    speedup = ground_sec / run_sec
    agree = all(
        routed.true_rows(predicate) == forced.true_rows(predicate)
        and routed.undefined_rows(predicate) == forced.undefined_rows(predicate)
        for predicate in predicates
    )
    table.add(
        program.name,
        graph_name,
        semantics,
        f"{run_sec:.4f}",
        f"{ground_sec:.4f}",
        f"{speedup:.1f}x",
        agree,
    )
    assert agree
    assert speedup >= bar, (
        f"run() is {speedup:.2f}x the forced ground path on "
        f"{program.name}/{graph_name} (bar {bar}x)"
    )
