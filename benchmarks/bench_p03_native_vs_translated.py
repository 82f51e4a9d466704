"""P3 — performance/ablation: native three-valued evaluation vs
translate-to-deduction.

The same algebra= programs answered by (a) the native alternating
fixpoint on set equations and (b) Proposition 5.4 translation plus the
ground valid engine.  Both are correct (E10); this measures their
relative cost as the database grows — the design-decision ablation from
DESIGN.md §3.

The ``ground-atoms`` column counts the atoms of the translated program
grounded over the row's database.  Bar: on win-game over a chain, at
most 3·|MOVE|.  Each auxiliary of the translation is restricted to its
reader's database range, which gives 3·|MOVE| − 1; without that
restriction the auxiliary ranges over ``π₁(MOVE) × WIN``, |MOVE|² atoms
(4,095 on chain-64, 16,383 on chain-128).

Both columns are timed the same way: a full collection, then the best
of five calls (``support.best_of``).  One call per row let a cyclic-GC
pass decide it: win-game on chain-128 read 16 ms native, against ≈ 2 ms
outside pytest.
"""

import pytest

from repro.core.algebra_to_datalog import translate_program, translation_registry
from repro.core.encoding import environment_to_database
from repro.core.equivalence import (
    algebra_answers_native,
    algebra_answers_translated,
)
from repro.corpus import ALGEBRA_CORPUS, chain, cycle, edges_to_relation, random_graph
from repro.datalog.grounding import ground

from support import ExperimentTable, best_of

table = ExperimentTable(
    "P03-native-vs-translated",
    "native 3-valued evaluation vs translate+solve (ablation)",
    ["program", "graph", "native-sec", "translated-sec", "ground-atoms", "agree"],
)

REGISTRY = translation_registry()

CASES = [
    ("win-game", "chain-16", chain(16)),
    ("win-game", "chain-64", chain(64)),
    ("win-game", "chain-128", chain(128)),
    ("win-game", "cycle-12", cycle(12)),
    ("win-game", "random-12", random_graph(12, 0.15, seed=23)),
    ("transitive-closure", "chain-10", chain(10)),
    ("transitive-closure", "random-10", random_graph(10, 0.15, seed=23)),
]


@pytest.mark.parametrize(
    "case_name,graph_name,edges", CASES, ids=[f"{c}-{g}" for c, g, _e in CASES]
)
def test_routes(benchmark, case_name, graph_name, edges):
    case = ALGEBRA_CORPUS[case_name]
    env = {"MOVE": edges_to_relation(edges, "MOVE")}

    native, native_sec = benchmark.pedantic(
        best_of,
        args=(algebra_answers_native, case.program, env),
        kwargs={"registry": REGISTRY},
        rounds=1,
        iterations=1,
    )
    translated, translated_sec = best_of(
        algebra_answers_translated, case.program, env, registry=REGISTRY
    )
    grounded = ground(
        translate_program(case.program).program,
        environment_to_database(env, {}),
        registry=REGISTRY,
    )
    atoms = sum(1 for _atom in grounded.atoms())
    table.add(
        case_name,
        graph_name,
        f"{native_sec:.4f}",
        f"{translated_sec:.4f}",
        atoms,
        native == translated,
    )
    assert native == translated
    if case_name == "win-game" and graph_name.startswith("chain-"):
        assert atoms <= 3 * len(edges), (graph_name, atoms)
