"""Characterisation: the exact work of every semi-naive fixpoint loop.

Every loop that closes rows under rules on the join kernel —
``seminaive_stratified``, ``ground()``'s closure, ``valid_evaluate``'s
candidate universe and the delta-stream engine's initial fixpoint,
insertion and retraction closures — runs on ``JoinKernel.close``.  This
file pins, per client, corpus program and graph, what one run costs:
kernel firings, ``rows_matched``, budget steps, charged facts,
``note_iteration`` calls per phase and fault-point hits per name.  The
numbers are literals, recorded from the hand-written loops the driver
replaced: any change to the driver that moves one of them changes what
some client does, round by round.
"""

from collections import Counter
from contextlib import contextmanager
from unittest.mock import patch

import pytest

from repro.core.algebra_to_datalog import translation_registry
from repro.core.valid_eval import valid_evaluate
from repro.corpus import (
    ALGEBRA_CORPUS,
    DEDUCTIVE_CORPUS,
    chain,
    complete,
    cycle,
    edges_to_database,
    edges_to_relation,
    node,
)
from repro.datalog import ground
from repro.datalog.kernel import JoinKernel
from repro.datalog.seminaive import seminaive_stratified
from repro.robustness import EvaluationBudget, FaultInjector, inject_faults
from repro.service import prepare_program
from repro.service.dbsp import DBSPEngine
from repro.service.metrics import ViewMetrics

REGISTRY = translation_registry()
#: ``complete`` only for the algebra's closure: its first delta, 272
#: ``TC`` rows, fires in two slices.
GRAPHS = {"chain": chain(6), "cycle": cycle(5), "complete": complete(17)}
STRATIFIED = [name for name, case in DEDUCTIVE_CORPUS.items() if case.stratified]
ALGEBRA = ["win-game", "transitive-closure"]
INSERT = [("move", (node(5), node(0)))]
DELETE = [("move", (node(2), node(3)))]


@contextmanager
def recording():
    """Tally firings, rows matched, iterations per phase and fault-point
    hits while the block runs; yields the tally."""
    tally = {"fired": 0, "matched": 0, "phases": Counter()}
    fire, note = JoinKernel.fire, EvaluationBudget.note_iteration

    def counting_fire(self, *args, **kwargs):
        pulled = self.rows_matched
        produced = fire(self, *args, **kwargs)
        tally["fired"] += 1
        tally["matched"] += self.rows_matched - pulled
        return produced

    def counting_note(self, stratum=None, phase=None):
        tally["phases"][phase] += 1
        return note(self, stratum, phase)

    injector = FaultInjector()
    with patch.object(JoinKernel, "fire", counting_fire), patch.object(
        EvaluationBudget, "note_iteration", counting_note
    ), inject_faults(injector):
        yield tally
    tally["points"] = dict(injector.hits)


def _work(tally, budget=None):
    progress = budget.progress if budget is not None else None
    return (
        tally["fired"],
        tally["matched"],
        progress.steps if progress else 0,
        progress.facts if progress else 0,
        dict(tally["phases"]),
        tally["points"],
    )


def measure(client, name, graph):
    """``(fired, rows matched, steps, facts, {phase: iterations},
    {fault point: hits})`` of one client run.  The delta-stream engine
    also reports its firings and rows matched as view metrics: the same
    two numbers."""
    edges = GRAPHS[graph]
    budget = EvaluationBudget()
    if client == "valid_evaluate":
        program = ALGEBRA_CORPUS[name].program
        with recording() as tally:
            valid_evaluate(
                program, {"MOVE": edges_to_relation(edges)}, registry=REGISTRY
            )
        return _work(tally)
    program, database = DEDUCTIVE_CORPUS[name].program, edges_to_database(edges)
    if client == "seminaive":
        with recording() as tally:
            seminaive_stratified(program, database, registry=REGISTRY, budget=budget)
    elif client == "ground":
        with recording() as tally:
            ground(program, database, registry=REGISTRY, budget=budget)
    else:
        prepared = prepare_program(name, program)
        metrics = ViewMetrics()
        with recording() as tally:
            engine = DBSPEngine(
                prepared, database, registry=REGISTRY, metrics=metrics, budget=budget
            )
        if client != "dbsp-initialize":
            engine.budget, engine.metrics = EvaluationBudget(), ViewMetrics()
            budget, metrics = engine.budget, engine.metrics
            with recording() as tally:
                if client == "dbsp-insert":
                    engine.apply_stream([(INSERT, [])])
                else:
                    engine.apply_stream([([], DELETE)])
        counters = metrics.counters
        assert (counters["rules_fired"], counters["rows_matched"]) == (
            tally["fired"],
            tally["matched"],
        )
    return _work(tally, budget)


def cases():
    yield "valid_evaluate", "transitive-closure", "complete"
    for graph in ("chain", "cycle"):
        for name in STRATIFIED:
            yield "seminaive", name, graph
        for name in DEDUCTIVE_CORPUS:
            yield "ground", name, graph
        for name in ALGEBRA:
            yield "valid_evaluate", name, graph
        for client in ("dbsp-initialize", "dbsp-insert", "dbsp-delete"):
            # Not a cycle's delete: which over-deleted rows re-derive
            # first follows set order, so its counts vary with hashing.
            if client != "dbsp-delete" or graph == "chain":
                for name in STRATIFIED:
                    yield client, name, graph


#: ``(client, program, graph)`` → ``(fired, rows matched, steps, facts,
#: {phase: iterations}, {fault point: hits})``.
EXPECTED = {
    ('valid_evaluate', 'transitive-closure', 'complete'): (30, 10642, 0, 0, {}, {}),
    ('seminaive', 'transitive-closure', 'chain'): (6, 39, 25, 15, {'seminaive': 5}, {'seminaive.round': 5}),
    ('seminaive', 'unreachable', 'chain'): (9, 91, 59, 42, {'seminaive': 7}, {'seminaive.round': 7}),
    ('seminaive', 'same-generation', 'chain'): (6, 53, 38, 12, {'seminaive': 2}, {'seminaive.round': 2}),
    ('seminaive', 'arith-evens', 'chain'): (23, 25, 47, 21, {'seminaive': 11}, {'seminaive.round': 11}),
    ('seminaive', 'tuples', 'chain'): (6, 30, 21, 15, {'seminaive': 4}, {'seminaive.round': 4}),
    ('seminaive', 'zero-arity', 'chain'): (4, 11, 10, 2, {'seminaive': 4}, {'seminaive.round': 4}),
    ('seminaive', 'nested-tuples', 'chain'): (5, 25, 25, 12, {'seminaive': 2}, {'seminaive.round': 2}),
    ('seminaive', 'sources-sinks', 'chain'): (7, 47, 31, 16, {'seminaive': 4}, {'seminaive.round': 4}),
    ('seminaive', 'arith-squares', 'chain'): (16, 24, 37, 18, {'seminaive': 10}, {'seminaive.round': 10}),
    ('ground', 'transitive-closure', 'chain'): (7, 35, 35, 20, {'grounding': 6}, {'grounder.round': 6}),
    ('ground', 'win-move', 'chain'): (1, 5, 15, 10, {'grounding': 2}, {'grounder.round': 2}),
    ('ground', 'win-lose-draw', 'chain'): (3, 15, 31, 16, {'grounding': 2}, {'grounder.round': 2}),
    ('ground', 'unreachable', 'chain'): (12, 93, 123, 62, {'grounding': 6}, {'grounder.round': 6}),
    ('ground', 'same-generation', 'chain'): (6, 37, 38, 17, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'choice', 'chain'): (9, 5, 14, 9, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'double-negation', 'chain'): (7, 27, 55, 28, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'arith-evens', 'chain'): (25, 22, 47, 26, {'grounding': 12}, {'grounder.round': 12}),
    ('ground', 'tuples', 'chain'): (7, 25, 35, 20, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'zero-arity', 'chain'): (5, 11, 15, 8, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'nested-tuples', 'chain'): (5, 17, 29, 17, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'sources-sinks', 'chain'): (9, 34, 53, 29, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'arith-squares', 'chain'): (25, 21, 47, 26, {'grounding': 9}, {'grounder.round': 9}),
    ('valid_evaluate', 'win-game', 'chain'): (3, 15, 0, 0, {}, {}),
    ('valid_evaluate', 'transitive-closure', 'chain'): (19, 65, 0, 0, {}, {}),
    ('dbsp-initialize', 'transitive-closure', 'chain'): (6, 39, 0, 0, {'dbsp-initialize': 4}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'unreachable', 'chain'): (9, 91, 0, 0, {'dbsp-initialize': 6}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'same-generation', 'chain'): (5, 47, 0, 0, {'dbsp-initialize': 2}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'arith-evens', 'chain'): (12, 22, 0, 0, {'dbsp-initialize': 11}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'tuples', 'chain'): (4, 20, 0, 0, {'dbsp-initialize': 3}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'zero-arity', 'chain'): (4, 11, 0, 0, {'dbsp-initialize': 2}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'nested-tuples', 'chain'): (3, 17, 0, 0, {'dbsp-initialize': 3}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'sources-sinks', 'chain'): (5, 29, 0, 0, {'dbsp-initialize': 5}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'arith-squares', 'chain'): (9, 21, 0, 0, {'dbsp-initialize': 8}, {'incremental.initialize': 1}),
    ('dbsp-insert', 'transitive-closure', 'chain'): (8, 49, 0, 0, {'dbsp-maintain': 1, 'dbsp-insert-close': 6}, {'incremental.apply': 1, 'incremental.component': 1}),
    ('dbsp-insert', 'unreachable', 'chain'): (12, 135, 0, 0, {'dbsp-maintain': 3, 'dbsp-insert-close': 6}, {'incremental.apply': 1, 'incremental.component': 3}),
    ('dbsp-insert', 'same-generation', 'chain'): (4, 8, 0, 0, {'dbsp-maintain': 2}, {'incremental.apply': 1, 'incremental.component': 2}),
    ('dbsp-insert', 'arith-evens', 'chain'): (0, 0, 0, 0, {}, {'incremental.apply': 1}),
    ('dbsp-insert', 'tuples', 'chain'): (6, 6, 0, 0, {'dbsp-maintain': 4}, {'incremental.apply': 1, 'incremental.component': 4}),
    ('dbsp-insert', 'zero-arity', 'chain'): (2, 2, 0, 0, {'dbsp-maintain': 2}, {'incremental.apply': 1, 'incremental.component': 2}),
    ('dbsp-insert', 'nested-tuples', 'chain'): (4, 8, 0, 0, {'dbsp-maintain': 3}, {'incremental.apply': 1, 'incremental.component': 3}),
    ('dbsp-insert', 'sources-sinks', 'chain'): (10, 14, 0, 0, {'dbsp-maintain': 5}, {'incremental.apply': 1, 'incremental.component': 5}),
    ('dbsp-insert', 'arith-squares', 'chain'): (0, 0, 0, 0, {}, {'incremental.apply': 1}),
    ('dbsp-delete', 'transitive-closure', 'chain'): (23, 43, 0, 0, {'dbsp-maintain': 1, 'dbsp-retract': 3}, {'incremental.apply': 1, 'incremental.component': 1}),
    ('dbsp-delete', 'unreachable', 'chain'): (28, 77, 0, 0, {'dbsp-maintain': 3, 'dbsp-retract': 3}, {'incremental.apply': 1, 'incremental.component': 3}),
    ('dbsp-delete', 'same-generation', 'chain'): (13, 33, 0, 0, {'dbsp-maintain': 2, 'dbsp-retract': 3, 'dbsp-insert-close': 1}, {'incremental.apply': 1, 'incremental.component': 2}),
    ('dbsp-delete', 'arith-evens', 'chain'): (0, 0, 0, 0, {}, {'incremental.apply': 1}),
    ('dbsp-delete', 'tuples', 'chain'): (9, 17, 0, 0, {'dbsp-maintain': 4}, {'incremental.apply': 1, 'incremental.component': 4}),
    ('dbsp-delete', 'zero-arity', 'chain'): (3, 7, 0, 0, {'dbsp-maintain': 2}, {'incremental.apply': 1, 'incremental.component': 2}),
    ('dbsp-delete', 'nested-tuples', 'chain'): (7, 34, 0, 0, {'dbsp-maintain': 3}, {'incremental.apply': 1, 'incremental.component': 3}),
    ('dbsp-delete', 'sources-sinks', 'chain'): (11, 17, 0, 0, {'dbsp-maintain': 5}, {'incremental.apply': 1, 'incremental.component': 5}),
    ('dbsp-delete', 'arith-squares', 'chain'): (0, 0, 0, 0, {}, {'incremental.apply': 1}),
    ('seminaive', 'transitive-closure', 'cycle'): (6, 65, 41, 25, {'seminaive': 5}, {'seminaive.round': 5}),
    ('seminaive', 'unreachable', 'cycle'): (9, 105, 54, 30, {'seminaive': 6}, {'seminaive.round': 6}),
    ('seminaive', 'same-generation', 'cycle'): (6, 50, 36, 10, {'seminaive': 2}, {'seminaive.round': 2}),
    ('seminaive', 'arith-evens', 'cycle'): (23, 25, 47, 21, {'seminaive': 11}, {'seminaive.round': 11}),
    ('seminaive', 'tuples', 'cycle'): (6, 30, 21, 15, {'seminaive': 4}, {'seminaive.round': 4}),
    ('seminaive', 'zero-arity', 'cycle'): (4, 11, 10, 2, {'seminaive': 4}, {'seminaive.round': 4}),
    ('seminaive', 'nested-tuples', 'cycle'): (5, 30, 30, 15, {'seminaive': 2}, {'seminaive.round': 2}),
    ('seminaive', 'sources-sinks', 'cycle'): (7, 50, 32, 15, {'seminaive': 3}, {'seminaive.round': 3}),
    ('seminaive', 'arith-squares', 'cycle'): (16, 24, 37, 18, {'seminaive': 10}, {'seminaive.round': 10}),
    ('ground', 'transitive-closure', 'cycle'): (7, 60, 60, 30, {'grounding': 6}, {'grounder.round': 6}),
    ('ground', 'win-move', 'cycle'): (1, 5, 15, 10, {'grounding': 2}, {'grounder.round': 2}),
    ('ground', 'win-lose-draw', 'cycle'): (3, 15, 30, 15, {'grounding': 2}, {'grounder.round': 2}),
    ('ground', 'unreachable', 'cycle'): (12, 105, 125, 60, {'grounding': 6}, {'grounder.round': 6}),
    ('ground', 'same-generation', 'cycle'): (6, 35, 35, 15, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'choice', 'cycle'): (9, 5, 14, 9, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'double-negation', 'cycle'): (7, 25, 50, 25, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'arith-evens', 'cycle'): (25, 22, 47, 26, {'grounding': 12}, {'grounder.round': 12}),
    ('ground', 'tuples', 'cycle'): (7, 25, 35, 20, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'zero-arity', 'cycle'): (5, 11, 15, 8, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'nested-tuples', 'cycle'): (5, 20, 35, 20, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'sources-sinks', 'cycle'): (9, 35, 55, 30, {'grounding': 3}, {'grounder.round': 3}),
    ('ground', 'arith-squares', 'cycle'): (25, 21, 47, 26, {'grounding': 9}, {'grounder.round': 9}),
    ('valid_evaluate', 'win-game', 'cycle'): (3, 15, 0, 0, {}, {}),
    ('valid_evaluate', 'transitive-closure', 'cycle'): (20, 115, 0, 0, {}, {}),
    ('dbsp-initialize', 'transitive-closure', 'cycle'): (6, 65, 0, 0, {'dbsp-initialize': 4}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'unreachable', 'cycle'): (9, 105, 0, 0, {'dbsp-initialize': 5}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'same-generation', 'cycle'): (5, 45, 0, 0, {'dbsp-initialize': 2}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'arith-evens', 'cycle'): (12, 22, 0, 0, {'dbsp-initialize': 11}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'tuples', 'cycle'): (4, 20, 0, 0, {'dbsp-initialize': 3}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'zero-arity', 'cycle'): (4, 11, 0, 0, {'dbsp-initialize': 2}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'nested-tuples', 'cycle'): (3, 20, 0, 0, {'dbsp-initialize': 3}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'sources-sinks', 'cycle'): (5, 30, 0, 0, {'dbsp-initialize': 3}, {'incremental.initialize': 1}),
    ('dbsp-initialize', 'arith-squares', 'cycle'): (9, 21, 0, 0, {'dbsp-initialize': 8}, {'incremental.initialize': 1}),
    ('dbsp-insert', 'transitive-closure', 'cycle'): (3, 12, 0, 0, {'dbsp-maintain': 1, 'dbsp-insert-close': 1}, {'incremental.apply': 1, 'incremental.component': 1}),
    ('dbsp-insert', 'unreachable', 'cycle'): (8, 33, 0, 0, {'dbsp-maintain': 3, 'dbsp-insert-close': 1}, {'incremental.apply': 1, 'incremental.component': 3}),
    ('dbsp-insert', 'same-generation', 'cycle'): (6, 12, 0, 0, {'dbsp-maintain': 2, 'dbsp-insert-close': 1}, {'incremental.apply': 1, 'incremental.component': 2}),
    ('dbsp-insert', 'arith-evens', 'cycle'): (0, 0, 0, 0, {}, {'incremental.apply': 1}),
    ('dbsp-insert', 'tuples', 'cycle'): (6, 6, 0, 0, {'dbsp-maintain': 4}, {'incremental.apply': 1, 'incremental.component': 4}),
    ('dbsp-insert', 'zero-arity', 'cycle'): (2, 2, 0, 0, {'dbsp-maintain': 2}, {'incremental.apply': 1, 'incremental.component': 2}),
    ('dbsp-insert', 'nested-tuples', 'cycle'): (4, 5, 0, 0, {'dbsp-maintain': 3}, {'incremental.apply': 1, 'incremental.component': 3}),
    ('dbsp-insert', 'sources-sinks', 'cycle'): (5, 5, 0, 0, {'dbsp-maintain': 5}, {'incremental.apply': 1, 'incremental.component': 5}),
    ('dbsp-insert', 'arith-squares', 'cycle'): (0, 0, 0, 0, {}, {'incremental.apply': 1}),
}


@pytest.mark.parametrize("client, name, graph", list(cases()))
def test_work_is_unchanged(client, name, graph):
    assert measure(client, name, graph) == EXPECTED[client, name, graph]
