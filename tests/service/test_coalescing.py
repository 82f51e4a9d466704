"""Coalescing correctness: a burst equals the same batches one at a time.

The group-commit queue (PR 8) lets one leader absorb an N-batch burst
into a single circuit pass and a single snapshot publish.  That is only
an optimisation if it is *invisible*: the published snapshot after a
burst must be **byte-identical** (same ``fingerprint``) to the snapshot
after applying the same batches sequentially.  This suite checks
exactly that, across every engine a view can run on (the delta-stream
circuit, the rebuild engine of inflationary views, and the alternating
chain of the valid / well-founded semantics), from
concurrent writers through the real group-commit path, and under
injected ``service.lock`` and budget faults — a failed or refused
burst must leave the queue empty and the view's state exactly where it
was.
"""

import random
import threading

import pytest

from repro.relations import Atom
from repro.robustness import (
    EvaluationBudget,
    FaultInjector,
    FaultRule,
    InjectedFault,
    inject_faults,
)
from repro.robustness.errors import DeadlineExceeded
from repro.service import QueryService

TC = (
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
)
WIN = "win(X) :- move(X, Y), not win(Y).\n"

#: (config id, program, semantics) — the four registration
#: disciplines, with the rebuild engine over both programs.
CONFIGS = [
    ("stratified-dbsp", TC, "stratified"),
    ("inflationary", WIN, "inflationary"),
    ("inflationary-tc", TC, "inflationary"),
    ("wellfounded", WIN, "wellfounded"),
    ("valid", WIN, "valid"),
]

NODES = [Atom(f"n{i}") for i in range(5)]
BATCHES = 10


def _update_predicate(program):
    return "edge" if program is TC else "move"


def _query_predicate(program):
    return "tc" if program is TC else "win"


def _random_batches(rng, predicate, count=BATCHES):
    """Churn-heavy batches: rows repeat across batches so a burst sees
    genuine insert/delete cancellation, plus phantom deletes."""
    pool = [(x, y) for x in NODES for y in NODES]
    hot = rng.sample(pool, 6)
    batches = []
    for _ in range(count):
        inserts, deletes = [], []
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(hot) if rng.random() < 0.7 else rng.choice(pool)
            if rng.random() < 0.4:
                deletes.append((predicate, row))
            else:
                inserts.append((predicate, row))
        batches.append((inserts, deletes))
    return batches


def _fresh_service(config, rng, **kwargs):
    _, program, semantics = config
    service = QueryService(**kwargs)
    service.register("v", program, semantics=semantics)
    predicate = _update_predicate(program)
    seed_rows = [
        (predicate, (rng.choice(NODES), rng.choice(NODES))) for _ in range(4)
    ]
    service.update("v", inserts=seed_rows)
    return service


def _fingerprint(service):
    return service.view("v").read_snapshot().fingerprint


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[config[0] for config in CONFIGS]
)
@pytest.mark.parametrize("seed", range(4))
def test_burst_fingerprint_matches_sequential(config, seed):
    """apply_stream(batches) and N× apply publish byte-identical models."""
    _, program, _ = config
    predicate = _update_predicate(program)
    burst = _fresh_service(config, random.Random(f"coalesce-{seed}"))
    sequential = _fresh_service(config, random.Random(f"coalesce-{seed}"))
    try:
        batches = _random_batches(
            random.Random(f"coalesce-batches-{seed}"), predicate
        )
        view = burst.view("v")
        swaps_before = view.metrics.counters["snapshot_swaps"]
        summary = view.apply_stream(batches)
        assert summary["batches"] == len(batches)
        # The whole burst was one publish, whatever the engine ...
        assert view.metrics.counters["snapshot_swaps"] == swaps_before + 1
        if summary["mode"] == "incremental":
            # ... and on the circuits also a single pass.
            coalesced = view.metrics.counters["delta_batches_coalesced"]
            assert coalesced >= len(batches) - 1
        for inserts, deletes in batches:
            sequential.update("v", inserts=inserts, deletes=deletes)
        assert _fingerprint(burst) == _fingerprint(
            sequential
        ), f"burst and sequential fingerprints diverged under {config[0]}"
    finally:
        burst.close()
        sequential.close()


@pytest.mark.parametrize("semiring", ["tropical", "why"])
@pytest.mark.parametrize("seed", range(4))
def test_annotated_burst_is_one_pass_and_matches_sequential(semiring, seed):
    """An annotated view folds a burst into its net EDB change and runs
    one maintenance pass for the one publish: same snapshot (rows and
    annotation texts) and same database as the batches one at a time, in
    less work."""
    services = [QueryService(semiring=semiring) for _ in range(2)]
    try:
        rng = random.Random(f"annotated-coalesce-{seed}")
        seed_rows = [
            ("edge", (rng.choice(NODES), rng.choice(NODES))) for _ in range(4)
        ]
        for service in services:
            service.register("v", TC)
            service.update("v", inserts=seed_rows)
        burst, sequential = (service.view("v") for service in services)
        batches = _random_batches(
            random.Random(f"annotated-batches-{seed}"), "edge"
        )
        before = dict(burst.metrics.counters)
        summary = burst.apply_stream(batches)
        assert summary["mode"] == "incremental"
        assert summary["batches"] == len(batches)
        counters = burst.metrics.counters
        assert counters["snapshot_swaps"] == before["snapshot_swaps"] + 1
        assert counters["circuit_steps"] == before["circuit_steps"] + 1
        assert counters["delta_batches_coalesced"] == len(batches) - 1
        for inserts, deletes in batches:
            sequential.apply(inserts=inserts, deletes=deletes)
        assert (
            burst.read_snapshot().fingerprint
            == sequential.read_snapshot().fingerprint
        )
        assert burst.fingerprint() == sequential.fingerprint()
        assert burst.engine.maps == sequential.engine.maps
        assert (
            counters["rules_fired"] - before["rules_fired"]
            < sequential.metrics.counters["rules_fired"] - before["rules_fired"]
        )
    finally:
        for service in services:
            service.close()


def test_annotated_burst_that_cancels_fires_nothing():
    """A fact inserted then deleted inside the burst never reaches a
    rule; neither does a delete-and-re-insert that puts a live fact back
    as it was.  One that brings it back *bare* is a re-annotation."""
    service = QueryService(semiring="tropical")
    try:
        service.register("v", TC)
        live, priced = ("edge", (NODES[0], NODES[1])), ("edge", (NODES[2], NODES[3]))
        service.update("v", inserts=[live, priced], annotations={priced: "3"})
        view = service.view("v")
        fingerprint = view.read_snapshot().fingerprint
        before = dict(view.metrics.counters)
        fresh = ("edge", (NODES[1], NODES[2]))
        summary = view.apply_stream(
            [([fresh], []), ([], [fresh]), ([], [live]), ([live], [])]
        )
        assert summary["delta_plus"] == summary["delta_minus"] == 0
        assert not summary["annotated_plus"] and not summary["annotated_minus"]
        counters = view.metrics.counters
        assert counters["rules_fired"] == before["rules_fired"]
        assert counters["inserts_applied"] == before["inserts_applied"] + 2
        assert counters["deletes_applied"] == before["deletes_applied"] + 2
        assert view.read_snapshot().fingerprint == fingerprint

        summary = view.apply_stream([([], [priced]), ([priced], [])])
        assert summary["delta_plus"] == summary["delta_minus"] == 0
        assert summary["annotated_minus"]["tc"] == {(priced[1], "3")}
        assert summary["annotated_plus"]["tc"] == {(priced[1], "0")}
        assert view.database.annotation(*priced) is None
        assert counters["rules_fired"] > before["rules_fired"]
    finally:
        service.close()


def _annotated_reads(service):
    """What a reader of the annotated ``tc`` view sees, and what the
    engine holds behind it."""
    view = service.view("v")
    lines, _undefined, _stale, explain = service.query_lines("v", "tc")
    return (
        view.read_snapshot().fingerprint,
        view.fingerprint(),
        view.engine.maps,
        list(lines),
        list(explain),
    )


def test_bare_writes_to_an_annotated_view_group_commit():
    """Through the front door every write to an annotated view is a
    ticket: bare writes queue up and their leader hands the engine one
    burst, and a write carrying annotations drains the tickets parked
    ahead of it into its own burst.  Snapshot, annotations and explain
    lines equal a ``coalesce=1`` service applying the writes in queue
    order."""
    service = QueryService(semiring="tropical", coalesce=8)
    sequential = QueryService(semiring="tropical", coalesce=1)
    try:
        for each in (service, sequential):
            each.register("v", TC)
        view = service.view("v")
        chain = [("edge", (NODES[i], NODES[i + 1])) for i in range(4)]
        # Three writers parked behind the view lock, as contention
        # leaves them; the fourth wins the lock and drains all four.
        parked = [view.pending.submit([fact], []) for fact in chain[:3]]
        before = dict(view.metrics.counters)
        summary = service.update("v", inserts=[chain[3]])
        assert summary["mode"] == "incremental"
        assert summary["coalesced"] == summary["batches"] == 4
        assert all(ticket.outcome(0) == summary for ticket in parked)
        counters = view.metrics.counters
        assert counters["circuit_steps"] == before["circuit_steps"] + 1
        assert counters["snapshot_swaps"] == before["snapshot_swaps"] + 1
        assert counters["delta_batches_coalesced"] == 3

        waiting = view.pending.submit([], [chain[0]])
        priced = ("edge", (NODES[0], NODES[4]))
        before = dict(view.metrics.counters)
        summary = service.update(
            "v", inserts=[priced], annotations={priced: "1"}
        )
        # The annotated write led: the parked delete rode its burst.
        assert summary["coalesced"] == summary["batches"] == 2
        assert waiting.done and waiting.outcome(0) == summary
        assert view.pending.depth() == 0
        assert counters["circuit_steps"] == before["circuit_steps"] + 1
        assert counters["snapshot_swaps"] == before["snapshot_swaps"] + 1
        service.update("v", deletes=[chain[1]])

        for fact in chain:
            sequential.update("v", inserts=[fact])
        sequential.update("v", deletes=[chain[0]])
        sequential.update("v", inserts=[priced], annotations={priced: "1"})
        sequential.update("v", deletes=[chain[1]])
        assert _annotated_reads(service) == _annotated_reads(sequential)
    finally:
        service.close()
        sequential.close()


def test_annotated_burst_stages_each_batch_with_its_own_annotations():
    """``+f @ 3``, ``-f``, ``+f`` and ``+g @ 5``, ``+g @ 2`` drained as
    one burst leave what they leave one at a time: the bare re-insert
    brings ``f`` back at its default annotation (it does not inherit
    the 3), and ``g`` ends at 2."""
    f, g = ("edge", (NODES[0], NODES[1])), ("edge", (NODES[1], NODES[2]))
    writes = [
        ([f], [], {f: "3"}),
        ([], [f], None),
        ([f], [], None),
        ([g], [], {g: "5"}),
        ([g], [], {g: "2"}),
    ]
    service = QueryService(semiring="tropical", coalesce=8)
    sequential = QueryService(semiring="tropical", coalesce=1)
    try:
        for each in (service, sequential):
            each.register("v", TC)
        view = service.view("v")
        parse = view.semiring_obj.parse
        parked = [
            view.pending.submit(
                inserts,
                deletes,
                {key: parse(text) for key, text in annotations.items()}
                if annotations
                else None,
            )
            for inserts, deletes, annotations in writes[:-1]
        ]
        inserts, deletes, annotations = writes[-1]
        summary = service.update(
            "v", inserts=inserts, deletes=deletes, annotations=annotations
        )
        assert summary["coalesced"] == summary["batches"] == len(writes)
        assert all(ticket.outcome(0) == summary for ticket in parked)
        for inserts, deletes, annotations in writes:
            sequential.update(
                "v", inserts=inserts, deletes=deletes, annotations=annotations
            )
        assert view.database.annotation(*f) is None
        assert view.database.annotation(*g) == parse("2")
        assert _annotated_reads(service) == _annotated_reads(sequential)
    finally:
        service.close()
        sequential.close()


#: The group-commit tests run on the circuit and on the rebuild engine.
ENGINES = pytest.mark.parametrize(
    "semantics", ["stratified", "inflationary"], ids=["dbsp", "recompute"]
)


@ENGINES
def test_concurrent_writers_group_commit_matches_sequential(semantics):
    """Racing writers through the real queue land on the sequential model.

    Insert-only disjoint batches commute, so any drain order must
    produce the same published fingerprint as a single-threaded
    service applying the same batches.
    """
    config = ("x", TC, semantics)
    mode = "recompute" if semantics == "inflationary" else "incremental"
    rng = random.Random("group-commit")
    service = _fresh_service(config, rng, coalesce=8)
    sequential = _fresh_service(config, random.Random("group-commit"))
    try:
        per_writer = [
            [
                [("edge", (Atom(f"w{w}"), Atom(f"w{w}x{i}x{j}")))
                 for j in range(2)]
                for i in range(5)
            ]
            for w in range(6)
        ]
        failures = []

        def writer(batches):
            try:
                for inserts in batches:
                    summary = service.update("v", inserts=inserts)
                    assert summary["mode"] == mode
            except BaseException as exc:  # surfaced after join
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(batches,))
            for batches in per_writer
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures
        assert service.view("v").pending.depth() == 0
        assert (
            service.view("v").metrics.counters["update_batches"]
            == 1 + sum(len(batches) for batches in per_writer)
        )
        for batches in per_writer:
            for inserts in batches:
                sequential.update("v", inserts=inserts)
        assert _fingerprint(service) == _fingerprint(sequential)
    finally:
        service.close()
        sequential.close()


@ENGINES
def test_lock_fault_withdraws_ticket_and_leaves_state_clean(semantics):
    """A service.lock fault mid-update must not strand an unacked batch."""
    config = ("x", TC, semantics)
    rng = random.Random("lock-fault")
    service = _fresh_service(config, rng, coalesce=8)
    reference = _fresh_service(config, random.Random("lock-fault"))
    try:
        before = _fingerprint(service)
        injector = FaultInjector([FaultRule("service.lock", at_hit=1)])
        with inject_faults(injector):
            with pytest.raises(InjectedFault):
                service.update("v", inserts=[("edge", (NODES[0], NODES[1]))])
        # The refused batch is fully withdrawn: empty queue, untouched
        # snapshot, and no future leader can replay it.
        assert service.view("v").pending.depth() == 0
        assert _fingerprint(service) == before
        summary = service.update(
            "v", inserts=[("edge", (NODES[1], NODES[2]))]
        )
        assert summary["mode"] == (
            "recompute" if semantics == "inflationary" else "incremental"
        )
        reference.update("v", inserts=[("edge", (NODES[1], NODES[2]))])
        assert _fingerprint(service) == _fingerprint(reference)
    finally:
        service.close()
        reference.close()


@pytest.mark.parametrize(
    "config", CONFIGS[:3], ids=[config[0] for config in CONFIGS[:3]]
)
def test_budget_fault_mid_burst_reinitializes_cleanly(config):
    """A budget trip inside a burst rolls the whole burst back."""
    rng = random.Random("budget-fault")
    service = _fresh_service(config, rng)
    try:
        view = service.view("v")
        before = _fingerprint(service)
        original_factory = view.budget_factory
        draws = iter([EvaluationBudget(deadline_seconds=-1.0)])
        # Poison only the first draw: the rollback's reinitialize draws
        # a fresh budget from the same factory and must succeed.
        view.budget_factory = lambda: next(draws, EvaluationBudget())
        batches = _random_batches(
            random.Random("budget-burst"), _update_predicate(config[1])
        )
        with pytest.raises(DeadlineExceeded):
            view.apply_stream(batches)
        view.budget_factory = original_factory
        # The burst rolled back and the view reinitialized: same
        # fingerprint as before, still healthy, and the same burst
        # replays successfully afterwards.
        assert not view.stale
        assert _fingerprint(service) == before
        replay = view.apply_stream(batches)
        assert replay["batches"] == len(batches)
        reference = _fresh_service(
            config, random.Random("budget-fault")
        )
        try:
            for inserts, deletes in batches:
                reference.update("v", inserts=inserts, deletes=deletes)
            assert _fingerprint(service) == _fingerprint(reference)
        finally:
            reference.close()
    finally:
        service.close()


@pytest.mark.parametrize(
    "semantics, point",
    [("stratified", "incremental.apply"), ("inflationary", "view.recompute")],
    ids=["dbsp", "recompute"],
)
def test_injected_apply_fault_inside_drain_fails_only_its_batch(
    semantics, point
):
    """With coalescing active, a poisoned burst degrades to per-batch
    retry: the injected fault fails exactly one writer, the others'
    batches still commit, and the final model matches a reference that
    never saw the poisoned batch.  On the rebuild engine the poison is
    the burst's ``run()`` itself."""
    config = ("x", TC, semantics)
    service = _fresh_service(config, random.Random("drain-fault"), coalesce=8)
    reference = _fresh_service(config, random.Random("drain-fault"))
    try:
        inserts = [("edge", (NODES[2], NODES[3]))]
        injector = FaultInjector([FaultRule(point, at_hit=1, times=1)])
        with inject_faults(injector):
            with pytest.raises(InjectedFault):
                service.update("v", inserts=inserts)
        assert service.view("v").pending.depth() == 0
        assert not service.view("v").stale
        # The view answered the fault with a rebuild; later updates and
        # the replayed batch both land, matching the reference.
        service.update("v", inserts=inserts)
        reference.update("v", inserts=inserts)
        assert _fingerprint(service) == _fingerprint(reference)
    finally:
        service.close()
        reference.close()
