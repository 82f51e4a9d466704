"""Bound-pattern queries through the serving tier: the one read path.

``query <view> <pred>(a, _)`` is answered by
:meth:`~repro.service.snapshot.ModelSnapshot.probe` on the view's
published snapshot, on every engine and semantics: the answer tracks
every write path, a write runs one maintenance pass however many
patterns were read, and a point read never materializes the relation.
Also covers the pattern grammar, the protocol verb, the read's work
counters, and the demand registry and ``_build_demand_entry``, which
stay as library pieces off the serve path.
"""

import json
import threading
from unittest import mock

import pytest

from repro.relations import Atom
from repro.robustness import FaultInjector, FaultRule, inject_faults
from repro.service import QueryService, parse_bound_pattern, serve_stream
from repro.service.demand import DemandRegistry
from repro.service.metrics import SERVICE, zeroed
from repro.service.snapshot import ModelSnapshot
from repro.service.views import MaterializedView

a, b, c, d = (Atom(x) for x in "abcd")

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
edge(b, c).
"""


def run_protocol(service, script):
    replies = []
    serve_stream(service, script.splitlines(), replies.append)
    return replies


class TestParseBoundPattern:
    def test_bound_and_free_positions(self):
        assert parse_bound_pattern("tc(a, _)") == ("tc", (a, None))
        assert parse_bound_pattern("tc(_, b)") == ("tc", (None, b))
        assert parse_bound_pattern("tc(a, b)") == ("tc", (a, b))
        assert parse_bound_pattern("p(1, _, x)") == ("p", (1, None, Atom("x")))

    def test_named_variables_are_free(self):
        assert parse_bound_pattern("tc(X, b)") == ("tc", (None, b))

    def test_repeated_named_variables_rejected(self):
        with pytest.raises(ValueError):
            parse_bound_pattern("tc(X, X)")

    def test_function_terms_rejected(self):
        with pytest.raises(ValueError):
            parse_bound_pattern("p(succ(a), _)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_bound_pattern("tc(a, _) extra")


class TestQueryPattern:
    def test_point_lookup_matches_filtered_full_answer(self):
        service = QueryService()
        service.register("g", TC)
        full, _, _ = service.query_state("g", "tc")
        rows, undefined, stale = service.query_pattern("g", "tc", (a, None))
        assert rows == {r for r in full if r[0] == a}
        assert undefined == frozenset()
        assert not stale
        service.close()

    def test_a_new_constant_reads_the_same_index(self):
        service = QueryService()
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))
        scanned = service.view("g").metrics.counters["rows_scanned"]
        rows, _, _ = service.query_pattern("g", "tc", (b, None))
        assert rows == {(b, c)}
        # The shape's index is built: the read touches its bucket alone.
        assert service.view("g").metrics.counters["rows_scanned"] == scanned + 1
        service.close()

    def test_answers_track_writes(self):
        service = QueryService()
        service.register("g", TC)
        assert service.query_pattern("g", "tc", (a, None))[0] == {
            (a, b),
            (a, c),
        }
        service.insert("g", "edge", c, d)
        assert service.query_pattern("g", "tc", (a, None))[0] == {
            (a, b),
            (a, c),
            (a, d),
        }
        service.delete("g", "edge", b, c)
        assert service.query_pattern("g", "tc", (a, None))[0] == {(a, b)}
        service.close()

    def test_answers_track_the_group_commit_path(self):
        # coalesce > 1 routes updates through the ticket queue.
        service = QueryService(coalesce=4)
        service.register("g", TC)
        assert (a, c) in service.query_pattern("g", "tc", (a, None))[0]
        service.update(
            "g", inserts=[("edge", (c, d))], deletes=[("edge", (a, b))]
        )
        rows, _, _ = service.query_pattern("g", "tc", (a, None))
        assert rows == frozenset()
        rows, _, _ = service.query_pattern("g", "tc", (b, None))
        assert rows == {(b, c), (b, d)}
        service.close()

    def test_base_fact_on_idb_predicate_served(self):
        service = QueryService()
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))
        service.insert("g", "tc", a, Atom("direct"))
        rows, _, _ = service.query_pattern("g", "tc", (a, None))
        assert (a, Atom("direct")) in rows
        service.close()

    def test_all_free_pattern_falls_through_to_full_query(self):
        service = QueryService()
        service.register("g", TC)
        rows, _, _ = service.query_pattern("g", "tc", (None, None))
        assert rows == service.query_state("g", "tc")[0]
        service.close()

    def test_edb_pattern(self):
        service = QueryService()
        service.register("g", TC)
        rows, _, _ = service.query_pattern("g", "edge", (a, None))
        assert rows == {(a, b)}
        service.close()

    def test_inflationary_semantics(self):
        service = QueryService()
        service.register("g", TC, semantics="inflationary")
        rows, _, _ = service.query_pattern("g", "tc", (a, None))
        assert rows == {(a, b), (a, c)}
        service.close()

    def test_three_valued_pattern_reports_undefined_rows(self):
        service = QueryService()
        service.register(
            "w",
            "win(X) :- move(X, Y), not win(Y). "
            "move(a, b). move(b, a). move(c, d).",
            semantics="valid",
        )
        assert service.query_pattern("w", "win", (c,)) == (
            {(c,)}, frozenset(), False
        )
        assert service.query_pattern("w", "win", (a,)) == (
            frozenset(), {(a,)}, False
        )
        service.close()

    def test_stratified_negation(self):
        source = """
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
        unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
        node(a). node(b). node(c).
        edge(a, b).
        """
        service = QueryService()
        service.register("g", source)
        full, _, _ = service.query_state("g", "unreach")
        rows, _, _ = service.query_pattern("g", "unreach", (c, None))
        assert rows == {r for r in full if r[0] == c}
        service.close()

    def test_arity_mismatch_rejected(self):
        service = QueryService()
        service.register("g", TC)
        with pytest.raises(ValueError, match="arity"):
            service.query_pattern("g", "tc", (a,))
        service.close()

    def test_unknown_view_raises_keyerror(self):
        service = QueryService()
        with pytest.raises(KeyError):
            service.query_pattern("nope", "tc", (a, None))
        service.close()

    def test_a_replaced_view_answers_from_its_new_program(self):
        service = QueryService()
        service.register("g", TC)
        rows, _, _ = service.query_pattern("g", "tc", (a, None))
        assert rows == {(a, b), (a, c)}
        service.register("g", "tc(X, Y) :- edge(X, Y).\nedge(a, d).")
        rows, _, _ = service.query_pattern("g", "tc", (a, None))
        assert rows == {(a, d)}
        service.unregister("g")
        with pytest.raises(KeyError):
            service.query_pattern("g", "tc", (a, None))
        service.close()


def _engine_views():
    """A service with one view per engine kind, each read by pattern."""
    service = QueryService()
    service.register("t", TC)
    service.register("v", TC, semantics="valid")
    service.register("i", TC, semantics="inflationary")
    service.register("n", TC, semiring="tropical")
    return service


class TestOneReadPath:
    """What a resident bound pattern costs: nothing on the write."""

    def test_a_write_runs_one_maintenance_pass(self):
        service = QueryService()
        service.register("g", TC)
        for pattern in ((a, None), (None, c), (a, c), (b, None)):
            service.query_pattern("g", "tc", pattern)
            service.query_pattern("g", "edge", pattern)
        original = MaterializedView.apply_stream
        with mock.patch.object(
            MaterializedView, "apply_stream", autospec=True, side_effect=original
        ) as apply_stream:
            service.insert("g", "edge", c, d)
            service.delete("g", "edge", a, b)
        assert apply_stream.call_count == 2
        assert service.query_pattern("g", "tc", (b, None))[0] == {(b, c), (b, d)}
        service.close()

    def test_a_point_read_never_materializes_the_relation(self):
        service = _engine_views()
        reads = []
        for name in ("t", "v", "i", "n"):
            service.query_pattern(name, "tc", (a, None))
            service.insert(name, "edge", b, d)
            with mock.patch.object(
                ModelSnapshot, "rows", side_effect=AssertionError("rows")
            ), mock.patch.object(
                ModelSnapshot, "undefined_rows", side_effect=AssertionError("rows")
            ):
                reads.append(service.query_pattern(name, "tc", (a, None))[0])
                service.query_pattern(name, "tc", (None, d))
                service.query_pattern(name, "edge", (b, None))
        assert reads == [{(a, b), (a, c), (a, d)}] * 4
        service.close()

    def test_a_degraded_view_answers_stale(self):
        service = QueryService()
        service.register("g", TC)
        faults = FaultInjector([
            FaultRule("incremental.component", times=None),
            FaultRule("incremental.initialize", times=None),
        ])
        with inject_faults(faults), pytest.raises(Exception):
            service.insert("g", "edge", c, d)
        # The pre-batch model, flagged as a full read flags it.
        assert service.query_pattern("g", "tc", (a, None)) == (
            {(a, b), (a, c)}, frozenset(), True
        )
        assert service.query_state("g", "tc")[2] is True
        assert service.stats("g")["counters"]["stale_queries"] == 2
        service.close()

    def test_an_old_checkpoint_brings_back_no_demand_counter(self, tmp_path):
        service = QueryService(data_dir=str(tmp_path), fsync="off")
        service.register("g", TC)
        service.close()
        [path] = tmp_path.glob("checkpoint-*.json")
        document = json.loads(path.read_text())
        document["state"]["service_counters"]["demand_hits"] = 5
        path.write_text(json.dumps(document))
        service = QueryService(data_dir=str(tmp_path), fsync="off")
        counters = service.metrics_snapshot()["counters"]
        assert set(counters) == set(zeroed(SERVICE))
        service.close()

    def test_the_read_counters(self):
        service = QueryService()
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))
        service.query_pattern("g", "tc", (a, None))
        counters = service.stats("g")["counters"]
        # Two reads off the snapshot; the first builds the index over
        # the 3 rows, each touches its 2-row bucket.
        assert (counters["queries"], counters["snapshot_reads"]) == (2, 2)
        assert counters["rows_scanned"] == 3 + 2 + 2
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["queries_total"] == 2
        assert not [k for k in snapshot["counters"] if k.startswith("demand")]
        assert "demand_entries" not in snapshot["gauges"]
        service.close()


class TestDemandRegistryUnit:
    def test_ready_gate_blocks_until_complete(self):
        registry = DemandRegistry(capacity=4)
        key = ("v", 1, "p", "bf")
        entry, created, evicted = registry.get_or_create(key)
        assert created and not evicted
        seen = []

        def waiter():
            seen.append(entry.wait_ready(5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        entry.complete("the-view", None)
        thread.join(timeout=5.0)
        assert seen == ["the-view"]

    def test_failed_build_raises_per_waiter_copies(self):
        registry = DemandRegistry(capacity=4)
        entry, _, _ = registry.get_or_create(("v", 1, "p", "bf"))
        boom = RuntimeError("build died")
        entry.fail(boom)
        raised = []
        for _ in range(3):
            with pytest.raises(RuntimeError) as info:
                entry.wait_ready(1.0)
            raised.append(info.value)
        assert len({id(e) for e in raised}) == 3
        assert all(e.__cause__ is boom for e in raised)

    def test_unsettled_entries_never_evicted(self):
        registry = DemandRegistry(capacity=1)
        building, _, _ = registry.get_or_create(("v", 1, "p", "bf"))
        assert not building.settled
        other, created, evicted = registry.get_or_create(("v", 1, "p", "fb"))
        assert created
        assert evicted == []  # the building entry was not a candidate
        assert registry.size() == 2  # temporarily over capacity

    def test_batched_republish_bound(self):
        # S3: a churn storm of N register+evict cycles republishes once
        # per mutation and copies O(N * capacity) cells, not O(N^2).
        capacity = 8
        registry = DemandRegistry(capacity=capacity)
        churn = 200
        for i in range(churn):
            entry, created, _ = registry.get_or_create(("v", 1, "p", f"k{i}"))
            assert created
            entry.complete(None, None)
        assert registry.size() == capacity
        assert registry.republishes == churn
        assert registry.copied_cells <= churn * (capacity + 1)

    def test_drop_view_is_one_republish(self):
        registry = DemandRegistry(capacity=16)
        for i in range(10):
            entry, _, _ = registry.get_or_create(("v", 1, "p", f"k{i}"))
            entry.complete(None, None)
        before = registry.republishes
        assert registry.drop_view("v") == 10
        assert registry.republishes == before + 1
        assert registry.size() == 0

    def test_discard_ignores_superseded_entry(self):
        registry = DemandRegistry(capacity=4)
        key = ("v", 1, "p", "bf")
        first, _, _ = registry.get_or_create(key)
        first.complete(None, None)
        assert registry.discard(key, first)
        second, created, _ = registry.get_or_create(key)
        assert created
        assert not registry.discard(key, first)  # stale handle
        assert registry.lookup(key) is second

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            DemandRegistry(capacity=0)

    def test_a_built_entry_answers_its_seeded_cone(self):
        # Off the serve path, the entry build still runs as a library
        # piece: the magic-rewritten view of one pattern, seeded by hand.
        service = QueryService()
        service.register("g", TC)
        _view, generation = service._resolve("g")
        key = ("g", generation, "tc", "bf")
        entry, _, _ = DemandRegistry(capacity=4).get_or_create(key)
        service._build_demand_entry("g", generation, "tc", "bf", entry)
        demand_view = entry.wait_ready(5.0)
        demand_view.apply(inserts=[(entry.magic.seed_predicate, (a,))])
        rows, _, _ = demand_view.read_snapshot().probe(
            entry.magic.answer_predicate, (a, None)
        )
        assert rows == service.query_pattern("g", "tc", (a, None))[0]
        service.close()


class TestProtocolVerb:
    def test_pattern_query_over_the_wire(self):
        service = QueryService()
        replies = run_protocol(
            service,
            "register g stratified "
            "tc(X, Y) :- edge(X, Y). tc(X, Z) :- edge(X, Y), tc(Y, Z). "
            "edge(a, b). edge(b, c).\n"
            "query g tc(a, _)\n"
            "+g edge(c, d)\n"
            "query g tc(a, _)\n"
            "query g tc(a, d)\n",
        )
        text = "\n".join(replies)
        assert "row tc(a, b)" in text
        assert "row tc(a, d)" in text
        assert replies[-1] == "ok 1 rows"
        service.close()

    def test_unbound_query_still_works(self):
        service = QueryService()
        replies = run_protocol(
            service,
            "register g stratified tc(X, Y) :- edge(X, Y). edge(a, b).\n"
            "query g tc\n",
        )
        assert "row tc(a, b)" in "\n".join(replies)
        service.close()

    def test_malformed_patterns_are_protocol_errors(self):
        service = QueryService()
        service.register("g", TC)
        for bad in (
            "query g tc(a, _) trailing",
            "query g tc(X, X)",
            "query g tc(a)",
            "query g",
            "query g tc extra",
        ):
            replies = run_protocol(service, bad)
            assert replies and replies[0].startswith("error"), bad
        service.close()

    def test_usage_line_mentions_pattern(self):
        service = QueryService()
        replies = run_protocol(service, "query g")
        assert "pattern" in replies[0] or "predicate" in replies[0]
        service.close()


def _chain_service(chains, length=24):
    """A service with one ``chains`` x ``length`` chain tc view ``g``."""
    edges = " ".join(
        f"edge(c{k}n{i}, c{k}n{i + 1})."
        for k in range(chains)
        for i in range(length)
    )
    service = QueryService()
    service.register(
        "g",
        f"tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z). {edges}",
    )
    return service


def _hot_hit_work(chains):
    """(rows scanned, answer size) of a hot ``tc(c, _)`` hit, and of the
    same hit right after a leaf write, on a ``chains``-chain view."""
    service = _chain_service(chains)
    scanned = lambda: service.view("g").metrics.counters["rows_scanned"]
    pattern = (Atom("c0n12"), None)
    service.query_pattern("g", "tc", pattern)  # builds the shape's index
    work = []
    for write in (None, ("edge", (Atom("c0n24"), Atom("leaf")))):
        if write is not None:
            service.update("g", inserts=[write])
        before = scanned()
        rows, _, _ = service.query_pattern("g", "tc", pattern)
        work.append((scanned() - before, len(rows)))
    service.close()
    return work


class TestWorkBound:
    """A read costs its answer: counts, not clocks."""

    def test_hot_hit_scans_its_answer_not_the_view(self):
        large = _hot_hit_work(30)
        small = _hot_hit_work(10)
        assert large == small, "rows scanned must not depend on resident rows"
        (hot, answer), (after_write, grown) = large
        assert answer == 12 and grown == 13
        assert hot == answer, "an indexed hit touches exactly its bucket"
        # The write's delta (the 25 rows of chain 0 that reach the new
        # leaf) is bucketed once, on top of the carried index.
        assert 0 < after_write <= 4 * grown

    def test_the_first_probe_scans_the_relation_once(self):
        # The first probe of a shape builds its index (one pass over
        # the relation), later ones use it.
        service = _chain_service(4)
        scanned = lambda: service.view("g").metrics.counters["rows_scanned"]
        pattern = (Atom("c1n3"), None)
        service.query_pattern("g", "edge", pattern)
        assert scanned() == 4 * 24 + 1
        service.query_pattern("g", "edge", pattern)
        assert scanned() == 4 * 24 + 2
        service.close()

    def test_rows_scanned_is_exported_everywhere(self):
        from repro.service import render_prometheus

        service = _chain_service(2)
        run_protocol(service, "query g tc")
        snapshot = service.metrics_snapshot()
        assert snapshot["views"]["g"]["counters"]["rows_scanned"] == 2 * 300
        assert snapshot["rollup"]["rows_scanned"] == 2 * 300
        assert "rows_scanned" in render_prometheus(snapshot)
        service.close()
