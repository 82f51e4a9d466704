"""Demand-driven bound-pattern queries through the serving tier.

Covers the service wiring of the magic-sets transform: the demand
registry lifecycle (ready gating, LRU eviction, batched republish, drop
on register/unregister), update propagation into ready entries on every
write path, the ``query <view> <pred>(a, _)`` protocol verb, the
fallback envelope, and the counters/gauges surfaced through stats,
metrics, and the Prometheus rendering.
"""

import threading

import pytest

from repro.relations import Atom
from repro.service import QueryService, parse_bound_pattern, serve_stream
from repro.service.demand import DemandEntry, DemandRegistry

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


def demand_counters(service):
    counters = service.metrics_snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("demand")}


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
        service.close()

    def test_new_constant_is_incremental_seed_insert(self):
        service = QueryService()
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))
        before = demand_counters(service)
        rows, _, _ = service.query_pattern("g", "tc", (b, None))
        assert rows == {(b, c)}
        after = demand_counters(service)
        # Same adornment: no second registration, one hit.
        assert after["demand_registrations"] == before["demand_registrations"]
        assert after["demand_hits"] == before["demand_hits"] + 1
        service.close()

    def test_base_update_propagates_into_ready_entry(self):
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

    def test_propagation_through_group_commit_paths(self):
        # coalesce > 1 routes updates through the ticket queue; demand
        # entries must still see every applied batch.
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
        assert demand_counters(service)["demand_registrations"] == 0
        service.close()

    def test_edb_pattern_uses_fallback(self):
        service = QueryService()
        service.register("g", TC)
        rows, _, _ = service.query_pattern("g", "edge", (a, None))
        assert rows == {(a, b)}
        assert demand_counters(service)["demand_fallbacks"] == 1
        service.close()

    def test_inflationary_semantics_uses_fallback(self):
        service = QueryService()
        service.register("g", TC, semantics="inflationary")
        rows, _, _ = service.query_pattern("g", "tc", (a, None))
        assert rows == {(a, b), (a, c)}
        counters = demand_counters(service)
        assert counters["demand_fallbacks"] == 1
        assert counters["demand_registrations"] == 0
        service.close()

    def test_cone_query_memoizes_fallback_marker(self):
        # s is demanded all-free mid-rule, so its cone — which contains
        # the query predicate p — is evaluated unadorned and the
        # transform degenerates to a passthrough for p.
        source = """
        p(X) :- s(Y), t(X, Y).
        s(Y) :- p(Y).
        p(X) :- e(X).
        e(a). e(b). t(c, a).
        """
        service = QueryService()
        service.register("g", source)
        rows, _, _ = service.query_pattern("g", "p", (a,))
        assert rows == {(a,)}
        counters = demand_counters(service)
        # The passthrough decision registers a fallback marker...
        assert counters["demand_registrations"] == 1
        assert counters["demand_fallbacks"] == 1
        # ...and later queries reuse it without rebuilding.
        service.query_pattern("g", "p", (b, ))
        counters = demand_counters(service)
        assert counters["demand_registrations"] == 1
        assert counters["demand_fallbacks"] == 2
        service.close()

    def test_stratified_negation_is_demand_driven(self):
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
        assert demand_counters(service)["demand_registrations"] == 1
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

    def test_reregister_and_unregister_drop_entries(self):
        service = QueryService()
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))
        assert service.demand.size() == 1
        service.register("g", TC)  # replace
        assert service.demand.size() == 0
        service.query_pattern("g", "tc", (a, None))
        assert service.demand.size() == 1
        service.unregister("g")
        assert service.demand.size() == 0
        service.close()

    def test_stale_generation_entry_not_reused_after_replace(self):
        service = QueryService()
        service.register("g", TC)
        rows, _, _ = service.query_pattern("g", "tc", (a, None))
        assert rows == {(a, b), (a, c)}
        service.register("g", "tc(X, Y) :- edge(X, Y).\nedge(a, d).")
        rows, _, _ = service.query_pattern("g", "tc", (a, None))
        assert rows == {(a, d)}
        service.close()


class TestDemandEviction:
    def test_lru_eviction_bumps_counter(self):
        service = QueryService(demand_capacity=2)
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))   # bf
        service.query_pattern("g", "tc", (None, b))   # fb
        service.query_pattern("g", "tc", (a, None))   # touch bf
        service.query_pattern("g", "tc", (a, b))      # bb -> evicts fb
        counters = demand_counters(service)
        assert counters["demand_registrations"] == 3
        assert counters["demand_evictions"] == 1
        assert service.demand.size() == 2
        keys = set(service.demand._table.get())
        adornments = {key[3] for key in keys}
        assert adornments == {"bf", "bb"}
        service.close()

    def test_evicted_pattern_rebuilds_on_next_query(self):
        service = QueryService(demand_capacity=1)
        service.register("g", TC)
        assert service.query_pattern("g", "tc", (a, None))[0] == {
            (a, b),
            (a, c),
        }
        assert service.query_pattern("g", "tc", (None, c))[0] == {
            (a, c),
            (b, c),
        }
        assert service.query_pattern("g", "tc", (a, None))[0] == {
            (a, b),
            (a, c),
        }
        assert demand_counters(service)["demand_evictions"] == 2
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
    service.query_pattern("g", "tc", pattern)  # registers the entry
    service.query_pattern("g", "tc", pattern)  # first hit builds the index
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

    def test_hot_hit_scans_its_answer_not_the_entry(self):
        large = _hot_hit_work(30)
        small = _hot_hit_work(10)
        assert large == small, "rows scanned must not depend on resident rows"
        (hot, answer), (after_write, grown) = large
        assert answer == 12 and grown == 13
        assert hot == answer, "an indexed hit touches exactly its bucket"
        assert 0 < after_write <= 4 * grown

    def test_fallback_probe_scans_the_relation_once(self):
        # An EDB pattern falls back to the base view's own snapshot: the
        # first probe builds the index (one pass), later ones use it.
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


class TestObservability:
    def test_gauge_and_counters_in_metrics_snapshot(self):
        service = QueryService()
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))
        service.query_pattern("g", "tc", (a, None))
        snapshot = service.metrics_snapshot()
        assert snapshot["gauges"]["demand_entries"] == 1
        counters = snapshot["counters"]
        assert counters["demand_registrations"] == 1
        assert counters["demand_hits"] == 1
        service.close()

    def test_prometheus_rendering_exposes_demand_series(self):
        from repro.service import render_prometheus

        service = QueryService()
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))
        text = render_prometheus(service.metrics_snapshot())
        assert "demand_registrations" in text
        assert "demand_entries" in text
        service.close()

    def test_close_clears_registry(self):
        service = QueryService()
        service.register("g", TC)
        service.query_pattern("g", "tc", (a, None))
        service.close()
        assert service.demand.size() == 0
