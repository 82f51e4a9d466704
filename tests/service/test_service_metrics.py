"""Metamorphic properties of the service observability plane.

Three families of invariants:

* **monotonicity** — every counter (service-level and per-view, and the
  rollup across view churn) only ever grows;
* **gauge recovery** — the stale-view gauge returns to zero when every
  degraded view recovers, and time-in-degraded stops growing;
* **internal consistency** — each histogram's ``count`` equals the sum
  of its bucket counts, and the service rollup equals the retired
  counters plus the sum of the live per-view counters, including when
  read through the ``metrics`` protocol verb.
"""

import json

import pytest

from repro.robustness import (
    FaultInjector,
    FaultRule,
    ReproError,
    inject_faults,
)
from repro.service import (
    Histogram,
    QueryService,
    ServiceMetrics,
    ViewMetrics,
    views,
)
from repro.service.server import serve_stream

TC = (
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
    "edge(a, b).\nedge(b, c).\n"
)

#: Persistent faults on both maintenance and recovery: the recipe that
#: reliably drives an incremental view into degraded mode.
DEGRADE_PLAN = [
    FaultRule("incremental.component", times=None),
    FaultRule("incremental.initialize", times=None),
]


def _degrade(service, name):
    with inject_faults(FaultInjector(DEGRADE_PLAN)):
        with pytest.raises(ReproError):
            service.update(name, inserts=[("edge", ("x", "y"))])
    assert service.view(name).stale


def _check_histogram(snapshot):
    assert snapshot["count"] == sum(snapshot["buckets"].values())
    assert snapshot["sum"] >= 0.0


def _check_internal_consistency(snapshot):
    """The cross-section invariants of one metrics snapshot."""
    for counter, value in snapshot["rollup"].items():
        live = sum(
            stats["counters"].get(counter, 0)
            for stats in snapshot["views"].values()
        )
        assert value == snapshot["retired"].get(counter, 0) + live, counter
    for side in ("wait", "hold"):
        _check_histogram(snapshot["locks"][side])
    assert (
        snapshot["locks"]["wait"]["count"]
        == snapshot["counters"]["lock_acquisitions"]
    )
    for histogram in snapshot["phase_histograms"].values():
        _check_histogram(histogram)
    for stats in snapshot["views"].values():
        for histogram in stats["phase_histograms"].values():
            _check_histogram(histogram)
    gauges = snapshot["gauges"]
    assert gauges["views_registered"] == len(snapshot["views"])
    assert gauges["stale_views"] == sum(
        1 for stats in snapshot["views"].values() if stats["stale"]
    )
    assert set(gauges["time_in_degraded"]) == set(snapshot["views"])
    assert set(gauges["snapshot_age"]) == set(snapshot["views"])
    for age in gauges["snapshot_age"].values():
        assert age is None or age >= 0.0
    assert set(gauges["chain_depth"]) == set(snapshot["views"])
    for depth in gauges["chain_depth"].values():
        assert depth >= 0
    # One alternation_levels gauge per view: the chain's length on a
    # three-valued view, 0 wherever no chain maintains the model.
    assert gauges["alternation_levels"] == {
        name: stats["alternation_levels"]
        for name, stats in snapshot["views"].items()
    }
    for name, stats in snapshot["views"].items():
        assert (stats["alternation_levels"] >= 2) == (
            stats["maintenance"] == "alternating"
        ), name


def _flat_counters(snapshot):
    """Every monotone counter of a snapshot, flattened to one dict."""
    flat = {
        ("service", name): value
        for name, value in snapshot["counters"].items()
    }
    for name, value in snapshot["rollup"].items():
        flat[("rollup", name)] = value
    flat[("locks", "wait")] = snapshot["locks"]["wait"]["count"]
    flat[("locks", "hold")] = snapshot["locks"]["hold"]["count"]
    return flat


class TestMonotonicity:
    def test_counters_only_grow_across_mixed_traffic(self):
        service = QueryService()
        service.register("tc", TC)
        service.register("other", TC)
        previous = _flat_counters(service.metrics_snapshot())
        operations = [
            lambda: service.query("tc", "tc"),
            lambda: service.query("tc", "tc"),
            lambda: service.insert("tc", "edge", "c", "d"),
            lambda: service.query("other", "tc"),
            lambda: service.delete("tc", "edge", "c", "d"),
            lambda: service.register("third", TC),
            lambda: service.unregister("third"),
            lambda: service.query("other", "tc"),
            lambda: service.insert("other", "edge", "q", "r"),
            lambda: service.unregister("other"),
        ]
        for operation in operations:
            operation()
            current = _flat_counters(service.metrics_snapshot())
            for key, value in previous.items():
                assert current.get(key, 0) >= value, key
            previous = current

    def test_rollup_survives_unregistration(self):
        service = QueryService()
        service.register("tc", TC)
        service.query("tc", "tc")
        service.insert("tc", "edge", "c", "d")
        before = service.metrics_snapshot()["rollup"]
        assert before["queries"] >= 1 and before["update_batches"] >= 1
        service.unregister("tc")
        after = service.metrics_snapshot()["rollup"]
        for counter, value in before.items():
            assert after.get(counter, 0) >= value, counter
        # Everything now lives in the retired section.
        retired = service.metrics_snapshot()["retired"]
        assert retired["queries"] == after["queries"]


class TestCompactorMetrics:
    """Metamorphic coverage for the compactor's counters and gauge."""

    def _burst(self, service, name, tag, count=12):
        for i in range(count):
            service.insert(name, "edge", f"{tag}{i}", f"{tag}{i + 1}")

    def test_compactions_counter_is_monotone(self, monkeypatch):
        monkeypatch.setattr(views, "COMPACT_DEPTH", 2)
        monkeypatch.setattr(views, "COMPACT_INTERVAL", 3)
        service = QueryService()
        service.register("tc", TC)
        previous = 0
        for round_number in range(4):
            self._burst(service, "tc", f"r{round_number}n", count=8)
            rollup = service.metrics_snapshot()["rollup"]
            assert rollup["compactions"] >= previous
            assert rollup["compactions"] >= 1
            assert rollup["compaction_rows"] >= rollup["compactions"]
            previous = rollup["compactions"]

    def test_chain_depth_gauge_within_cap_after_compaction_cycle(
        self, monkeypatch
    ):
        cap = 3
        monkeypatch.setattr(views, "COMPACT_DEPTH", cap)
        monkeypatch.setattr(views, "COMPACT_INTERVAL", 10**9)
        service = QueryService()
        service.register("tc", TC)
        self._burst(service, "tc", "m")
        before = service.metrics_snapshot()["gauges"]["chain_depth"]["tc"]
        assert before > cap
        service.view("tc").maybe_compact()
        after = service.metrics_snapshot()["gauges"]["chain_depth"]["tc"]
        assert after <= cap
        # Compacting an already-flat view is a no-op, not a bump.
        compactions = service.metrics_snapshot()["rollup"]["compactions"]
        service.view("tc").maybe_compact()
        assert (
            service.metrics_snapshot()["rollup"]["compactions"] == compactions
        )

    def test_retired_rollup_monotone_when_compacted_view_unregisters(
        self, monkeypatch
    ):
        monkeypatch.setattr(views, "COMPACT_DEPTH", 2)
        monkeypatch.setattr(views, "COMPACT_INTERVAL", 3)
        service = QueryService()
        service.register("tc", TC)
        service.register("keeper", TC)
        self._burst(service, "tc", "k")
        before = service.metrics_snapshot()["rollup"]
        assert before["compactions"] >= 1
        service.unregister("tc")
        after = service.metrics_snapshot()
        for counter, value in before.items():
            assert after["rollup"].get(counter, 0) >= value, counter
        # The departed view's compaction work moved to the retired
        # section wholesale.
        assert after["retired"]["compactions"] >= before["compactions"]
        assert (
            after["retired"]["compaction_rows"]
            >= before["compaction_rows"]
        )
        _check_internal_consistency(after)


class TestGaugeRecovery:
    def test_stale_gauge_returns_to_zero_after_recovery(self):
        service = QueryService()
        service.register("tc", TC)
        service.register("ok", TC)
        assert service.metrics_snapshot()["gauges"]["stale_views"] == 0
        _degrade(service, "tc")
        snapshot = service.metrics_snapshot()
        assert snapshot["gauges"]["stale_views"] == 1
        assert snapshot["gauges"]["time_in_degraded"]["tc"] > 0.0
        assert snapshot["views"]["tc"]["counters"]["degraded_entries"] >= 1
        assert service.view("tc").recover()
        healthy = service.metrics_snapshot()
        assert healthy["gauges"]["stale_views"] == 0

    def test_time_in_degraded_stops_growing_after_recovery(self):
        service = QueryService()
        service.register("tc", TC)
        _degrade(service, "tc")
        assert service.view("tc").recover()
        banked = service.metrics_snapshot()["gauges"]["time_in_degraded"]["tc"]
        service.query("tc", "tc")
        later = service.metrics_snapshot()["gauges"]["time_in_degraded"]["tc"]
        assert later == banked  # the degraded clock is stopped

    def test_inflight_gauge_is_zero_at_rest(self):
        service = QueryService()
        service.register("tc", TC)
        replies = []
        serve_stream(service, ["query tc tc", "metrics"], replies.append)
        # Inside the metrics request itself, the gauge showed ≥ 1...
        payload = json.loads(replies[-1][len("ok ") :])
        assert payload["gauges"]["inflight_requests"] >= 1
        # ...and it returns to zero once the stream has drained.
        assert service.metrics.inflight == 0


class TestInternalConsistency:
    def test_snapshot_invariants_direct(self):
        service = QueryService()
        service.register("tc", TC)
        service.register("win", TC)
        for _ in range(3):
            service.query("tc", "tc")
        service.insert("tc", "edge", "c", "d")
        service.insert("win", "edge", "p", "q")
        service.unregister("win")
        _check_internal_consistency(service.metrics_snapshot())

    def test_snapshot_invariants_via_metrics_verb(self):
        service = QueryService()
        replies = []
        serve_stream(
            service,
            [
                "register tc stratified " + " ".join(TC.split()),
                "query tc tc",
                "+tc edge(c, d)",
                "query tc tc",
                "register gone stratified " + " ".join(TC.split()),
                "query gone tc",
                "unregister gone",
                "metrics",
            ],
            replies.append,
        )
        payload = json.loads(replies[-1][len("ok ") :])
        _check_internal_consistency(payload)
        assert payload["counters"]["requests_total"] == 8
        assert payload["counters"]["errors_total"] == 0
        assert payload["retired"]["queries"] >= 1  # from "gone"

    def test_degraded_view_snapshot_stays_consistent(self):
        service = QueryService()
        service.register("tc", TC)
        _degrade(service, "tc")
        snapshot = service.metrics_snapshot()
        _check_internal_consistency(snapshot)
        service.unregister("tc")
        # The degraded time of the departed view is banked service-side.
        final = service.metrics_snapshot()
        _check_internal_consistency(final)
        assert final["retired_degraded_seconds"] > 0.0


class TestFallbackDistinction:
    """recompute_fallbacks counts only genuine incremental-path
    failures; routine recompute-mode traffic lands in
    recompute_batches."""

    def test_routine_recompute_batches_are_not_fallbacks(self):
        service = QueryService()
        # An inflationary view rebuilds on every batch by design —
        # none of that traffic is a fallback.  The same program on a
        # maintained engine recomputes nothing.
        service.register("win", TC, semantics="inflationary")
        service.register("fast", TC, semantics="valid")
        for node in ("p", "q", "r"):
            service.insert("win", "edge", node, node + "2")
            service.insert("fast", "edge", node, node + "2")
        views = service.metrics_snapshot()["views"]
        assert views["win"]["counters"]["recompute_batches"] == 3
        assert views["win"]["counters"]["recompute_fallbacks"] == 0
        assert views["fast"]["counters"]["recompute_batches"] == 0
        assert views["fast"]["counters"]["recompute_fallbacks"] == 0

    def test_only_genuine_incremental_failures_count_as_fallbacks(self):
        from repro.service import IncrementalMaintenanceError

        service = QueryService()
        service.register("tc", TC)
        view = service.view("tc")
        assert view.mode == "incremental"

        def broken_apply(*_args, **_kwargs):
            raise IncrementalMaintenanceError("forced inconsistency")

        original = view.engine.apply_stream
        view.engine.apply_stream = broken_apply
        try:
            summary = service.insert("tc", "edge", "c", "d")
        finally:
            view.engine.apply_stream = original
        # The maintenance error triggered the correctness valve...
        assert summary["mode"] == "reinitialized"
        counters = service.metrics_snapshot()["views"]["tc"]["counters"]
        assert counters["recompute_fallbacks"] == 1
        # ...without being misfiled as routine recompute-mode traffic.
        assert counters["recompute_batches"] == 0
        assert not view.stale


class TestHistogramUnit:
    def test_count_always_equals_bucket_sum(self):
        histogram = Histogram()
        for value in (0.0, -1.0, 0.0001, 0.003, 0.7, 5.0, 100.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        _check_histogram(snapshot)
        assert snapshot["count"] == 7
        assert snapshot["buckets"]["le_inf"] == 1  # the 100.0 outlier

    def test_negative_observations_clamp_to_zero(self):
        histogram = Histogram()
        histogram.observe(-5.0)
        assert histogram.snapshot()["sum"] == 0.0
        assert histogram.snapshot()["buckets"]["le_0.0001"] == 1

    def test_service_metrics_absorb_accumulates(self):
        metrics = ServiceMetrics()
        first = ViewMetrics()
        first.bump("queries", 3)
        second = ViewMetrics()
        second.bump("queries", 4)
        metrics.absorb(first)
        metrics.absorb(second)
        assert metrics.snapshot()["retired"]["queries"] == 7
