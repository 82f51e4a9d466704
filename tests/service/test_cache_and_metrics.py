"""The LRU result cache and the metrics layer."""

import pytest

from repro.service import LRUCache, ServiceMetrics, ViewMetrics
from repro.service.locks import InstrumentedLock, ReadWriteLock


class TestLRUCache:
    def test_get_put_and_counters(self):
        cache = LRUCache(capacity=4)
        assert cache.get(("v", "p")) is None
        cache.put(("v", "p"), 1)
        assert cache.get(("v", "p")) == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1, "capacity": 4}

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put(("a", 1), "x")
        cache.put(("b", 1), "y")
        cache.get(("a", 1))          # refresh a: b is now least-recent
        cache.put(("c", 1), "z")
        assert cache.get(("b", 1)) is None
        assert cache.get(("a", 1)) == "x"
        assert cache.get(("c", 1)) == "z"

    def test_scope_invalidation(self):
        cache = LRUCache(capacity=8)
        cache.put(("tc", "p"), 1)
        cache.put(("tc", "q"), 2)
        cache.put(("win", "p"), 3)
        assert cache.invalidate("tc") == 2
        assert cache.get(("tc", "p")) is None
        assert cache.get(("win", "p")) == 3
        assert cache.invalidate("tc") == 0

    def test_eviction_cleans_scope_tracking(self):
        cache = LRUCache(capacity=1)
        cache.put(("a", 1), "x")
        cache.put(("b", 1), "y")  # evicts ("a", 1)
        assert cache.invalidate("a") == 0
        assert cache.get(("b", 1)) == "y"

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_clear(self):
        cache = LRUCache(capacity=4)
        cache.put(("a", 1), "x")
        cache.clear()
        assert len(cache) == 0
        assert cache.get(("a", 1)) is None


class TestViewMetrics:
    def test_counters_start_at_zero_and_bump(self):
        metrics = ViewMetrics()
        assert metrics.counters["cache_hits"] == 0
        metrics.bump("cache_hits")
        metrics.bump("delta_plus_total", 7)
        metrics.bump("custom_counter", 2)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["cache_hits"] == 1
        assert snapshot["counters"]["delta_plus_total"] == 7
        assert snapshot["counters"]["custom_counter"] == 2

    def test_phase_timer_accumulates(self):
        metrics = ViewMetrics()
        with metrics.phase("maintain"):
            pass
        with metrics.phase("maintain"):
            pass
        assert metrics.phase_seconds["maintain"] >= 0.0
        assert set(metrics.snapshot()["phase_seconds"]) == {"maintain"}

    def test_phase_survives_exceptions(self):
        metrics = ViewMetrics()
        with pytest.raises(RuntimeError):
            with metrics.phase("boom"):
                raise RuntimeError("x")
        assert "boom" in metrics.phase_seconds

    def test_bump_many_adds_each_counter(self):
        metrics = ViewMetrics()
        metrics.bump("rules_fired", 2)
        metrics.bump_many({"rules_fired": 3, "circuit_steps": 1, "custom_counter": 0})
        counters = metrics.snapshot()["counters"]
        assert counters["rules_fired"] == 5
        assert counters["circuit_steps"] == 1
        assert counters["custom_counter"] == 0

    def test_a_phase_reaches_the_sink_once_per_block(self):
        sink = ServiceMetrics()
        metrics = ViewMetrics(sink=sink)
        with metrics.phase("maintain"):
            with metrics.phase("snapshot"):
                pass
        with pytest.raises(RuntimeError):
            with metrics.phase("maintain"):
                raise RuntimeError("x")
        counts = {name: h["count"] for name, h in sink.snapshot()["phase_histograms"].items()}
        assert counts == {"maintain": 2, "snapshot": 1}
        assert metrics.phase_seconds["maintain"] == metrics.phase_histograms["maintain"].sum


class TestScopes:
    """The ``with`` blocks the write path takes on every request."""

    def test_a_hold_releases_and_records_when_its_body_raises(self):
        held = []
        lock = InstrumentedLock("v", lambda name, wait, hold: held.append(name))
        with pytest.raises(RuntimeError):
            with lock.held():
                with lock.held():  # reentrant: each hold keeps its own times
                    raise RuntimeError("x")
        assert held == ["v", "v"]
        assert lock._lock.acquire(blocking=False)
        lock._lock.release()

    def test_a_reader_leaves_when_its_body_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            with lock.read_locked():
                with lock.read_locked():
                    raise RuntimeError("x")
        assert lock._readers == 0
        with lock.write_locked():
            assert lock._writer_active

    def test_a_request_leaves_the_inflight_gauge_when_it_raises(self):
        metrics = ServiceMetrics()
        with pytest.raises(RuntimeError):
            with metrics.request():
                assert metrics.inflight == 1
                raise RuntimeError("x")
        assert metrics.inflight == 0
        assert metrics.counters["requests_total"] == 1
