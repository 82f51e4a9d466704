"""The service observability plane: per-view and service-level metrics.

Two layers:

* every materialized view carries a :class:`ViewMetrics` — monotone
  counters (cache traffic, delta sizes, rules fired, over-deleted and
  re-derived rows), accumulated wall-clock and a :class:`Histogram` per
  maintenance phase, and the time the view has spent degraded;
* the :class:`~repro.service.server.QueryService` carries one
  :class:`ServiceMetrics` — service-level monotone counters (requests,
  errors, registrations, updates, queries), gauges (in-flight request
  depth; stale-view count and per-view time-in-degraded are derived
  from the live views at snapshot time), lock wait/hold histograms fed
  by :class:`~repro.service.locks.InstrumentedLock`, service-wide phase
  histograms (every view's phases roll up here through the ``sink``
  hook), and a **retired rollup**: when a view is unregistered or
  replaced, its counters are absorbed so service totals stay monotone.

The ``stats`` / ``metrics`` verbs of the line protocol and
``repro serve --metrics-snapshot`` expose snapshots of all of this —
the dashboard surface the ROADMAP's scaling PRs hang on.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from threading import get_ident
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Histogram", "ServiceMetrics", "ViewMetrics"]


#: Counter names every view snapshot reports, even when still zero.
_COUNTERS = (
    "queries",
    "cache_hits",
    "cache_misses",
    "update_batches",
    "inserts_applied",
    "deletes_applied",
    "delta_plus_total",
    "delta_minus_total",
    "rules_fired",
    # Rows the join kernel pulled from index buckets and row sets.
    "rows_matched",
    # Rows a read touched to produce its answer: index-bucket sizes,
    # delta rows bucketed, rows formatted into reply lines.
    "rows_scanned",
    "overdeleted_total",
    "rederived_total",
    "incremental_batches",
    "circuit_steps",
    "delta_batches_coalesced",
    "recompute_batches",
    "snapshot_swaps",
    "snapshot_reads",
    "stale_queries",
    "compactions",
    "compaction_rows",
)

#: Counter names every service snapshot reports, even when still zero.
_SERVICE_COUNTERS = (
    "requests_total",
    "errors_total",
    "registrations",
    "unregistrations",
    "updates_total",
    "queries_total",
    "lock_acquisitions",
    # The demand registry (magic-sets bound-pattern queries).
    "demand_registrations",
    "demand_hits",
    "demand_evictions",
    "demand_fallbacks",
    # The durability plane (zero and inert without --data-dir).
    "wal_appends",
    "wal_fsyncs",
    "wal_checkpoints",
    "wal_torn_records_dropped",
    "recoveries",
    "recovery_replay_records",
)

#: Exponential latency buckets (seconds), Prometheus-style ``le`` bounds.
_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Histogram:
    """A fixed-bucket timing histogram (cumulative-free, seconds).

    ``observe`` files a value into the first bucket whose upper bound
    contains it (the last bucket is unbounded); ``snapshot`` renders a
    JSON-friendly dict whose ``count`` always equals the sum of the
    bucket counts — the internal-consistency invariant the metamorphic
    suite checks.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds=_BUCKETS):
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """File one observation (negative values clamp to zero)."""
        if value < 0.0:
            value = 0.0
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly copy: count, sum, and per-bucket counts."""
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets["le_inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "buckets": buckets,
        }


class ViewMetrics:
    """Counters, phase timings, and degraded time for one view.

    ``sink`` (optional) is a :class:`ServiceMetrics`: every phase
    observation is forwarded there so the service-level histograms see
    all views combined.
    """

    def __init__(self, sink: Optional["ServiceMetrics"] = None) -> None:
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self.phase_histograms: Dict[str, Histogram] = {}
        self.sink = sink
        # Snapshot-path queries bump counters without holding the view
        # lock, so increments take this mutex (a read-modify-write on a
        # dict entry is not atomic even under the GIL).
        self._counter_lock = threading.Lock()
        self._degraded_seconds = 0.0
        self._degraded_since: Optional[float] = None
        # ``(thread, timings)`` while a :meth:`held_phases` block is
        # open: that thread's phase timings wait there for the sink.
        self._held: Optional[Tuple[int, List[Tuple[str, float]]]] = None

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a counter (creating it on first use). Thread-safe."""
        with self._counter_lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def bump_many(self, amounts: Mapping[str, int]) -> None:
        """:meth:`bump` each counter of ``amounts`` in one locked update
        (an engine pass reports all its counters at once)."""
        counters = self.counters
        with self._counter_lock:
            for counter, amount in amounts.items():
                counters[counter] = counters.get(counter, 0) + amount

    def phase(self, name: str) -> "_Phase":
        """Accumulate the wall-clock of a maintenance/query phase over a
        ``with`` body (recorded also when the body raises)."""
        return _Phase(self, name)

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Accumulated wall-clock per phase (its histogram's sum)."""
        return {name: h.sum for name, h in self.phase_histograms.items()}

    def observe_phase(self, name: str, elapsed: float) -> None:
        """File one phase timing here and at the sink (at the end of
        the enclosing :meth:`held_phases` block, when there is one)."""
        histogram = self.phase_histograms.get(name)
        if histogram is None:
            histogram = self.phase_histograms[name] = Histogram()
        histogram.observe(elapsed)
        if self.sink is not None:
            held = self._held
            if held is not None and held[0] == get_ident():
                held[1].append((name, elapsed))
            else:
                self.sink.observe_phase(name, elapsed)

    def held_phases(self) -> "_HeldPhases":
        """Hold the phase timings this thread observes in the ``with``
        body and file them at the sink in one call when it ends (a
        write pass takes one service-lock hold for all its phases)."""
        return _HeldPhases(self)

    # -- degraded-time tracking ----------------------------------------------

    def mark_degraded(self) -> None:
        """Start the degraded clock (idempotent while degraded)."""
        if self._degraded_since is None:
            self._degraded_since = time.perf_counter()

    def mark_healthy(self) -> None:
        """Stop the degraded clock, banking the elapsed time."""
        if self._degraded_since is not None:
            self._degraded_seconds += time.perf_counter() - self._degraded_since
            self._degraded_since = None

    def degraded_seconds(self) -> float:
        """Total time spent degraded, including the current spell."""
        total = self._degraded_seconds
        if self._degraded_since is not None:
            total += time.perf_counter() - self._degraded_since
        return total

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly copy of counters, timings, degraded time."""
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "counters": counters,
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.phase_seconds.items())
            },
            "phase_histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self.phase_histograms.items())
            },
            "degraded_seconds": round(self.degraded_seconds(), 6),
        }

    def __repr__(self) -> str:
        busy = {k: v for k, v in self.counters.items() if v}
        return f"<ViewMetrics {busy}>"


class _Phase:
    """One ``with metrics.phase(name)`` block: its start time, filed on
    exit."""

    __slots__ = ("_metrics", "_name", "_start")

    def __init__(self, metrics: ViewMetrics, name: str) -> None:
        self._metrics = metrics
        self._name = name

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self._metrics.observe_phase(self._name, time.perf_counter() - self._start)


class _HeldPhases:
    """One ``with metrics.held_phases()`` block.  A nested block, or one
    another thread opened first, holds nothing of its own."""

    __slots__ = ("_metrics", "_held")

    def __init__(self, metrics: ViewMetrics) -> None:
        self._metrics = metrics
        self._held: Optional[Tuple[int, List[Tuple[str, float]]]] = None

    def __enter__(self) -> None:
        metrics = self._metrics
        if metrics.sink is not None and metrics._held is None:
            self._held = metrics._held = (get_ident(), [])

    def __exit__(self, *exc_info) -> None:
        held = self._held
        if held is None:
            return
        metrics = self._metrics
        if metrics._held is held:
            metrics._held = None
        if held[1]:
            metrics.sink.observe_phases(held[1])


class _Request:
    """The ``with metrics.request()`` block: the request counter and the
    in-flight gauge.  It keeps no per-request state, so one serves all."""

    __slots__ = ("_metrics",)

    def __init__(self, metrics: "ServiceMetrics") -> None:
        self._metrics = metrics

    def __enter__(self) -> None:
        metrics = self._metrics
        with metrics._lock:
            metrics.counters["requests_total"] += 1
            metrics._inflight += 1

    def __exit__(self, *exc_info) -> None:
        metrics = self._metrics
        with metrics._lock:
            metrics._inflight -= 1


class ServiceMetrics:
    """Service-level aggregation: counters, gauges, histograms, rollup.

    Thread-safe — bumped from every worker thread of the socket server
    without any outer lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {name: 0 for name in _SERVICE_COUNTERS}
        self.lock_wait = Histogram()
        self.lock_hold = Histogram()
        self.phase_histograms: Dict[str, Histogram] = {}
        # Counters absorbed from unregistered/replaced views, so the
        # service-wide rollup stays monotone across view churn.
        self.retired_counters: Dict[str, int] = {}
        self.retired_degraded_seconds = 0.0
        self._inflight = 0
        self._request = _Request(self)

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a service-level counter."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def record_lock(self, name: str, wait: float, hold: float) -> None:
        """File one lock acquisition (the InstrumentedLock recorder)."""
        with self._lock:
            self.counters["lock_acquisitions"] += 1
            self.lock_wait.observe(wait)
            self.lock_hold.observe(hold)

    def observe_phase(self, name: str, seconds: float) -> None:
        """File one phase timing (the ViewMetrics sink)."""
        with self._lock:
            histogram = self.phase_histograms.get(name)
            if histogram is None:
                histogram = self.phase_histograms[name] = Histogram()
            histogram.observe(seconds)

    def observe_phases(self, timings: Iterable[Tuple[str, float]]) -> None:
        """File several ``(phase, seconds)`` timings in one locked call."""
        histograms = self.phase_histograms
        with self._lock:
            for name, seconds in timings:
                histogram = histograms.get(name)
                if histogram is None:
                    histogram = histograms[name] = Histogram()
                histogram.observe(seconds)

    def request(self) -> _Request:
        """Track one protocol request over a ``with`` body: total counter
        + in-flight gauge."""
        return self._request

    @property
    def inflight(self) -> int:
        """Requests currently being handled (the queue-depth gauge)."""
        return self._inflight

    def absorb_counters(self, counters: Dict[str, int]) -> None:
        """Roll a plain counter dict into the retired totals.

        Cold-start recovery uses this to re-seat the rollup persisted
        in a checkpoint, so service totals stay monotone across a
        crash-restart cycle even though every live view restarts from
        zero.
        """
        with self._lock:
            for name, value in counters.items():
                self.retired_counters[name] = (
                    self.retired_counters.get(name, 0) + value
                )

    def absorb(self, view_metrics: ViewMetrics) -> None:
        """Roll a departing view's counters into the retired totals."""
        # Copy under the view's counter mutex: snapshot-path readers may
        # still be bumping a straggler increment while the view retires.
        with view_metrics._counter_lock:
            absorbed = dict(view_metrics.counters)
        with self._lock:
            for name, value in absorbed.items():
                self.retired_counters[name] = (
                    self.retired_counters.get(name, 0) + value
                )
            self.retired_degraded_seconds += view_metrics.degraded_seconds()

    def snapshot(self) -> Dict[str, object]:
        """The service-level part (no view data — see the QueryService
        ``metrics_snapshot``, which adds views, gauges, and the rollup)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "locks": {
                    "wait": self.lock_wait.snapshot(),
                    "hold": self.lock_hold.snapshot(),
                },
                "phase_histograms": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self.phase_histograms.items())
                },
                "retired": dict(self.retired_counters),
                "retired_degraded_seconds": round(
                    self.retired_degraded_seconds, 6
                ),
            }

    def __repr__(self) -> str:
        busy = {k: v for k, v in self.counters.items() if v}
        return f"<ServiceMetrics {busy} inflight={self._inflight}>"
