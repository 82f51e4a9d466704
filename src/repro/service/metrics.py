"""The service observability plane: every metric declared once, the
recorders that fill it, and the cluster rollup that merges it.

:data:`METRICS` gives each counter, gauge and histogram one row: name,
kind, scope (``view``, ``service`` or ``router``), one line of meaning
and, for a gauge or histogram, the ``key`` it is read from.  Everything
else reads that table:

* :class:`ViewMetrics` (one per view), :class:`ServiceMetrics` (one
  per :class:`~repro.service.server.QueryService`) and the cluster
  router start every counter of their scope at zero (:func:`zeroed`).
  ``bump`` looks nothing up: ``tests/service/test_metrics_schema.py``
  keeps snapshots and docs/SERVICE.md's table to these rows;
* ``QueryService.metrics_snapshot`` builds each view gauge from its
  row's key in the view's ``stats``;
* :func:`~repro.service.prometheus.render_prometheus` takes each
  family's name and type from its row (:attr:`Metric.family`);
* :func:`rollup_metrics` merges per-shard snapshots by kind.

A service snapshot's ``rollup`` is ``retired`` (the counters of views
unregistered or replaced, :meth:`ServiceMetrics.absorb`) plus the live
views' counters, so it never steps back across view churn.  The
cluster rollup keeps the same promise across drains and crashes:

* **counters are summed** (:func:`merge_counters`): ``counters``,
  ``rollup`` and ``retired`` across shards, plus the router's retired
  bank, the last-reported counters of every dead worker incarnation;
* **gauges are labelled per shard** under ``gauges.per_shard``; a
  router gauge whose row names a ``key`` is that gauge's cluster total;
* **histograms are merged bucket-wise** (:func:`merge_histograms`);
  every histogram has the same bounds, so nothing is lost;
* **views merge flat**, each annotated with the shard that served it
  (the router owns the view namespace).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from threading import get_ident
from typing import (
    Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple,
)

__all__ = [
    "METRICS", "Histogram", "Metric", "ServiceMetrics", "ViewMetrics",
    "merge_counters", "merge_histograms", "rollup_metrics", "zeroed",
]

COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"
VIEW, SERVICE, ROUTER = "view", "service", "router"

#: Where each scope's counters sit in a metrics snapshot (a dotted
#: path), and the prefix of their Prometheus families.
SECTIONS = {
    SERVICE: ("counters", "repro_service"),
    VIEW: ("rollup", "repro"),
    ROUTER: ("router.counters", "repro_router"),
}


class Metric(NamedTuple):
    """One declared metric.  ``key`` is where a gauge or histogram is
    read from: a view gauge's key in the view's ``stats``, a router
    gauge's key in each shard's gauges (it is their cluster total), a
    histogram's dotted path in a snapshot.  A histogram with a ``label``
    is a family of histograms, one per value of that label."""

    name: str
    kind: str
    scope: str
    meaning: str
    key: Optional[str] = None
    label: Optional[str] = None

    @property
    def family(self) -> str:
        """The Prometheus family this metric is exported as."""
        if self.kind != COUNTER:
            return f"repro_{self.name}"
        base = self.name[:-6] if self.name.endswith("_total") else self.name
        return f"{SECTIONS[self.scope][1]}_{base}_total"


def _rows(kind: str, scope: str, *rows: tuple) -> Tuple[Metric, ...]:
    return tuple(Metric(name, kind, scope, *rest) for name, *rest in rows)


#: Every metric the service and the cluster router report.  A name may
#: recur under another scope (the router counts its own requests);
#: ``(scope, name)`` is unique.
METRICS: Tuple[Metric, ...] = (
    *_rows(
        COUNTER, VIEW,
        ("queries", "reads the view answered"),
        ("cache_hits", "reads the result cache answered"),
        ("cache_misses", "reads the result cache missed"),
        ("snapshot_reads", "reads served off the published snapshot, lock-free"),
        ("stale_queries", "reads answered while the view was degraded"),
        ("rows_scanned", "rows reads touched: buckets, chain deltas, reply lines"),
        ("update_batches", "write batches applied"),
        ("inserts_applied", "base facts inserted"),
        ("deletes_applied", "base facts deleted"),
        ("delta_plus_total", "rows the published model gained"),
        ("delta_minus_total", "rows the published model lost"),
        ("incremental_batches", "batches maintained incrementally"),
        ("recompute_batches", "batches a rebuild view recomputed"),
        ("circuit_steps", "engine passes (a chain adds one per level it settles)"),
        ("delta_batches_coalesced", "batches that rode another batch's pass"),
        ("rules_fired", "rule firings of the join kernel"),
        ("rows_matched", "rows those firings pulled from buckets and row sets"),
        ("overdeleted_total", "rows a retraction over-deleted"),
        ("rederived_total", "over-deleted rows derived again"),
        ("annotated_initializes", "builds of a non-boolean view"),
        ("snapshot_swaps", "model versions published"),
        ("compactions", "snapshots whose delta chains were flattened"),
        ("compaction_rows", "rows those flattenings wrote"),
        ("rollbacks", "failed bursts rolled back"),
        ("degraded_entries", "times the view turned degraded"),
        ("recovery_retries", "retried rebuilds after a failed burst"),
    ),
    *_rows(
        GAUGE, VIEW,
        ("time_in_degraded", "seconds spent degraded", "degraded_seconds"),
        ("snapshot_age", "seconds since the served model was published",
         "snapshot_age_seconds"),
        ("chain_depth", "the deepest delta chain a cold read walks", "chain_depth"),
        ("alternation_levels", "levels of a valid / well-founded view's chain",
         "alternation_levels"),
        ("update_queue_depth", "batches waiting for the group-commit leader",
         "queue_depth"),
    ),
    *_rows(
        HISTOGRAM, VIEW,
        ("phase_seconds", "time per phase", "phase_histograms", "phase"),
    ),
    *_rows(
        COUNTER, SERVICE,
        ("requests_total", "protocol requests handled"),
        ("errors_total", "requests answered with an error"),
        ("registrations", "programs registered"),
        ("unregistrations", "views unregistered"),
        ("updates_total", "write batches accepted"),
        ("queries_total", "queries answered"),
        ("lock_acquisitions", "instrumented lock holds"),
        ("wal_appends", "log records appended (0 without --data-dir)"),
        ("wal_fsyncs", "log fsyncs"),
        ("wal_checkpoints", "checkpoints written"),
        ("wal_torn_records_dropped", "torn log records dropped at start"),
        ("recoveries", "starts that recovered a data directory"),
        ("recovery_replay_records", "log records replayed at start"),
    ),
    *_rows(
        GAUGE, SERVICE,
        ("views_registered", "views registered"),
        ("stale_views", "views serving degraded"),
        ("inflight_requests", "requests being handled"),
        ("name_table_republishes", "name-table copies published"),
        ("name_table_copied_cells", "cells those copies copied"),
        ("wal_size", "bytes in the log (with --data-dir)"),
        ("recovered_generation", "the data directory's generation (with --data-dir)"),
    ),
    *_rows(
        HISTOGRAM, SERVICE,
        ("lock_wait_seconds", "time waited for an instrumented lock", "locks.wait"),
        ("lock_hold_seconds", "time an instrumented lock was held", "locks.hold"),
        ("phase_seconds", "every view's time per phase", "phase_histograms", "phase"),
    ),
    *_rows(
        COUNTER, ROUTER,
        ("requests_total", "frames handled"),
        ("errors_total", "frames answered with an error"),
        ("forwarded_total", "requests forwarded to one shard"),
        ("fanouts_total", "requests fanned out to every shard"),
        ("respawns", "crashed workers replaced"),
        ("drains", "shards drained"),
        ("recoveries", "starts that recovered the control plane"),
        ("recovery_replay_records", "control-plane log records replayed"),
        ("wal_appends", "control-plane log records appended"),
        ("wal_fsyncs", "control-plane log fsyncs"),
        ("wal_checkpoints", "control-plane checkpoints written"),
        ("wal_torn_records_dropped", "torn control-plane records dropped"),
    ),
    *_rows(
        GAUGE, ROUTER,
        ("views_registered", "views across shards", "views_registered"),
        ("stale_views", "degraded views across shards", "stale_views"),
        ("inflight_requests", "requests in flight across shards", "inflight_requests"),
        ("router_wal_size", "bytes in the control-plane log (with --data-dir)"),
        ("recovered_generation", "the router's generation (with --data-dir)"),
    ),
)


def declared(kind: str, scope: str) -> Tuple[Metric, ...]:
    """The rows of one kind and scope, in declaration order."""
    return tuple(m for m in METRICS if m.kind == kind and m.scope == scope)


def zeroed(scope: str) -> Dict[str, int]:
    """Every counter declared for ``scope``, at zero."""
    return {m.name: 0 for m in declared(COUNTER, scope)}


def merge_counters(
    into: Dict[str, int], source: Mapping[str, int]
) -> Dict[str, int]:
    """Sum ``source`` into ``into`` name by name (``into`` returned).
    The one counter merge: retired views, recovered checkpoints, the
    router's retired bank and the cluster rollup all go through it."""
    for name, value in source.items():
        into[name] = into.get(name, 0) + int(value)
    return into


def lookup(snapshot: Mapping, path: str) -> Mapping:
    """The section at a dotted ``path`` of a snapshot (``{}`` if absent)."""
    for part in path.split("."):
        snapshot = snapshot.get(part, {})
    return snapshot


def histograms(snapshot: Mapping, metric: Metric) -> List[Tuple[str, Mapping]]:
    """``(label value, histogram)`` for each histogram of ``metric`` in
    ``snapshot``: one, with the value ``""``, when it has no label."""
    found = lookup(snapshot, metric.key)
    return sorted(found.items()) if metric.label else [("", found)]


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


def merge_histograms(into: Dict, source: Mapping) -> Dict:
    """Sum one :meth:`Histogram.snapshot` into another bucket by bucket
    (``into`` returned; ``{}`` starts an empty one)."""
    if not into:
        into.update({"count": 0, "sum": 0.0, "buckets": {}})
    into["count"] += source.get("count", 0)
    into["sum"] = round(into["sum"] + source.get("sum", 0.0), 6)
    buckets = into["buckets"]
    for bound, count in source.get("buckets", {}).items():
        buckets[bound] = buckets.get(bound, 0) + count
    return into


class ViewMetrics:
    """Counters, phase timings, and degraded time for one view.

    ``sink`` (optional) is a :class:`ServiceMetrics`: every phase
    observation is forwarded there so the service-level histograms see
    all views combined.
    """

    def __init__(self, sink: Optional["ServiceMetrics"] = None) -> None:
        self.counters: Dict[str, int] = zeroed(VIEW)
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
        self.counters: Dict[str, int] = zeroed(SERVICE)
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

    def absorb_counters(self, counters: Mapping[str, int]) -> None:
        """Roll a plain counter dict into the retired totals (recovery
        re-seats a checkpoint's rollup this way, so the totals stay
        monotone across a restart in which every view starts at 0)."""
        with self._lock:
            merge_counters(self.retired_counters, counters)

    def absorb(self, view_metrics: ViewMetrics) -> None:
        """Roll a departing view's counters into the retired totals."""
        # Copy under the view's counter mutex: snapshot-path readers may
        # still be bumping a straggler increment while the view retires.
        with view_metrics._counter_lock:
            absorbed = dict(view_metrics.counters)
        with self._lock:
            merge_counters(self.retired_counters, absorbed)
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


def rollup_metrics(
    shard_snapshots: Mapping[str, Mapping],
    router_retired: Optional[Mapping[str, int]] = None,
    drained: Optional[Mapping[str, str]] = None,
) -> Dict[str, object]:
    """One cluster snapshot from per-shard ``metrics_snapshot`` dicts.

    ``router_retired`` is the view-counter part of the router's retired
    bank (drained shards, crashed-and-respawned workers); ``drained``
    maps drained shard ids to a status.  ``rollup`` and ``counters``
    never decrease across updates, drains, crashes and respawns.
    """
    aggregate: Dict[str, object] = {
        "shards": sorted(shard_snapshots),
        "drained": dict(drained or {}),
        "counters": {},
        "rollup": dict(router_retired or {}),
        "retired": {},
        "router_retired": dict(router_retired or {}),
        "views": {},
        "phase_histograms": {},
        "locks": {"wait": {}, "hold": {}},
        "cache": {},
    }
    totals = [m for m in declared(GAUGE, ROUTER) if m.key]
    merged_histograms = declared(HISTOGRAM, SERVICE)
    gauges: Dict[str, object] = {m.name: 0 for m in totals}
    gauges["per_shard"] = per_shard = {}
    for shard in sorted(shard_snapshots):
        snapshot = shard_snapshots[shard]
        for section in ("counters", "rollup", "retired"):
            merge_counters(aggregate[section], snapshot.get(section, {}))
        for view_name, stats in snapshot.get("views", {}).items():
            aggregate["views"][view_name] = {**stats, "shard": shard}
        per_shard[shard] = shard_gauges = snapshot.get("gauges", {})
        for metric in totals:
            gauges[metric.name] += int(shard_gauges.get(metric.key, 0) or 0)
        for metric in merged_histograms:
            merged = lookup(aggregate, metric.key)
            for value, histogram in histograms(snapshot, metric):
                merge_histograms(
                    merged.setdefault(value, {}) if value else merged, histogram
                )
        aggregate["cache"][shard] = snapshot.get("cache", {})
    aggregate["gauges"] = gauges
    return aggregate
