"""Prometheus text-format export of a metrics snapshot.

:func:`render_prometheus` turns a snapshot (a service's
:meth:`~repro.service.server.QueryService.metrics_snapshot` or the
cluster router's :func:`~repro.service.metrics.rollup_metrics`) into
the exposition format (text/plain; version 0.0.4).  Each family's name
and type come from its row of :data:`~repro.service.metrics.METRICS`,
and a name the table does not declare is not exported:

* counters are ``repro_service_<name>_total`` (the service's),
  ``repro_<name>_total`` (the views' ``rollup``) and
  ``repro_router_<name>_total`` (a cluster router's);
* gauges are ``repro_<name>``, labelled ``view=`` where the snapshot
  keeps one value per view and ``shard=`` under ``per_shard``;
* histograms are native Prometheus histograms: cumulative
  ``_bucket{le=...}`` series (the internal
  :class:`~repro.service.metrics.Histogram` keeps non-cumulative
  buckets) plus ``_sum`` and ``_count``.

The ``metrics --format=prometheus`` verb (service and router alike)
replies with it, and ``repro serve --metrics-prometheus PATH`` runs a
:class:`PrometheusExporter` thread that rewrites ``PATH`` atomically
every ``interval`` seconds for a textfile collector or a scraper.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Callable, List, Mapping, Optional, Set, Tuple

from .metrics import (
    COUNTER, GAUGE, HISTOGRAM, METRICS, SECTIONS, SERVICE, Metric,
    declared, histograms, lookup,
)

__all__ = ["render_prometheus", "PrometheusExporter"]

logger = logging.getLogger(__name__)

#: Counter rows by ``(scope, name)``, gauge rows by name (a gauge's
#: family does not depend on its scope).
_COUNTERS = {(m.scope, m.name): m for m in METRICS if m.kind == COUNTER}
_GAUGES = {m.name: m for m in METRICS if m.kind == GAUGE}


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in sorted(pairs.items())
    )
    return "{" + inner + "}"


def _bucket_bound(key: str) -> float:
    suffix = key[3:] if key.startswith("le_") else key
    return float("inf") if suffix == "inf" else float(suffix)


def _type(lines: List[str], metric: Metric, typed: Set[str]) -> None:
    """The family's ``# TYPE`` line, the first time it is rendered."""
    if metric.family not in typed:
        lines.append(f"# TYPE {metric.family} {metric.kind}")
        typed.add(metric.family)


def _render_histogram(
    lines: List[str],
    metric: Metric,
    snapshot: Mapping,
    labels: Mapping[str, str],
    typed: Set[str],
) -> None:
    """One histogram snapshot as cumulative Prometheus series."""
    if not snapshot.get("count"):
        return
    _type(lines, metric, typed)
    family = metric.family
    buckets: List[Tuple[float, int]] = sorted(
        (_bucket_bound(key), count)
        for key, count in snapshot.get("buckets", {}).items()
    )
    cumulative = 0
    for bound, count in buckets:
        cumulative += count
        le = "+Inf" if bound == float("inf") else f"{bound:g}"
        lines.append(f"{family}_bucket{_labels({**labels, 'le': le})} {cumulative}")
    lines.append(f"{family}_sum{_labels(labels)} {snapshot.get('sum', 0)}")
    lines.append(f"{family}_count{_labels(labels)} {snapshot.get('count', 0)}")


def _render_gauge(
    lines: List[str],
    name: str,
    value,
    labels: Mapping[str, str],
    typed: Set[str],
) -> None:
    """One gauge scalar, or a per-view dict of them labelled ``view``."""
    metric = _GAUGES.get(name)
    if metric is None:
        return
    if isinstance(value, Mapping):
        for view, entry in sorted(value.items()):
            _render_gauge(lines, name, entry, {**labels, "view": str(view)}, typed)
        return
    _type(lines, metric, typed)
    lines.append(f"{metric.family}{_labels(labels)} {value}")


def render_prometheus(snapshot: Mapping) -> str:
    """The exposition-format text for one metrics snapshot."""
    lines: List[str] = []
    typed: Set[str] = set()
    # Counters, scope by scope: the service's, the views' rollup
    # (monotone across view churn and, in a cluster, across shard drain
    # and respawn), then a cluster router's own.
    for scope, (path, _prefix) in SECTIONS.items():
        for name, value in sorted(lookup(snapshot, path).items()):
            metric = _COUNTERS.get((scope, name))
            if metric is not None:
                _type(lines, metric, typed)
                lines.append(f"{metric.family} {value}")
    # Gauges: a cluster aggregate keeps each shard's under per_shard.
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        if name != "per_shard":
            _render_gauge(lines, name, value, {}, typed)
            continue
        for shard, shard_gauges in sorted(value.items()):
            for gauge, entry in sorted(shard_gauges.items()):
                _render_gauge(lines, gauge, entry, {"shard": str(shard)}, typed)
    for metric in declared(HISTOGRAM, SERVICE):
        for value, histogram in histograms(snapshot, metric):
            labels = {metric.label: value} if value else {}
            _render_histogram(lines, metric, histogram, labels, typed)
    return "\n".join(lines) + "\n"


class PrometheusExporter:
    """Periodically write the rendered snapshot to a textfile.

    ``snapshot_source`` is any zero-argument callable returning a
    metrics snapshot dict (``QueryService.metrics_snapshot``, or a
    closure fetching the cluster rollup).  The file is written
    atomically (tmp + rename) every ``interval`` seconds and once more
    on :meth:`stop`, so scrapers never observe a torn export.
    """

    def __init__(
        self,
        snapshot_source: Callable[[], Mapping],
        path: str,
        interval: float = 5.0,
    ):
        self.snapshot_source = snapshot_source
        self.path = path
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def export_once(self) -> None:
        """Render and atomically replace the export file."""
        try:
            text = render_prometheus(self.snapshot_source())
        except Exception:  # the exporter must never kill the server
            logger.exception("prometheus export failed; keeping last file")
            return
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, self.path)

    def start(self) -> None:
        """Start the export thread (no-op when already running)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="prometheus-exporter", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the thread and write one final export (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)
            self.export_once()

    def _run(self) -> None:
        self.export_once()
        while not self._stop.wait(self.interval):
            self.export_once()
