"""The Prometheus exporter: renderer, protocol verb, textfile daemon."""

import math
import re
import time

import pytest

from repro.core.algebra_to_datalog import translation_registry
from repro.service import (
    PrometheusExporter,
    QueryService,
    render_prometheus,
    serve_stream,
)

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
edge(b, c).
"""


@pytest.fixture
def service():
    svc = QueryService(function_registry=translation_registry())
    try:
        yield svc
    finally:
        svc.close()


def _warm(service):
    service.register("tc_view", TC)
    service.insert("tc_view", "edge", "c", "d")
    service.query("tc_view", "tc")
    service.query("tc_view", "tc")  # the second hits the cache
    return service.metrics_snapshot()


def _sample(text, metric, **labels):
    """The float value of one exposition line, or None."""
    if labels:
        inner = ",".join(
            f'{name}="{value}"' for name, value in sorted(labels.items())
        )
        pattern = (
            "^" + re.escape(metric) + r"\{" + re.escape(inner) + r"\} (\S+)$"
        )
    else:
        pattern = "^" + re.escape(metric) + r" (\S+)$"
    match = re.search(pattern, text, flags=re.MULTILINE)
    return None if match is None else float(match.group(1))


class TestRenderer:
    def test_counters_match_snapshot(self, service):
        snapshot = _warm(service)
        text = render_prometheus(snapshot)
        assert (
            _sample(text, "repro_service_requests_total")
            == snapshot["counters"]["requests_total"]
        )
        assert (
            _sample(text, "repro_inserts_applied_total")
            == snapshot["rollup"]["inserts_applied"]
        )
        # No doubled suffix on counters already named *_total.
        assert "_total_total" not in text

    def test_type_lines_present_once(self, service):
        text = render_prometheus(_warm(service))
        for metric in (
            "repro_service_requests_total",
            "repro_inserts_applied_total",
        ):
            assert text.count(f"# TYPE {metric} counter") == 1

    def test_histograms_are_cumulative(self, service):
        snapshot = _warm(service)
        text = render_prometheus(snapshot)
        # For every phase histogram: buckets are non-decreasing in le
        # order, the +Inf bucket equals _count, and _count matches the
        # snapshot.
        for phase, histogram in snapshot["phase_histograms"].items():
            if not histogram.get("count"):
                continue
            pattern = (
                r'repro_phase_seconds_bucket\{le="([^"]+)",phase="'
                + re.escape(phase)
                + r'"\} (\d+)'
            )
            samples = [
                (
                    math.inf if le == "+Inf" else float(le),
                    int(value),
                )
                for le, value in re.findall(pattern, text)
            ]
            assert samples, f"no buckets rendered for {phase}"
            ordered = sorted(samples)
            counts = [count for _le, count in ordered]
            assert counts == sorted(counts), phase  # cumulative
            assert ordered[-1][0] == math.inf
            assert counts[-1] == histogram["count"]
            assert _sample(
                text, "repro_phase_seconds_count", phase=phase
            ) == histogram["count"]

    def test_per_view_gauges_labeled(self, service):
        _warm(service)
        text = render_prometheus(service.metrics_snapshot())
        assert _sample(
            text, "repro_snapshot_age", view="tc_view"
        ) is not None
        assert _sample(
            text, "repro_chain_depth", view="tc_view"
        ) is not None
        assert _sample(text, "repro_alternation_levels", view="tc_view") == 0

    def test_alternation_levels_gauge_is_the_chain_length(self, service):
        service.register(
            "win_view",
            "win(X) :- move(X, Y), not win(Y). move(a, b). move(b, a).",
            semantics="valid",
        )
        levels = service.view("win_view").alternation_levels()
        text = render_prometheus(service.metrics_snapshot())
        assert levels >= 2
        assert _sample(
            text, "repro_alternation_levels", view="win_view"
        ) == levels
        assert "@" not in text

    def test_cluster_shape_labels_shards(self):
        # A cluster aggregate (shaped like rollup_metrics output).
        text = render_prometheus(
            {
                "counters": {"requests_total": 7},
                "rollup": {"inserts_applied": 4},
                "router": {"counters": {"forwarded_total": 6}},
                "gauges": {
                    "views_registered": 3,
                    "per_shard": {
                        "shard-0": {"inflight_requests": 1},
                        "shard-1": {"inflight_requests": 0},
                    },
                },
            }
        )
        assert _sample(text, "repro_router_forwarded_total") == 6
        assert (
            _sample(text, "repro_inflight_requests", shard="shard-0") == 1
        )
        assert (
            _sample(text, "repro_inflight_requests", shard="shard-1") == 0
        )

    def test_label_escaping(self):
        text = render_prometheus(
            {"gauges": {"snapshot_age": {'we"ird\nname': 3}}}
        )
        assert '\\"' in text and "\\n" in text


class TestProtocolVerb:
    def _run(self, service, script):
        replies = []
        serve_stream(service, script.splitlines(), replies.append)
        return replies

    def test_metrics_format_prometheus(self, service):
        _warm(service)
        replies = self._run(service, "metrics --format=prometheus")
        assert replies[-1] == "ok prometheus"
        body = "\n".join(replies[:-1])
        assert "# TYPE repro_service_requests_total counter" in body

    def test_unknown_format_is_error(self, service):
        replies = self._run(service, "metrics --format=xml")
        assert replies[-1].startswith("error")

    def test_plain_metrics_still_json(self, service):
        _warm(service)
        replies = self._run(service, "metrics")
        assert replies[-1].startswith("ok {")


class TestExporter:
    def test_export_once_writes_atomically(self, service, tmp_path):
        _warm(service)
        path = tmp_path / "metrics.prom"
        exporter = PrometheusExporter(service.metrics_snapshot, str(path))
        exporter.export_once()
        text = path.read_text()
        assert "repro_service_requests_total" in text
        assert not (tmp_path / "metrics.prom.tmp").exists()

    def test_periodic_export_and_idempotent_stop(self, service, tmp_path):
        _warm(service)
        path = tmp_path / "metrics.prom"
        exporter = PrometheusExporter(
            service.metrics_snapshot, str(path), interval=0.05
        )
        exporter.start()
        exporter.start()  # second start is a no-op, not a second thread
        deadline = time.monotonic() + 10
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert path.exists()
        # repro_queries_total counts service.query calls (the
        # service-level requests_total only counts protocol requests).
        before = _sample(path.read_text(), "repro_queries_total")
        service.query("tc_view", "tc")
        exporter.stop()  # writes a final export
        exporter.stop()  # idempotent
        after = _sample(path.read_text(), "repro_queries_total")
        assert after is not None and before is not None
        assert after > before

    def test_snapshot_failure_keeps_last_file(self, service, tmp_path):
        path = tmp_path / "metrics.prom"
        holder = {"source": service.metrics_snapshot}
        exporter = PrometheusExporter(
            lambda: holder["source"](), str(path)
        )
        exporter.export_once()
        good = path.read_text()

        def boom():
            raise RuntimeError("scrape failed")

        holder["source"] = boom
        exporter.export_once()  # must not raise, must not clobber
        assert path.read_text() == good
