"""Every metric a snapshot reports is declared in ``METRICS``, once.

Three checks against the one declaration table of
``repro/service/metrics.py``:

* the counter sections of a service snapshot (each view's, the
  service's, ``rollup`` and ``retired``) and of a two-shard cluster
  aggregate (plus the router's) hold exactly the counters their scope
  declares, after the metrics-contract script and a forced rollback;
* the Prometheus export types only declared families, with their
  declared kind;
* docs/SERVICE.md's metrics table is the declaration, row for row.
"""

import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.relations import Atom
from repro.robustness import FaultInjector, FaultRule, InjectedFault, inject_faults
from repro.service import QueryService, render_prometheus, serve_stream
from repro.service.cluster import ClusterClient, cluster
from repro.service.metrics import (
    GAUGE, METRICS, ROUTER, SERVICE, VIEW, declared, zeroed,
)

from .test_metrics_contract import SCRIPT

DOCS = Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"


@pytest.fixture(scope="module")
def service_snapshot():
    """The contract script, a rollback forced by a failing component
    (as in ``test_degraded.py``), and an unregister, so ``retired``
    holds a departed view's counters."""
    service = QueryService()
    try:
        serve_stream(service, SCRIPT, lambda line: None)
        plan = FaultInjector([FaultRule("incremental.component")])
        with inject_faults(plan):
            try:
                service.insert("t", "e", Atom("h"), Atom("i"))
            except InjectedFault:
                pass
        assert service.stats("t")["counters"]["rollbacks"] == 1
        service.register("gone", "p(X) :- q(X). q(a).")
        service.unregister("gone")
        return service.metrics_snapshot()
    finally:
        service.close()


@pytest.fixture(scope="module")
def cluster_snapshots():
    """A two-shard cluster's aggregate, as JSON and as Prometheus."""
    directory = tempfile.mkdtemp(prefix="repro-schema-")
    socket_path = os.path.join(directory, "fd")
    try:
        with cluster(socket_path, shards=2, heartbeat_interval=0.5):
            with ClusterClient(socket_path, timeout=60.0) as client:
                for line in SCRIPT:
                    client.request(line)
                snapshots = client.metrics(), client.metrics_prometheus()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return snapshots


def _assert_counters(section, scope, where):
    assert sorted(section) == sorted(zeroed(scope)), where


def test_every_counter_section_holds_exactly_its_declared_counters(
    service_snapshot, cluster_snapshots
):
    snapshot = service_snapshot
    for name, stats in snapshot["views"].items():
        _assert_counters(stats["counters"], VIEW, f"views.{name}")
    _assert_counters(snapshot["rollup"], VIEW, "rollup")
    _assert_counters(snapshot["retired"], VIEW, "retired")
    _assert_counters(snapshot["counters"], SERVICE, "counters")
    gauges = {m.name for m in declared(GAUGE, VIEW) + declared(GAUGE, SERVICE)}
    assert set(snapshot["gauges"]) <= gauges

    aggregate, _text = cluster_snapshots
    assert aggregate["shards"] == ["shard-0", "shard-1"]
    for name, stats in aggregate["views"].items():
        _assert_counters(stats["counters"], VIEW, f"views.{name}")
    _assert_counters(aggregate["rollup"], VIEW, "rollup")
    _assert_counters(aggregate["counters"], SERVICE, "counters")
    _assert_counters(aggregate["router"]["counters"], ROUTER, "router.counters")
    router_gauges = {m.name for m in declared(GAUGE, ROUTER)}
    assert set(aggregate["gauges"]) - {"per_shard"} <= router_gauges
    for shard_gauges in aggregate["gauges"]["per_shard"].values():
        assert set(shard_gauges) <= gauges


def test_prometheus_types_only_declared_families(
    service_snapshot, cluster_snapshots
):
    families = {}
    for metric in METRICS:
        families.setdefault(metric.family, set()).add(metric.kind)
    for text in (render_prometheus(service_snapshot), cluster_snapshots[1]):
        typed = re.findall(r"^# TYPE (\S+) (\S+)$", text, flags=re.MULTILINE)
        assert typed
        for family, kind in typed:
            assert kind in families.get(family, ()), family
    # Declared counters nobody bumped are exported at zero.
    samples = cluster_snapshots[1].splitlines()
    assert {"repro_rollbacks_total 0", "repro_router_drains_total 0"} <= set(samples)


def _docs_rows():
    """The ``| `name` | kind | scope | meaning |`` rows of SERVICE.md."""
    rows = []
    for line in DOCS.read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"\| `(\w+)` \| (\w+) \| (\w+) \| (.+) \|", line)
        if match:
            rows.append(match.groups())
    return rows


def test_the_docs_table_is_the_declaration():
    want = [(m.name, m.kind, m.scope, m.meaning) for m in METRICS]
    table = "\n".join("| `{}` | {} | {} | {} |".format(*row) for row in want)
    assert _docs_rows() == want, f"docs/SERVICE.md's table should read:\n{table}"
