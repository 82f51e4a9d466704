"""Durable cluster control plane: cold-start recovery of the router.

The router journals its control plane — registrations, acked
base-fact updates, drains — and checkpoints the routing table.  These
tests restart real multi-process clusters against the same data
directory and check that the recovered topology serves exactly the
pre-crash state:

* graceful stop → cold start restores from the checkpoint (no replay),
* crash (no final checkpoint) → the WAL suffix replays acked updates,
* a drained shard stays drained and its views stay re-homed,
* the rolled-up metrics never regress across the restart,
* under ``fsync="batch"`` an acked write never fsyncs on the router's
  event-loop thread; only a checkpoint does.
"""

import os
import shutil
import tempfile
import threading
import time

import pytest

from repro.service.cluster import ClusterClient, cluster

TC = (
    "tc(X, Y) :- edge(X, Y). "
    "tc(X, Z) :- tc(X, Y), edge(Y, Z)."
)


@pytest.fixture()
def workspace():
    directory = tempfile.mkdtemp(prefix="repro-dclu-")
    yield (
        os.path.join(directory, "fd"),
        os.path.join(directory, "data"),
    )
    shutil.rmtree(directory, ignore_errors=True)


def _crash_router(router):
    """Drop the durability plane with no final checkpoint: the on-disk
    state is exactly what a killed router process would leave."""
    router.durability.close(final_checkpoint=False)
    router.durability = None


def test_graceful_restart_restores_routing_table(workspace):
    socket_path, data_dir = workspace
    with cluster(socket_path, shards=2, data_dir=data_dir):
        with ClusterClient(socket_path) as client:
            for index in range(4):
                client.register(f"view{index}", TC)
            client.insert("view0", "edge(a, b)")
            client.insert("view0", "edge(b, c)")
            client.delete("view0", "edge(b, c)")
    with cluster(socket_path, shards=2, data_dir=data_dir) as router:
        report = router.last_recovery
        assert report["views_restored"] == 4
        assert report["replayed_records"] == 0, "checkpoint covered all"
        assert report["views_reassigned"] == 0
        with ClusterClient(socket_path) as client:
            assert sorted(client.views()) == [f"view{i}" for i in range(4)]
            rows, _ = client.query("view0", "tc")
            assert rows == ["tc(a, b)"]


def test_crash_replays_acked_updates(workspace):
    socket_path, data_dir = workspace
    with cluster(socket_path, shards=2, data_dir=data_dir) as router:
        with ClusterClient(socket_path) as client:
            client.register("g", TC)
        # Checkpoint the registration, then crash with journaled-only
        # updates in the WAL tail.
        router.durability.checkpoint()
        with ClusterClient(socket_path) as client:
            client.insert("g", "edge(a, b)")
            client.insert("g", "edge(b, c)")
        _crash_router(router)
    with cluster(socket_path, shards=2, data_dir=data_dir) as router:
        report = router.last_recovery
        assert report["replayed_records"] == 2
        with ClusterClient(socket_path) as client:
            rows, _ = client.query("g", "tc")
            assert sorted(rows) == [
                "tc(a, b)",
                "tc(a, c)",
                "tc(b, c)",
            ]


def test_crash_with_no_checkpoint_at_all(workspace):
    """Even the registrations live only in the WAL: full replay."""
    socket_path, data_dir = workspace
    with cluster(socket_path, shards=2, data_dir=data_dir) as router:
        with ClusterClient(socket_path) as client:
            client.register("g", TC)
            client.insert("g", "edge(p, q)")
        _crash_router(router)
    with cluster(socket_path, shards=2, data_dir=data_dir) as router:
        assert router.last_recovery["replayed_records"] == 2
        with ClusterClient(socket_path) as client:
            rows, _ = client.query("g", "tc")
            assert rows == ["tc(p, q)"]


def test_drained_shard_stays_drained_across_restart(workspace):
    socket_path, data_dir = workspace
    with cluster(socket_path, shards=3, data_dir=data_dir) as router:
        with ClusterClient(socket_path) as client:
            for index in range(6):
                client.register(f"view{index}", TC)
                client.insert(f"view{index}", f"edge(n{index}, m{index})")
            victim = router.routing_table()["view0"]
            summary = client.drain(victim)
            assert "view0" in summary["moved_views"]
        pre_routes = dict(router.routing_table())
    with cluster(socket_path, shards=3, data_dir=data_dir) as router:
        assert router.routing_table() == pre_routes
        describe = router.describe()
        assert describe["shards"][victim]["drained"] is True
        assert describe["shards"][victim]["live"] is False
        with ClusterClient(socket_path) as client:
            for index in range(6):
                rows, _ = client.query(f"view{index}", "tc")
                assert rows == [f"tc(n{index}, m{index})"]
            # The drained shard rejects new work exactly as before.
            shards = client.shards()
            assert shards["shards"][victim]["drained"] is True


def test_restart_with_fewer_shards_reassigns_views(workspace):
    socket_path, data_dir = workspace
    with cluster(socket_path, shards=3, data_dir=data_dir):
        with ClusterClient(socket_path) as client:
            for index in range(6):
                client.register(f"view{index}", TC)
                client.insert(f"view{index}", "edge(a, b)")
    with cluster(socket_path, shards=2, data_dir=data_dir) as router:
        routes = router.routing_table()
        assert set(routes.values()) <= {"shard-0", "shard-1"}
        with ClusterClient(socket_path) as client:
            for index in range(6):
                rows, _ = client.query(f"view{index}", "tc")
                assert rows == ["tc(a, b)"]


def test_metrics_rollup_monotone_across_restart(workspace):
    socket_path, data_dir = workspace
    with cluster(socket_path, shards=2, data_dir=data_dir) as router:
        with ClusterClient(socket_path) as client:
            client.register("g", TC)
            client.insert("g", "edge(a, b)")
            client.insert("g", "edge(b, c)")
            # A metrics fan-out records per-shard last_counters, which
            # the checkpoint banks for the next incarnation.
            before = client.metrics()
        router.durability.checkpoint()
        _crash_router(router)
    with cluster(socket_path, shards=2, data_dir=data_dir):
        with ClusterClient(socket_path) as client:
            after = client.metrics()
    for key, value in before["rollup"].items():
        assert after["rollup"].get(key, 0) >= value, key
    for key in ("requests_total", "forwarded_total"):
        assert (
            after["router"]["counters"][key]
            >= before["router"]["counters"][key]
        ), key
    assert after["router"]["counters"]["recoveries"] >= 2
    assert after["router"]["durability"]["generation"] >= 2


def test_batch_fsyncs_leave_the_router_thread(workspace, monkeypatch):
    """The router journals every acked write; under ``batch`` the WAL's
    syncer thread runs the every-16th fsync, so the event loop only
    fsyncs inside a checkpoint (its rotate, the checkpoint file)."""
    socket_path, data_dir = workspace
    calls = []
    in_checkpoint = []
    fsync = os.fsync

    def spy(fd):
        calls.append((threading.current_thread().name, bool(in_checkpoint)))
        fsync(fd)

    with cluster(
        socket_path, shards=2, data_dir=data_dir, fsync="batch", checkpoint_every=20
    ) as router:
        manager = router.durability
        checkpoint = manager.checkpoint

        def traced_checkpoint():
            in_checkpoint.append(True)
            try:
                return checkpoint()
            finally:
                in_checkpoint.pop()

        monkeypatch.setattr(manager, "checkpoint", traced_checkpoint)
        monkeypatch.setattr(os, "fsync", spy)
        with ClusterClient(socket_path) as client:
            client.register("g", TC)
            for index in range(48):
                client.insert("g", f"edge(n{index}, n{index + 1})")
        on_loop = [inside for name, inside in calls if name == "cluster-router"]
        assert on_loop, "no checkpoint ran on the event loop"
        assert all(on_loop), f"an acked write fsynced on the event loop: {calls}"
        # The last hand-off may still be in flight.
        deadline = time.monotonic() + 10
        while sum(name == "wal-syncer" for name, _ in calls) < 2:
            assert time.monotonic() < deadline, calls
            time.sleep(0.01)
        monkeypatch.setattr(os, "fsync", fsync)
