"""The sharded serving tier: framing, ring, rollup, end-to-end routing.

The end-to-end tests run a real cluster — worker processes spawned via
multiprocessing, an asyncio router on a unix socket, framed clients —
at 2 shards, small enough to stay fast, real enough to exercise every
hop of the data path.  Unix socket paths come from a short mkdtemp
(``tmp_path`` can exceed the AF_UNIX 107-byte limit).
"""

import json
import os
import shutil
import socket
import tempfile
import threading

import pytest

from repro.service.cluster import (
    ClusterClient,
    ClusterReplyError,
    FrameError,
    HashRing,
    ViewRecord,
    cluster,
    encode_frame,
    read_frame,
    rollup_metrics,
    write_frame,
)

TC = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- edge(X, Y), tc(Y, Z)."


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class TestFraming:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5)
        right.settimeout(5)
        return left, right

    def test_round_trip(self):
        left, right = self._pair()
        try:
            write_frame(left, b"query v tc")
            assert read_frame(right) == b"query v tc"
        finally:
            left.close()
            right.close()

    def test_empty_and_binary_payloads(self):
        left, right = self._pair()
        try:
            write_frame(left, b"")
            payload = bytes(range(256))
            write_frame(left, payload)
            assert read_frame(right) == b""
            assert read_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_eof_at_boundary_is_none(self):
        left, right = self._pair()
        left.close()
        try:
            assert read_frame(right) is None
        finally:
            right.close()

    def test_eof_mid_frame_raises(self):
        left, right = self._pair()
        try:
            left.sendall(encode_frame(b"hello")[:6])  # header + 2 bytes
            left.close()
            with pytest.raises(FrameError):
                read_frame(right)
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = self._pair()
        try:
            write_frame(left, b"x" * 64)
            with pytest.raises(FrameError):
                read_frame(right, max_bytes=16)
        finally:
            left.close()
            right.close()

    def test_oversized_encode_rejected(self):
        with pytest.raises(FrameError):
            from repro.service.cluster.framing import MAX_FRAME_BYTES

            encode_frame(b"x" * (MAX_FRAME_BYTES + 1))


# ---------------------------------------------------------------------------
# consistent hashing
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_deterministic_across_instances(self):
        shards = [f"shard-{i}" for i in range(4)]
        ring_a, ring_b = HashRing(shards), HashRing(shards)
        for key in (f"view{i}" for i in range(50)):
            assert ring_a.assign(key) == ring_b.assign(key)

    def test_removal_only_moves_the_removed_shards_keys(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        keys = [f"view{i}" for i in range(200)]
        before = {key: ring.assign(key) for key in keys}
        smaller = ring.without_shard("shard-2")
        for key in keys:
            if before[key] != "shard-2":
                assert smaller.assign(key) == before[key]
            else:
                assert smaller.assign(key) != "shard-2"

    def test_addition_only_steals_keys_for_the_new_shard(self):
        ring = HashRing(["shard-0", "shard-1"])
        keys = [f"view{i}" for i in range(200)]
        before = {key: ring.assign(key) for key in keys}
        bigger = ring.with_shard("shard-2")
        for key in keys:
            assert bigger.assign(key) in (before[key], "shard-2")

    def test_all_shards_receive_keys(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        owners = {ring.assign(f"view{i}") for i in range(400)}
        assert owners == set(ring.shards)

    def test_empty_ring_rejects_assign(self):
        with pytest.raises(ValueError):
            HashRing([]).assign("view")


# ---------------------------------------------------------------------------
# the router's view records key facts by value (drain/respawn replay identity)
# ---------------------------------------------------------------------------


def _keys(*texts):
    """The keys a view record files ``texts`` under, inserted in turn."""
    record = ViewRecord("stratified", "")
    for text in texts:
        record.record_insert(text)
    return record.added


class TestFactKeys:
    def test_whitespace_and_trailing_dot_insensitive(self):
        spellings = ["edge(a, b)", "edge(a,b)", "edge( a , b ).", "edge(a, b)."]
        assert _keys(*spellings) == {"edge(a, b)": "edge(a, b)"}

    def test_one_value_is_one_key(self):
        assert _keys("q(1)", "q(01)", "q( 1 ).") == {"q(1)": "q(1)"}
        assert _keys("q(-0)", "q(0)") == {"q(0)": "q(0)"}
        assert _keys("q([a,1])", "q([ a , 01 ])") == {"q([a, 1])": "q([a, 1])"}

    def test_single_quoted_strings_keep_interior_spaces(self):
        # The grammar's strings are single-quoted: the space inside is
        # part of the value, the ones around it are not.
        assert _keys("edge('new york', b)", "edge( 'new york' ,b ).") == {
            "edge('new york', b)": "edge('new york', b)"
        }
        assert len(_keys("edge('new york', b)", "edge('newyork', b)")) == 2
        # An escaped quote does not end the string.
        assert list(_keys(r"e('it\'s  here', 'a\\', b)")) == [
            r"e('it\'s  here', 'a\\', b)"
        ]

    def test_a_delete_cancels_any_spelling_of_the_fact(self):
        record = ViewRecord("stratified", "")
        assert record.record_insert("e(1, 'x') @ 3") == "e(1, 'x') @ 3"
        assert record.record_delete("e(01,'x').") == "e(1, 'x')"
        assert (record.added, record.removed) == ({}, {"e(1, 'x')"})


# ---------------------------------------------------------------------------
# metrics rollup rules (pure)
# ---------------------------------------------------------------------------


def _shard_snapshot(inserts, views_registered, phase_count=1):
    return {
        "counters": {"requests_total": inserts + 1, "errors_total": 0},
        "rollup": {"inserts_applied": inserts, "queries": 2},
        "retired": {"queries": 1},
        "views": {},
        "gauges": {
            "views_registered": views_registered,
            "stale_views": 0,
            "inflight_requests": 1,
        },
        "phase_histograms": {
            "apply": {
                "count": phase_count,
                "sum": 0.5,
                "buckets": {"le_0.5": phase_count, "le_inf": 0},
            }
        },
        "locks": {},
        "cache": {"size": 0},
    }


class TestRollup:
    def test_counters_summed_gauges_labeled(self):
        aggregate = rollup_metrics(
            {"shard-0": _shard_snapshot(3, 2), "shard-1": _shard_snapshot(5, 1)},
        )
        assert aggregate["rollup"]["inserts_applied"] == 8
        assert aggregate["counters"]["requests_total"] == 10
        assert aggregate["retired"]["queries"] == 2
        assert aggregate["gauges"]["views_registered"] == 3
        assert set(aggregate["gauges"]["per_shard"]) == {"shard-0", "shard-1"}
        # Histograms merge bucket-wise.
        merged = aggregate["phase_histograms"]["apply"]
        assert merged["count"] == 2
        assert merged["buckets"]["le_0.5"] == 2

    def test_router_retired_keeps_rollup_monotone(self):
        live = rollup_metrics(
            {"shard-0": _shard_snapshot(3, 1), "shard-1": _shard_snapshot(5, 1)}
        )
        # shard-1 dies; its last-reported counters move into retired.
        after = rollup_metrics(
            {"shard-0": _shard_snapshot(3, 1)},
            router_retired={"inserts_applied": 5, "queries": 2},
            drained={"shard-1": "drained"},
        )
        assert (
            after["rollup"]["inserts_applied"]
            >= live["rollup"]["inserts_applied"]
        )
        assert after["drained"] == {"shard-1": "drained"}


# ---------------------------------------------------------------------------
# end-to-end: a real 2-shard cluster
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def running_cluster():
    """One 2-shard cluster shared by the read/write-path tests.

    Tests using this fixture must use distinct view names and must not
    drain or kill shards (the failure suite spins its own clusters).
    """
    directory = tempfile.mkdtemp(prefix="repro-clu-")
    socket_path = os.path.join(directory, "fd")
    with cluster(socket_path, shards=2, heartbeat_interval=0.5) as router:
        yield router, socket_path
    shutil.rmtree(directory, ignore_errors=True)


def _client(socket_path):
    return ClusterClient(socket_path, timeout=60.0)


class TestClusterEndToEnd:
    def test_register_update_query_roundtrip(self, running_cluster):
        router, socket_path = running_cluster
        with _client(socket_path) as client:
            info = client.register("e2e_tc", TC)
            assert info["name"] == "e2e_tc"
            client.insert("e2e_tc", "edge(a, b)")
            client.insert("e2e_tc", "edge(b, c)")
            client.delete("e2e_tc", "edge(b, c)")
            client.insert("e2e_tc", "edge(b, d)")
            rows, undefined = client.query("e2e_tc", "tc")
            assert sorted(rows) == ["tc(a, b)", "tc(a, d)", "tc(b, d)"]
            assert undefined == []
            assert "e2e_tc" in client.views()
            # The routing table published the assignment.
            assert router.routing_table()["e2e_tc"] in (
                "shard-0",
                "shard-1",
            )

    def test_bound_pattern_query_routes_to_home_shard(self, running_cluster):
        _router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register("e2e_demand", TC)
            client.insert("e2e_demand", "edge(a, b)")
            client.insert("e2e_demand", "edge(b, c)")
            rows, undefined = client.query_pattern("e2e_demand", "tc(a, _)")
            assert sorted(rows) == ["tc(a, b)", "tc(a, c)"]
            assert undefined == []
            # New constant, same pattern: the shape's index, carried.
            rows, _ = client.query_pattern("e2e_demand", "tc(b, _)")
            assert rows == ["tc(b, c)"]

    def test_five_thousand_row_reply_arrives_intact(self, running_cluster):
        # worker -> router -> framed client: one worker send, one router
        # deadline, one response frame, however many lines.
        _router, socket_path = running_cluster
        chain = " ".join(f"edge(n{i:03}, n{i + 1:03})." for i in range(100))
        expected = [
            f"tc(n{i:03}, n{j:03})"
            for i in range(100)
            for j in range(i + 1, 101)
        ]
        with _client(socket_path) as client:
            client.register("e2e_big", f"{TC} {chain}")
            for _ in range(2):  # cold, then from the snapshot's memo
                rows, undefined = client.query("e2e_big", "tc")
                assert len(rows) == 5050
                assert rows == expected, "sorted, complete, nothing torn"
                assert undefined == []
            client.insert("e2e_big", "edge(n100, n101)")
            rows, _ = client.query("e2e_big", "tc")
            assert len(rows) == 5050 + 101

    def test_views_spread_across_shards(self, running_cluster):
        router, socket_path = running_cluster
        with _client(socket_path) as client:
            for index in range(8):
                client.register(f"spread{index}", TC)
        owners = {
            router.routing_table()[f"spread{index}"] for index in range(8)
        }
        assert owners == {"shard-0", "shard-1"}

    def test_pipelined_requests_reply_in_order(self, running_cluster):
        _router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register("pipe_tc", TC)
            lines = [f"+pipe_tc edge(n{i}, n{i + 1})" for i in range(6)]
            lines.append("query pipe_tc edge")
            replies = client.pipeline(lines)
            # Six acks, in order, then the query observing all six.
            for reply in replies[:-1]:
                assert reply[-1].startswith("ok ")
            rows = [r for r in replies[-1] if r.startswith("row ")]
            assert len(rows) == 6

    def test_metrics_rollup_sums_counters_and_labels_shards(
        self, running_cluster
    ):
        _router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register("roll_a", TC)
            client.register("roll_b", TC)
            before = client.metrics()["rollup"].get("inserts_applied", 0)
            client.insert("roll_a", "edge(x, y)")
            client.insert("roll_b", "edge(x, y)")
            after = client.metrics()
            assert after["rollup"]["inserts_applied"] >= before + 2
            assert sorted(after["shards"]) == ["shard-0", "shard-1"]
            assert set(after["gauges"]["per_shard"]) == {
                "shard-0",
                "shard-1",
            }
            assert after["router"]["counters"]["requests_total"] > 0

    def test_alternation_levels_gauge_in_the_cluster_rollup(
        self, running_cluster
    ):
        router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register(
                "roll_win",
                "win(X) :- move(X, Y), not win(Y). move(a, b). move(b, a).",
                semantics="valid",
            )
            client.insert("roll_win", "move(b, c)")
            rows, undefined = client.query("roll_win", "win")
            assert (rows, undefined) == (["win(b)"], [])
            owner = router.routing_table()["roll_win"]
            gauges = client.metrics()["gauges"]["per_shard"][owner]
            assert gauges["alternation_levels"]["roll_win"] >= 2
            text = client.metrics_prometheus()
        assert "repro_alternation_levels{" in text
        assert "@prev" not in text

    def test_cluster_prometheus_export(self, running_cluster):
        _router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register("prom_tc", TC)
            client.insert("prom_tc", "edge(a, b)")
            text = client.metrics_prometheus()
        assert "# TYPE repro_inserts_applied_total counter" in text
        assert 'shard="shard-' in text

    def test_register_keeps_the_spaces_inside_a_quoted_string(
        self, running_cluster
    ):
        _router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register("quoted_one", "label('two  words').")
            client.register(
                "quoted_many",
                "% a comment\nlabel('two  words').\nshown(X) :- label(X).\n",
            )
            assert client.query("quoted_one", "label")[0] == ["label('two  words')"]
            assert client.query("quoted_many", "shown")[0] == ["shown('two  words')"]

    def test_register_replace_routes_to_same_shard(self, running_cluster):
        router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register("replace_me", TC)
            first = router.routing_table()["replace_me"]
            client.insert("replace_me", "edge(a, b)")
            client.register(
                "replace_me", "p(X) :- q(X).", semantics="stratified"
            )
            assert router.routing_table()["replace_me"] == first
            # The replacement's empty database won: the old facts died.
            rows, _ = client.query("replace_me", "p")
            assert rows == []

    def test_unregister_removes_route(self, running_cluster):
        router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register("ephemeral", TC)
            assert "ephemeral" in router.routing_table()
            client.unregister("ephemeral")
            assert "ephemeral" not in router.routing_table()
            with pytest.raises(ClusterReplyError):
                client.query("ephemeral", "tc")

    def test_unknown_view_is_wire_coded_error(self, running_cluster):
        _router, socket_path = running_cluster
        with _client(socket_path) as client:
            reply = client.request("query no_such_view tc")
            assert reply[-1].startswith("error")

    def test_stats_fan_out(self, running_cluster):
        _router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.register("stats_tc", TC)
            shards = client.stats()["shards"]
            assert set(shards) == {"shard-0", "shard-1"}

    def test_embedded_newline_rejected(self, running_cluster):
        _router, socket_path = running_cluster
        with _client(socket_path) as client:
            client.send("query a\nquery b")
            reply = client.receive()
            assert reply[-1].startswith("error")

    def test_concurrent_clients_multi_view_updates(self, running_cluster):
        """Parallel writers on different shards all get acked and land."""
        _router, socket_path = running_cluster
        views = [f"par{i}" for i in range(4)]
        with _client(socket_path) as client:
            for view in views:
                client.register(view, TC)
        errors = []

        def writer(view):
            try:
                with _client(socket_path) as mine:
                    for tick in range(10):
                        mine.insert(view, f"edge(t{tick}, t{tick + 1})")
            except Exception as exc:  # pragma: no cover - debug aid
                errors.append((view, exc))

        threads = [
            threading.Thread(target=writer, args=(view,)) for view in views
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        with _client(socket_path) as client:
            for view in views:
                rows, _ = client.query(view, "tc")
                assert "tc(t0, t10)" in rows  # the full chain closed


# ---------------------------------------------------------------------------
# a program registered from a file
# ---------------------------------------------------------------------------

PROGRAM_FILE = """\
% transitive closure, read from a file
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).  label('two words').
"""


class TestRegisterFromAFile:
    def test_a_drain_replays_the_program_not_the_path(self):
        """The router reads the file once, at registration: drains
        after the file is deleted, and after it is rewritten, replay
        the program it held."""
        directory = tempfile.mkdtemp(prefix="repro-cluf-")
        program = os.path.join(directory, "tc.dl")
        with open(program, "w") as handle:
            handle.write(PROGRAM_FILE)
        try:
            with cluster(os.path.join(directory, "fd"), shards=3) as router:
                with _client(os.path.join(directory, "fd")) as client:
                    client.register("v", program)
                    client.insert("v", "edge(b, c)")
                    rows = client.query("v", "tc")
                    assert rows == (["tc(a, b)", "tc(a, c)", "tc(b, c)"], [])
                    os.remove(program)
                    client.drain(router.routing_table()["v"])
                    assert client.query("v", "tc") == rows
                    with open(program, "w") as handle:
                        handle.write("tc(X, Y) :- edge(Y, X).\n")
                    client.drain(router.routing_table()["v"])
                    assert client.query("v", "tc") == rows
                    assert client.query("v", "label") == (
                        ["label('two words')"],
                        [],
                    )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def test_a_bad_program_file_gets_the_error_serve_gives(self, tmp_path):
        """A syntax error on the file's third line is reported at line
        3 by the router too, though the router forwards one line."""
        import asyncio

        from repro.service import QueryService
        from repro.service.cluster.router import ClusterRouter
        from repro.service.server import _handle_line

        program = tmp_path / "bad.dl"
        program.write_text("p(a).\n% a comment\nq(X) :- p(X) r(X).\n")
        line = f"register v stratified {program}"
        served = _handle_line(QueryService(), line)
        assert served[0].startswith("error ParseError: line 3, column 14: ")
        router = ClusterRouter(str(tmp_path / "fd"), shards=1)
        assert asyncio.run(router._dispatch(line)) == served
