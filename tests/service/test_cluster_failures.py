"""Router failure paths: crashes, drains, respawn — never a hang.

Every test here spins its own small cluster (these tests kill or drain
shards, so they cannot share topology).  Anti-hang protection is the
framed client's socket timeout — a hang surfaces as ``socket.timeout``
and fails the test — so the suite needs no external timeout plugin.

The acceptance invariants from the sharding issue live here:

* a worker crash mid-request returns a wire-coded structured error
  (``worker-unavailable``) to the client, never a hang;
* killing a worker under load never loses an acked update on the
  surviving shards, and the crashed shard's acked updates reappear
  after respawn-with-replay;
* drain re-routes the drained shard's views onto survivors with no
  acked update lost, a second drain of the same shard is rejected
  cleanly, and rolled-up counters stay monotone across the drain.
"""

import asyncio
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from unittest import mock

import pytest

from repro.robustness import ClusterError, WorkerUnavailable
from repro.service.cluster import ClusterClient, ClusterReplyError, cluster
from repro.service.cluster.router import ClusterRouter, ViewRecord, WorkerHandle

TC = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- edge(X, Y), tc(Y, Z)."

CLIENT_TIMEOUT = 60.0


@pytest.fixture
def fresh_cluster():
    directory = tempfile.mkdtemp(prefix="repro-cluf-")
    socket_path = os.path.join(directory, "fd")
    with cluster(
        socket_path, shards=2, heartbeat_interval=0.2
    ) as router:
        yield router, socket_path
    shutil.rmtree(directory, ignore_errors=True)


def _client(socket_path):
    return ClusterClient(socket_path, timeout=CLIENT_TIMEOUT)


def _views_on_both_shards(client, router, prefix):
    """Register views until both shards own at least one; return a
    ``{shard_id: view_name}`` pick per shard."""
    picks = {}
    for index in range(32):
        name = f"{prefix}{index}"
        client.register(name, TC)
        picks.setdefault(router.routing_table()[name], name)
        if len(picks) == 2:
            return picks
    raise AssertionError("consistent hash never hit both shards")


def _kill_worker(router, shard_id):
    process = router._workers[shard_id].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)


def _await_respawn(router, shard_id, incarnation, deadline=30.0):
    """Block until the shard's next incarnation has replayed its views
    and serves (its ``ready`` gate is open again)."""
    handle = router._workers[shard_id]

    async def respawned():
        if handle.incarnation == incarnation:
            await handle.dead.wait()  # ``ready`` is cleared before this
        await handle.ready.wait()

    loop = router._server.get_loop()
    asyncio.run_coroutine_threadsafe(respawned(), loop).result(deadline)
    assert handle.incarnation > incarnation and handle.live


class TestCrash:
    def test_crash_returns_wire_coded_error_not_hang(self):
        # A slow heartbeat makes the test deterministic: nothing
        # notices the kill until *our* request hits the dead worker, so
        # that request must surface the structured error.  (The failing
        # call itself wakes the supervisor, so respawn is still fast.)
        directory = tempfile.mkdtemp(prefix="repro-cluf-")
        socket_path = os.path.join(directory, "fd")
        try:
            with cluster(
                socket_path, shards=2, heartbeat_interval=30.0
            ) as router:
                self._check_crash_error_then_recovery(router, socket_path)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _check_crash_error_then_recovery(self, router, socket_path):
        with _client(socket_path) as client:
            picks = _views_on_both_shards(client, router, "crash")
            victim_shard, victim_view = next(iter(picks.items()))
            client.insert(victim_view, "edge(a, b)")
            incarnation = router._workers[victim_shard].incarnation
            _kill_worker(router, victim_shard)
            # The next request to the dead shard fails fast with the
            # structured wire code, not a hang, not a raw disconnect.
            with pytest.raises(ClusterReplyError) as excinfo:
                client.query(victim_view, "tc")
            assert excinfo.value.code == "worker-unavailable"
            # Supervision respawns the worker and replays its views:
            # the acked insert is queryable again.
            _await_respawn(router, victim_shard, incarnation)
            rows, _ = client.query(victim_view, "tc")
            assert rows == ["tc(a, b)"]

    def test_crash_under_load_loses_no_acked_update(self, fresh_cluster):
        """Writers hammer both shards; one worker dies mid-stream.

        Every insert the cluster *acked* must be queryable afterwards —
        on the surviving shard trivially, on the crashed shard via
        respawn-with-replay — and no client may hang (socket timeouts
        would fail the test)."""
        router, socket_path = fresh_cluster
        with _client(socket_path) as setup:
            picks = _views_on_both_shards(setup, router, "load")
        (victim_shard, victim_view), (_, survivor_view) = sorted(
            picks.items()
        )
        acked = {victim_view: [], survivor_view: []}
        acks = threading.Condition()
        unexpected = []
        stop = threading.Event()

        def writer(view):
            try:
                with _client(socket_path) as mine:
                    tick = 0
                    while not stop.is_set():
                        fact = f"edge(k{tick}, v{tick})"
                        tick += 1
                        try:
                            mine.insert(view, fact)
                        except ClusterReplyError:
                            continue  # unacked: allowed to be lost
                        with acks:
                            acked[view].append(fact)
                            acks.notify_all()
            except (socket.timeout, ConnectionError, OSError) as exc:
                # A transport drop mid-reply is fine (the write was not
                # acked); a *timeout* means a hang — record it.
                if isinstance(exc, socket.timeout):
                    unexpected.append(("hang", view, exc))

        threads = [
            threading.Thread(target=writer, args=(view,))
            for view in (victim_view, survivor_view)
        ]
        def await_acks(more, moment):
            """Block until both views gain ``more`` acks (fail loudly)."""
            with acks:
                wanted = {view: len(facts) + more for view, facts in acked.items()}
                if not acks.wait_for(
                    lambda: all(len(acked[v]) >= n for v, n in wanted.items()),
                    timeout=CLIENT_TIMEOUT,
                ):
                    counts = {view: len(facts) for view, facts in acked.items()}
                    raise AssertionError(
                        f"writers stalled {moment}: acks {counts}, wanted {wanted}"
                    )

        incarnation = router._workers[victim_shard].incarnation
        for thread in threads:
            thread.start()
        try:
            await_acks(20, "before the kill")
            _kill_worker(router, victim_shard)
            # The crashed shard acks again only once it has respawned.
            await_acks(20, "after the kill")
        finally:
            stop.set()
        for thread in threads:
            thread.join(timeout=CLIENT_TIMEOUT + 30)
            assert not thread.is_alive(), "writer hung"
        assert not unexpected, unexpected
        _await_respawn(router, victim_shard, incarnation)

        with _client(socket_path) as check:
            for view, facts in acked.items():
                rows, _ = check.query(view, "edge")
                present = set(rows)
                missing = [
                    fact for fact in facts if fact not in present
                ]
                assert not missing, (view, missing[:5], len(missing))
        # Load actually exercised both shards.
        assert acked[survivor_view] and acked[victim_view]


class TestDrain:
    def test_drain_reroutes_views_and_keeps_answers(self, fresh_cluster):
        router, socket_path = fresh_cluster
        with _client(socket_path) as client:
            picks = _views_on_both_shards(client, router, "drain")
            (drained_shard, moved_view), (survivor_shard, kept_view) = (
                sorted(picks.items())
            )
            client.insert(moved_view, "edge(a, b)")
            client.insert(moved_view, "edge(b, c)")
            client.delete(moved_view, "edge(b, c)")
            client.insert(kept_view, "edge(p, q)")
            report = client.drain(drained_shard)
            assert report["shard"] == drained_shard
            # Every view now routes to the survivor...
            table = router.routing_table()
            assert set(table.values()) == {survivor_shard}
            assert table[moved_view] == survivor_shard
            # ...and the moved view's acked state survived the hop,
            # including the delete (replay is the *net* delta).
            rows, _ = client.query(moved_view, "tc")
            assert rows == ["tc(a, b)"]
            rows, _ = client.query(kept_view, "tc")
            assert rows == ["tc(p, q)"]
            # New registrations avoid the drained shard.
            client.register("post_drain", TC)
            assert router.routing_table()["post_drain"] == survivor_shard

    def test_drain_replays_quoted_strings_as_acked(self, fresh_cluster):
        # The router replays the moved view's facts from its own record
        # of them: a string's interior space must survive the hop.
        router, socket_path = fresh_cluster
        with _client(socket_path) as client:
            picks = _views_on_both_shards(client, router, "quoted")
            drained_shard, moved_view = sorted(picks.items())[0]
            client.insert(moved_view, "edge('new york', b)")
            client.insert(moved_view, "edge(b, 'a  b')")
            before, _ = client.query(moved_view, "tc")
            client.drain(drained_shard)
            assert router.routing_table()[moved_view] != drained_shard
            rows, _ = client.query(moved_view, "tc")
            assert rows == before
            assert "tc('new york', 'a  b')" in rows

    def test_drain_keeps_a_fact_deleted_under_another_spelling(self, fresh_cluster):
        # The router keys its record of a view by value: ``01`` is the
        # integer 1, so the delete cancels the insert and the fact does
        # not come back when the view is replayed onto the survivor.
        router, socket_path = fresh_cluster
        with _client(socket_path) as client:
            picks = _views_on_both_shards(client, router, "spelled")
            drained_shard, moved_view = sorted(picks.items())[0]
            client.insert(moved_view, "edge(1, 2)")
            client.delete(moved_view, "edge(01, 2)")
            assert client.query(moved_view, "tc")[0] == []
            client.drain(drained_shard)
            assert router.routing_table()[moved_view] != drained_shard
            assert client.query(moved_view, "tc")[0] == []

    def test_double_drain_rejected_cleanly(self, fresh_cluster):
        _router, socket_path = fresh_cluster
        with _client(socket_path) as client:
            client.register("dd", TC)
            client.drain("shard-0")
            with pytest.raises(ClusterReplyError) as excinfo:
                client.drain("shard-0")
            assert excinfo.value.code == "cluster-error"
            # The cluster still serves after the rejected drain.
            rows, _ = client.query("dd", "tc")
            assert rows == []

    def test_drain_unknown_and_last_shard_rejected(self, fresh_cluster):
        _router, socket_path = fresh_cluster
        with _client(socket_path) as client:
            with pytest.raises(ClusterReplyError):
                client.drain("shard-99")
            client.drain("shard-1")
            # Draining the last shard would strand every view.
            with pytest.raises(ClusterReplyError) as excinfo:
                client.drain("shard-0")
            assert excinfo.value.code == "cluster-error"

    def test_rollup_monotone_across_drain_and_respawn(self, fresh_cluster):
        """The metamorphic acceptance check: rolled-up monotone counters
        never decrease across updates, a drain, a crash, and a respawn."""
        router, socket_path = fresh_cluster
        watched = (
            "inserts_applied",  # per-view rollup section
            "queries",
            "registrations",  # service-level counters section
            "requests_total",
        )

        def rollup(client):
            aggregate = client.metrics()
            merged = dict(aggregate["counters"])
            merged.update(aggregate["rollup"])
            return {name: merged.get(name, 0) for name in watched}

        with _client(socket_path) as client:
            picks = _views_on_both_shards(client, router, "mono")
            (drained_shard, moved_view), (_, kept_view) = sorted(
                picks.items()
            )
            series = [rollup(client)]
            for tick in range(5):
                client.insert(moved_view, f"edge(a{tick}, b{tick})")
                client.insert(kept_view, f"edge(a{tick}, b{tick})")
            client.query(moved_view, "tc")
            series.append(rollup(client))
            client.drain(drained_shard)
            series.append(rollup(client))  # drained counters retired
            client.query(moved_view, "tc")
            series.append(rollup(client))
            for before, after in zip(series, series[1:]):
                for name in watched:
                    assert after[name] >= before[name], (
                        name,
                        series,
                    )
            # The drained shard's work is preserved in the aggregate:
            # at least the 10 inserts and the registrations show up.
            assert series[-1]["inserts_applied"] >= 10

    def test_rollup_monotone_across_crash(self, fresh_cluster):
        router, socket_path = fresh_cluster
        watched = ("inserts_applied",)
        with _client(socket_path) as client:
            picks = _views_on_both_shards(client, router, "cmono")
            victim_shard, victim_view = sorted(picks.items())[0]
            for tick in range(4):
                client.insert(victim_view, f"edge(c{tick}, d{tick})")
            before = client.metrics()["rollup"]
            incarnation = router._workers[victim_shard].incarnation
            _kill_worker(router, victim_shard)
            _await_respawn(router, victim_shard, incarnation)
            after = client.metrics()["rollup"]
            for name in watched:
                assert after.get(name, 0) >= before.get(name, 0), (
                    name,
                    before,
                    after,
                )


# ---------------------------------------------------------------------------
# router internals: the contracts the end-to-end suites race past
# ---------------------------------------------------------------------------


class TestRouterInternals:
    """Asyncio-level regression tests against fabricated topology.

    No worker processes are spawned; the tests pin down the ready-gate,
    drain-rollback, and inflight-accounting contracts directly, where
    the end-to-end suites can only hit them on a lucky interleaving.
    """

    @staticmethod
    def _run(scenario):
        directory = tempfile.mkdtemp(prefix="repro-cluri-")
        try:
            asyncio.run(scenario(os.path.join(directory, "fd")))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def test_route_mid_replay_parks_then_times_out_cleanly(self):
        # Regression: ClusterRouter never assigned self.request_timeout,
        # so routing to a live-but-not-ready shard (respawn replay in
        # progress) raised AttributeError instead of parking on the
        # ready gate — breaking the documented guarantee that requests
        # wait out the replay.
        async def scenario(socket_path):
            router = ClusterRouter(
                socket_path, shards=2, request_timeout=0.2
            )
            assert router.request_timeout == 0.2
            handle = router._workers["shard-0"]
            handle.live = True  # fresh incarnation accepts calls...
            assert not handle.ready.is_set()  # ...but is mid-replay
            router._routes.set({"v": "shard-0"})
            with pytest.raises(WorkerUnavailable, match="replay"):
                await router._route("v")

        self._run(scenario)

    def test_route_resumes_once_replay_finishes(self):
        async def scenario(socket_path):
            router = ClusterRouter(
                socket_path, shards=2, request_timeout=5.0
            )
            handle = router._workers["shard-0"]
            handle.live = True
            router._routes.set({"v": "shard-0"})

            async def finish_replay():
                await asyncio.sleep(0.02)
                handle.ready.set()

            task = asyncio.get_running_loop().create_task(finish_replay())
            assert await router._route("v") is handle
            await task

        self._run(scenario)

    def test_drain_rollback_on_replay_failure(self):
        # Regression: a replay failure mid-drain used to leave the ring
        # shrunk, handle.draining stuck True, and the shard wedged —
        # undrainable ("already drained"), unrespawnable, and excluded
        # from fan-outs while still owning routed views.
        async def scenario(socket_path):
            router = ClusterRouter(
                socket_path, shards=2, request_timeout=0.5
            )

            async def fake_call(line, timeout=None):
                return ["ok {}"]

            for handle in router._workers.values():
                handle.live = True
                handle.ready.set()
                handle.call = fake_call
            router._records["v"] = ViewRecord("stratified", "p(X):-q(X).")
            router._routes.set({"v": "shard-0"})

            async def failing_replay(name, target):
                raise ClusterError("survivor rejected the replay")

            router._replay_view = failing_replay
            with pytest.raises(ClusterError, match="survivor rejected"):
                await router.drain("shard-0")

            handle = router._workers["shard-0"]
            assert "shard-0" in router._ring  # back on the ring
            assert not handle.draining  # routable and supervisable again
            assert router.routing_table() == {"v": "shard-0"}
            assert "shard-0" not in router._drained
            assert not router._draining  # no waiter left parked
            assert router.counters["drains"] == 0
            assert await router._route("v") is handle
            # A retried drain is a fresh attempt, not "already drained".
            with pytest.raises(ClusterError) as excinfo:
                await router.drain("shard-0")
            assert "already drained" not in str(excinfo.value)

        self._run(scenario)

    def test_replay_fails_when_the_worker_refuses_a_fact(self):
        # Regression: _replay_view checked the register reply only, so
        # an ``error ...`` to a replayed fact (budget, deadline) left
        # the fresh worker's view silently short of facts the router
        # believed it held.  Respawn and drain treat ClusterError as a
        # failed replay.
        async def scenario(socket_path):
            router = ClusterRouter(socket_path, shards=1)
            handle = router._workers["shard-0"]
            sent = []

            async def refusing_call(line, timeout=None):
                sent.append(line)
                if line == "+v q(b)":
                    return ["error deadline-exceeded DeadlineExceeded: too slow"]
                return ["ok {}"]

            handle.call = refusing_call
            record = ViewRecord("stratified", "p(X):-q(X). q(z).")
            record.record_delete("q(z)")
            for fact in ("q(a)", "q(b)", "q(c)"):
                record.record_insert(fact)
            router._records["v"] = record
            with pytest.raises(ClusterError, match="deadline-exceeded"):
                await router._replay_view("v", handle)
            # Stopped at the refusal, in the documented order.
            assert sent == [
                "register v stratified p(X):-q(X). q(z).",
                "-v q(z)",
                "+v q(a)",
                "+v q(b)",
            ]
            # A worker that accepts everything still replays cleanly.
            del sent[:]
            record.record_delete("q(b)")
            await router._replay_view("v", handle)
            assert sent[-1] == "+v q(c)"

        self._run(scenario)

    def test_replay_rebuilds_the_last_acked_annotation_of_each_fact(self):
        # Regression: the record keyed facts by their whole text, so
        # ``-v e(a,b)`` did not cancel an acked ``+v e(a,b) @ 3`` (the
        # deleted fact came back on replay), and ``@ 10``, ``@ 5``,
        # ``@ 10`` replayed in sorted order, ending at 5.
        async def scenario(socket_path):
            router = ClusterRouter(socket_path, shards=1)
            handle = router._workers["shard-0"]
            handle.live = True
            handle.ready.set()
            sent = []

            async def recording_submit(line, done, timeout=None):
                sent.append(line)
                done(b"ok {}")

            handle.submit = recording_submit  # under call() too
            journal = []
            router._journal = journal.append
            source = "t(X, Y) :- e(X, Y)."
            router._records["v"] = ViewRecord("stratified", source)
            router._routes.set({"v": "shard-0"})
            lines = [
                "+v e(a, b) @ 3",
                "-v e(a, b)",
                "+v e(b, c) @ 10",
                "+v e(b, c) @ 5",
                "+v e(b, c) @ 10",
                "+v e(c, d) @ 2",
                "+v e(c, d)",
            ]
            for line in lines:
                await router._dispatch(line)
            del sent[:]
            await router._replay_view("v", handle)
            assert sent == [
                f"register v stratified {source}",
                "-v e(a, b)",
                "+v e(b, c) @ 10",
                "+v e(c, d) @ 2",
            ]
            # A cold restart rebuilds the same record from the journal.
            restarted = ClusterRouter(socket_path, shards=1)
            restarted._records["v"] = ViewRecord("stratified", source)
            assert len(journal) == len(lines)
            for operation in journal:
                restarted._apply_journal_record(operation)
            record, rebuilt = router._records["v"], restarted._records["v"]
            assert (rebuilt.added, rebuilt.removed) == (
                record.added,
                record.removed,
            )

        self._run(scenario)

    def test_stop_stops_every_worker_at_once(self):
        # stop_process can block for its join timeout; one worker at a
        # time, a cluster's shutdown took the sum of those waits.  Every
        # fake stop waits at a barrier that only the last one through
        # can open, so a sequential stop breaks it.
        async def scenario(socket_path):
            router = ClusterRouter(socket_path, shards=3)
            barrier = threading.Barrier(3, timeout=5)
            events = []

            class FakeHandle:
                def __init__(self, shard_id):
                    self.shard_id = shard_id

                def stop_process(self):
                    events.append(("start", self.shard_id))
                    barrier.wait()
                    events.append(("return", self.shard_id))

            router._workers = {shard: FakeHandle(shard) for shard in router._workers}
            await router.stop()
            assert [kind for kind, _ in events] == ["start"] * 3 + ["return"] * 3
            assert {shard for _, shard in events} == set(router._workers)

        self._run(scenario)

    def test_inflight_counts_requests_parked_on_the_slot_semaphore(self):
        # Regression: inflight was incremented only after acquiring the
        # concurrency slot, so drain's in-flight flush could miss a
        # parked request and replay its view onto a survivor before
        # the request's acked update landed on the old worker.
        async def scenario(socket_path):
            handle = WorkerHandle("shard-x", socket_path, max_concurrent=1)
            handle.live = True
            await handle._slots.acquire()  # occupy the only slot
            task = asyncio.get_running_loop().create_task(
                handle.call("views")
            )
            for _ in range(5):
                await asyncio.sleep(0)
            assert handle.inflight == 1  # the parked request is visible
            assert not handle.idle.is_set()  # a drain would wait for it
            handle._slots.release()
            with pytest.raises(WorkerUnavailable):  # no socket behind it
                await task
            assert handle.inflight == 0
            assert handle.idle.is_set()

        self._run(scenario)

    def test_a_drain_replays_only_after_the_in_flight_write_lands(self):
        # The drain's flush waits on the handle's ``idle`` event: the
        # moved view is replayed, from a record that holds the write,
        # only once the write in flight to the old worker has its ack.
        async def scenario(socket_path):
            router = ClusterRouter(socket_path, shards=2)
            old, survivor = router._workers["shard-0"], router._workers["shard-1"]
            release = asyncio.Event()

            async def slow_worker(reader, writer):
                # Holds a write until released; answers anything else
                # (the drain's ``metrics``) at once.
                while line := await reader.readline():
                    if line.startswith(b"+"):
                        await release.wait()
                    writer.write(b"ok {}\n")
                    await writer.drain()
                writer.close()

            server = await asyncio.start_unix_server(slow_worker, old.socket_path)
            replayed = []

            async def record(line, timeout=None):
                replayed.append(line)
                return ["ok {}"]

            survivor.call = record
            for handle in (old, survivor):
                handle.live = True
                handle.ready.set()
            router._records["v"] = ViewRecord("stratified", "p(X) :- q(X).")
            router._routes.set({"v": "shard-0"})
            try:
                write = asyncio.create_task(router._dispatch("+v q(a)"))
                await asyncio.sleep(0)
                assert old.inflight == 1
                drain = asyncio.create_task(router.drain("shard-0"))
                for _ in range(20):
                    await asyncio.sleep(0)
                assert not drain.done() and not replayed
                release.set()
                assert (await write).decode().split("\n") == ["ok {}"]
                await drain
            finally:
                server.close()
                await server.wait_closed()
            assert replayed == [
                "register v stratified p(X) :- q(X).",
                "+v q(a)",
            ]
            assert router.routing_table() == {"v": "shard-1"}

        self._run(scenario)

    def test_one_deadline_covers_a_whole_worker_reply(self):
        # A worker that keeps dripping reply lines, each inside the
        # timeout, used to keep the router waiting for as long as it
        # dripped (the deadline was per line).  The deadline is for the
        # reply: the call fails, wire-coded, within the request timeout.
        async def scenario(socket_path):
            async def drip(reader, writer):
                await reader.readline()
                try:
                    for index in range(100):
                        writer.write(f"row tc(a, n{index})\n".encode())
                        await writer.drain()
                        await asyncio.sleep(0.1)
                    writer.write(b"ok 100 rows\n")
                    await writer.drain()
                except ConnectionError:
                    pass  # the router hung up, as it should
                finally:
                    writer.close()

            server = await asyncio.start_unix_server(drip, socket_path)
            handle = WorkerHandle("shard-x", socket_path)
            handle.live = True
            started = time.monotonic()
            try:
                with pytest.raises(WorkerUnavailable, match="TimeoutError"):
                    await handle.call("query v tc", timeout=0.5)
                assert time.monotonic() - started < 2.0
                assert not handle.live and handle.dead.is_set()
                assert handle.inflight == 0
            finally:
                server.close()
                await server.wait_closed()

        self._run(scenario)

    def test_a_short_deadline_holds_on_a_connection_a_long_one_used(self):
        # The supervisor's heartbeat (5 s) takes pooled connections that
        # forwards (60 s) used before it: a worker that stops answering
        # is found out within the heartbeat's own timeout.
        async def scenario(socket_path):
            async def hang_after_one(reader, writer):
                await reader.readline()
                writer.write(b"row tc(a, b)\nok 1 rows\n")
                await writer.drain()
                await reader.read()  # answers nothing more
                writer.close()

            server = await asyncio.start_unix_server(hang_after_one, socket_path)
            handle = WorkerHandle("shard-x", socket_path)
            handle.live = True
            try:
                await handle.call("query v tc", timeout=60.0)
                assert len(handle._pool) == 1
                started = time.monotonic()
                with pytest.raises(WorkerUnavailable, match="TimeoutError"):
                    await asyncio.wait_for(
                        handle.call("views", timeout=0.2), timeout=10.0
                    )
                assert time.monotonic() - started < 1.0
                assert not handle.live and handle.dead.is_set()
                assert handle.inflight == 0
            finally:
                handle._close_pool()
                server.close()
                await server.wait_closed()

        self._run(scenario)

    def test_a_reply_of_thousands_of_lines_arrives_intact(self):
        async def scenario(socket_path):
            lines = [f"row tc(a, n{index})" for index in range(5000)]
            lines.append("ok 5000 rows")

            async def reply(reader, writer):
                while await reader.readline():
                    writer.write(("\n".join(lines) + "\n").encode())
                    await writer.drain()
                writer.close()

            server = await asyncio.start_unix_server(reply, socket_path)
            handle = WorkerHandle("shard-x", socket_path)
            handle.live = True
            try:
                assert await handle.call("query v tc", timeout=30.0) == lines
                # The connection went back to the pool in one piece.
                assert await handle.call("query v tc", timeout=30.0) == lines
                assert len(handle._conns) == 1
            finally:
                handle._close_pool()
                server.close()
                await server.wait_closed()

        self._run(scenario)

    def test_an_old_bank_retires_only_declared_counters(self):
        # A control-plane checkpoint from before the demand counters
        # went may bank them; the aggregate must not bring them back.
        async def scenario(socket_path):
            router = ClusterRouter(socket_path, shards=2)
            router._retire({
                "counters": {"demand_hits": 4, "queries_total": 3},
                "rollup": {"queries": 2, "demand_hits": 4},
            })
            assert router._retired == {
                "counters": {"queries_total": 3},
                "rollup": {"queries": 2},
            }

        self._run(scenario)

    def test_a_forwarded_call_creates_no_task(self):
        # The reply deadline is one loop timer, not asyncio.wait_for,
        # which runs the read as a Task of its own before Python 3.12.
        async def scenario(socket_path):
            async def reply(reader, writer):
                while await reader.readline():
                    writer.write(b"row tc(a, b)\nok 1 rows\n")
                    await writer.drain()
                writer.close()

            server = await asyncio.start_unix_server(reply, socket_path)
            handle = WorkerHandle("shard-x", socket_path)
            handle.live = True
            loop = asyncio.get_running_loop()
            try:
                # The first call connects (the server starts a handler
                # task for the connection); the second reuses it.
                await handle.call("query v tc", timeout=30.0)
                with mock.patch.object(
                    loop, "create_task", wraps=loop.create_task
                ) as create_task:
                    replies = await handle.call("query v tc", timeout=30.0)
                assert replies == ["row tc(a, b)", "ok 1 rows"]
                assert create_task.call_count == 0
                assert len(handle._conns) == 1 and handle.live
            finally:
                handle._close_pool()
                server.close()
                await server.wait_closed()

        self._run(scenario)

    def test_a_reply_sent_one_byte_per_send_arrives_intact(self):
        # A read can end anywhere in a line, an ``ok`` included: only a
        # terminator line that has its newline ends the reply.
        async def scenario(socket_path):
            reply = b"row ok(a)\nrow tc(a, ok)\nok 2 rows\n"

            async def drip(reader, writer):
                while await reader.readline():
                    for index in range(len(reply)):
                        writer.write(reply[index : index + 1])
                        await writer.drain()
                        await asyncio.sleep(0)
                writer.close()

            server = await asyncio.start_unix_server(drip, socket_path)
            handle = WorkerHandle("shard-x", socket_path)
            handle.live = True
            try:
                assert await handle.request("query v tc") == reply[:-1]
                assert await handle.call("query v tc") == [
                    "row ok(a)", "row tc(a, ok)", "ok 2 rows",
                ]
                assert len(handle._conns) == 1 and handle.live
            finally:
                handle._close_pool()
                server.close()
                await server.wait_closed()

        self._run(scenario)

    def test_a_reply_that_is_not_utf8_marks_the_worker_dead(self):
        async def scenario(socket_path):
            async def garble(reader, writer):
                while await reader.readline():
                    writer.write(b"row tc(a, \xff)\nok 1 rows\n")
                    await writer.drain()
                writer.close()

            server = await asyncio.start_unix_server(garble, socket_path)
            handle = WorkerHandle("shard-x", socket_path)
            handle.live = True
            try:
                with pytest.raises(WorkerUnavailable, match="UnicodeDecodeError"):
                    await handle.call("query v tc", timeout=30.0)
                assert not handle.live and handle.dead.is_set()
                assert handle.inflight == 0 and not handle._conns
            finally:
                handle._close_pool()
                server.close()
                await server.wait_closed()

        self._run(scenario)
