"""The asyncio front door of the multi-process sharded serving tier.

Topology::

    client ──frames──▶ ClusterRouter (asyncio, one process)
                          │  consistent-hash routing table (COW)
                          ├──line protocol──▶ worker shard-0 (QueryService)
                          ├──line protocol──▶ worker shard-1 (QueryService)
                          └──line protocol──▶ worker shard-N (QueryService)

The router owns the cluster's control plane and nothing else — every
query, update, and registration is executed by exactly one worker's
:class:`~repro.service.server.QueryService`, each in its own process
with its own GIL, which buys true multi-core write parallelism (each
MaterializedView is already an independent lock domain).  Requests are
parsed by :mod:`repro.service.protocol`, the grammar ``serve`` uses;
the router only decides where each one goes:

* **forward** — views are consistent-hash-assigned to shards at
  ``register`` time (:mod:`.hashring`) and published in a copy-on-write
  ``view → shard`` table read with zero locks; ``query``, ``+``/``-``,
  ``stats <view>``, ``register`` and ``unregister`` go to the owning
  worker over a pooled line-protocol connection;
* **fan out** — ``metrics`` rolls every live shard's snapshot up
  (:func:`~repro.service.metrics.rollup_metrics`), ``stats`` and
  ``views``/``list`` merge theirs;
* **answer here** — ``drain <shard>`` and ``shards``.

Workers are spawned via :mod:`multiprocessing`, heartbeated, and
respawned on crash; a fresh worker is restored from the router's
**view records** (the registered program, a file's text on one line,
plus the net acked base-fact delta), so an acked update never silently
disappears.  ``drain <shard>`` stops routing to the shard, flushes its
in-flight requests, absorbs its final metrics into the router-retired
rollup, replays its views onto the survivors, republishes the routing
table, and stops the worker; requests for a moving view wait on the
drain instead of racing it.

Failure contract: a request in flight to a worker that dies resolves
with a wire-coded ``worker-unavailable`` error (never a hang); the
supervisor respawns the worker and replays its views, after which
retries succeed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import socket as socket_module
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ...datalog.facts import fact_key
from ...robustness import (
    ClusterError,
    RecoveryError,
    WorkerUnavailable,
    error_line,
    fault_point,
    retry_with_backoff,
)
from ..locks import AtomicReference
from ..metrics import (
    ROUTER, SERVICE, VIEW, merge_counters, rollup_metrics, zeroed,
)
from ..protocol import QUIT, ROUTER_VERBS, error_reply, parse
from .framing import FrameError, read_frame_async, write_frame_async
from .hashring import HashRing
from .worker import DEFAULT_START_METHOD, spawn_worker

__all__ = ["ClusterRouter", "ViewRecord", "WorkerHandle", "cluster"]

logger = logging.getLogger(__name__)


class ViewRecord:
    """What the router must remember to rebuild a view elsewhere.

    ``semantics`` and ``source`` replay the original ``register`` (the
    program text carries its own inline base facts); ``added`` and
    ``removed`` are the *net* acked base-fact delta applied since,
    keyed by value (``fact_key``): ``removed`` holds keys,
    ``added`` maps a key to the text to re-send (with its
    ``@ annotation``, if the fact has one).  Keyed by the bare fact, a
    delete cancels an annotated insert and a re-annotation replaces
    the old one, so replaying register + removals + additions
    reconstructs the view's exact database on a fresh worker.
    """

    __slots__ = ("semantics", "source", "added", "removed")

    def __init__(self, semantics: str, source: str):
        self.semantics = semantics
        self.source = source
        self.added: Dict[str, str] = {}
        self.removed: Set[str] = set()

    def record_insert(self, fact: str) -> str:
        key, text = fact_key(fact)
        # A bare re-insert of a present fact leaves its annotation be.
        if text != key or key not in self.added:
            self.added[key] = text
        self.removed.discard(key)
        return text

    def record_delete(self, fact: str) -> str:
        key, _text = fact_key(fact)
        self.removed.add(key)
        self.added.pop(key, None)
        return key


class WorkerHandle:
    """One shard: its process, socket, connection pool, and liveness.

    ``call`` forwards one line-protocol request and collects the reply
    lines (terminated by ``ok``/``error``) over a pooled connection.
    Any transport failure — refused connect, EOF mid-reply, timeout —
    marks the incarnation dead, wakes the supervisor, and surfaces as
    :class:`~repro.robustness.WorkerUnavailable`, so a caller is never
    left hanging on a corpse.
    """

    def __init__(
        self,
        shard_id: str,
        socket_path: str,
        options: Optional[Dict] = None,
        start_method: str = DEFAULT_START_METHOD,
        pool_size: int = 4,
        max_concurrent: int = 8,
        request_timeout: float = 60.0,
        # ~25s of backoff in total: a cold interpreter spawn on a
        # loaded single-core box can take >10s to import and bind.
        connect_attempts: int = 28,
    ):
        self.shard_id = shard_id
        self.socket_path = socket_path
        self.options = dict(options or {})
        self.options.setdefault("max_concurrent", max_concurrent)
        self.start_method = start_method
        self.pool_size = pool_size
        self.request_timeout = request_timeout
        self.connect_attempts = connect_attempts
        self.process = None
        self.live = False
        self.draining = False
        self.inflight = 0
        #: Set while ``inflight`` is 0: what a drain waits on to flush.
        self.idle = asyncio.Event()
        self.idle.set()
        self.incarnation = 0
        #: Last counters this worker reported through a ``metrics``
        #: fan-out — absorbed into the router-retired rollup when the
        #: incarnation dies, keeping the aggregate monotone.
        self.last_counters: Dict[str, Dict[str, int]] = {}
        self.dead = asyncio.Event()
        #: Cleared while the incarnation is dead or mid-replay; the
        #: router's data path waits on it so a client can never observe
        #: a half-replayed view on a fresh worker.
        self.ready = asyncio.Event()
        # At most as many concurrent calls as the worker accepts
        # connections, so the listen backlog can never overflow.
        self._slots = asyncio.Semaphore(self.options["max_concurrent"])
        self._pool: List[Tuple] = []  # idle connections, oldest first
        self._conns: Set[Tuple] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self, ready: bool = True) -> None:
        """Spawn the worker process and wait until its socket accepts.

        ``ready=False`` leaves :attr:`ready` cleared — the respawn path
        uses it to keep clients parked until the view replay finishes.
        """
        self.incarnation += 1
        self.process = spawn_worker(
            self.socket_path, self.options, self.start_method
        )
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self._probe)
        except OSError as exc:
            raise WorkerUnavailable(
                f"shard {self.shard_id}: worker socket never came up: {exc}"
            ) from exc
        self.live = True
        self.dead = asyncio.Event()
        if ready:
            self.ready.set()

    def _probe(self) -> None:
        """Block until the worker socket accepts, with backoff retries."""

        def attempt() -> None:
            probe = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            probe.settimeout(2.0)
            try:
                probe.connect(self.socket_path)
            finally:
                probe.close()

        retry_with_backoff(
            attempt,
            attempts=self.connect_attempts,
            base_delay=0.05,
            max_delay=1.0,
            retry_on=(OSError,),
        )

    async def restart(self) -> None:
        """Tear down the dead incarnation and bring up a fresh one.

        The new incarnation is *live* (accepts calls — the replay needs
        that) but not *ready*: the caller flips :attr:`ready` once the
        shard's views are replayed.
        """
        self.stop_process()
        await self.start(ready=False)

    def mark_dead(self) -> None:
        """Flag the incarnation dead and wake the supervisor."""
        self.live = False
        self.ready.clear()
        self._close_pool()
        self.dead.set()

    def note_counters(self, snapshot: Dict) -> None:
        """Keep the counters of a ``metrics`` snapshot this worker sent."""
        self.last_counters = {
            "counters": snapshot.get("counters", {}),
            "rollup": snapshot.get("rollup", {}),
        }

    def _close_pool(self) -> None:
        self._pool.clear()
        for conn in list(self._conns):
            self._discard(conn)

    def _discard(self, conn: Tuple) -> None:
        self._conns.discard(conn)
        _reader, writer = conn
        try:
            writer.close()
        except Exception:
            pass

    def stop_process(self, timeout: float = 5.0) -> None:
        """Terminate the worker process (idempotent)."""
        self.live = False
        self._close_pool()
        process = self.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout)
        self.process = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    # -- the forwarding path ------------------------------------------------

    async def _checkout(self) -> Tuple:
        while self._pool:
            conn = self._pool.pop(0)
            if conn in self._conns:
                return conn
        try:
            conn = await asyncio.open_unix_connection(self.socket_path)
        except OSError as exc:
            self.mark_dead()
            raise WorkerUnavailable(
                f"shard {self.shard_id}: connect failed: {exc}"
            ) from exc
        self._conns.add(conn)
        return conn

    def _checkin(self, conn: Tuple) -> None:
        if conn in self._conns and len(self._pool) < self.pool_size:
            self._pool.append(conn)
        else:
            self._discard(conn)

    async def call(
        self, line: str, timeout: Optional[float] = None
    ) -> List[str]:
        """Forward one request line; the reply lines, terminator last."""
        timeout = self.request_timeout if timeout is None else timeout
        if not self.live:
            raise WorkerUnavailable(
                f"shard {self.shard_id} is down (respawn in progress)"
            )
        # Counted *before* parking on a slot, in the same synchronous
        # segment as the caller's _route(): once drain() flips
        # ``draining``, its flush sees every already-routed request,
        # even one still waiting for a slot — else an acked update could
        # land on a worker whose views were already replayed elsewhere.
        self.inflight += 1
        self.idle.clear()
        try:
            async with self._slots:
                if not self.live:
                    raise WorkerUnavailable(
                        f"shard {self.shard_id} is down (respawn in progress)"
                    )
                conn = await self._checkout()
                reader, writer = conn
                # One deadline for the whole reply, however many lines
                # it has: a timer that fails the reader, so a late line
                # raises TimeoutError.  (asyncio.wait_for would run the
                # read as a Task of its own before Python 3.12.)
                deadline = None
                if timeout is not None:
                    deadline = asyncio.get_running_loop().call_later(
                        timeout, reader.set_exception, asyncio.TimeoutError()
                    )
                try:
                    writer.write(line.encode("utf-8") + b"\n")
                    await writer.drain()
                    replies = await self._read_reply(reader)
                except (
                    OSError,
                    ConnectionError,
                    asyncio.TimeoutError,
                    UnicodeDecodeError,
                ) as exc:
                    self._discard(conn)
                    self.mark_dead()
                    raise WorkerUnavailable(
                        f"shard {self.shard_id}: {type(exc).__name__}: {exc}"
                    ) from exc
                finally:
                    if deadline is not None:
                        deadline.cancel()
                self._checkin(conn)
                return replies
        finally:
            self.inflight -= 1
            if not self.inflight:
                self.idle.set()

    @staticmethod
    async def _read_reply(reader: asyncio.StreamReader) -> List[str]:
        """The reply lines of one request, terminator last."""
        replies: List[str] = []
        while True:
            raw = await reader.readline()
            if not raw:
                raise ConnectionResetError(
                    "worker closed the connection mid-reply"
                )
            text = raw.decode("utf-8").rstrip("\r\n")
            replies.append(text)
            if (
                text == "ok"
                or text.startswith("ok ")
                or text.startswith("error")
            ):
                return replies

    def __repr__(self) -> str:
        state = (
            "draining"
            if self.draining
            else ("live" if self.live else "dead")
        )
        return f"<WorkerHandle {self.shard_id} {state} pid={self.pid}>"


class ClusterRouter:
    """The sharded serving tier: N workers behind one asyncio router.

    ``socket_path`` is the front door (binary framing, see
    :mod:`.framing`); worker sockets live next to it as
    ``<socket_path>.<shard-id>``.  Use :meth:`start` / :meth:`stop`
    from an event loop, or the :func:`cluster` context manager /
    ``repro serve --shards N`` from synchronous code.
    """

    def __init__(
        self,
        socket_path: str,
        shards: int = 2,
        worker_options: Optional[Dict] = None,
        start_method: str = DEFAULT_START_METHOD,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        request_timeout: float = 60.0,
        pool_size: int = 4,
        max_request_bytes: int = 1 << 20,
        hash_replicas: int = 160,
        data_dir: Optional[str] = None,
        fsync: str = "batch",
        checkpoint_every: int = 256,
    ):
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.socket_path = socket_path
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.request_timeout = request_timeout
        self.max_request_bytes = max_request_bytes
        self._workers: Dict[str, WorkerHandle] = {}
        for index in range(shards):
            shard_id = f"shard-{index}"
            self._workers[shard_id] = WorkerHandle(
                shard_id,
                f"{socket_path}.{shard_id}",
                options=worker_options,
                start_method=start_method,
                pool_size=pool_size,
                request_timeout=request_timeout,
            )
        self._ring = HashRing(self._workers, replicas=hash_replicas)
        #: The COW routing table: immutable ``view → shard`` dict,
        #: republished in one atomic swap by register/unregister/drain.
        self._routes = AtomicReference({})
        self._records: Dict[str, ViewRecord] = {}
        self._registry_lock = asyncio.Lock()
        self._draining: Dict[str, asyncio.Event] = {}
        self._drained: Dict[str, str] = {}
        self._retired: Dict[str, Dict[str, int]] = {
            "counters": {},
            "rollup": {},
        }
        self.counters: Dict[str, int] = zeroed(ROUTER)
        self._server: Optional[asyncio.AbstractServer] = None
        self._supervisors: List[asyncio.Task] = []
        self._stopping = False
        self._started = False
        # The durable control plane (inert without a data directory):
        # every accepted register/unregister, every acked base-fact
        # update, and every completed drain is journaled; checkpoints
        # snapshot the records + routing table + drain ledger + retired
        # rollup.  All manager calls happen on the event-loop thread,
        # so no extra locking is needed around them.
        self.durability = None
        self.last_recovery: Optional[Dict[str, object]] = None
        if data_dir is not None:
            from ..durability import DurabilityManager

            self.durability = DurabilityManager(
                data_dir,
                fsync=fsync,
                checkpoint_every=checkpoint_every,
                capture=self._durability_capture,
                on_event=self._bump_counter,
            )

    def _bump_counter(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _commit(self, operation: Dict[str, object]) -> None:
        """Apply one completed control-plane operation to the records
        and routes — through :meth:`_apply_journal_record`, as recovery
        re-drives it — and journal it.

        Called on the event-loop thread after the operation was acked
        by the owning worker — the same total order clients observe —
        and before the reply frame leaves the router.
        """
        try:
            self._apply_journal_record(operation)
        except KeyError:
            return  # a write acked for a view unregistered meanwhile
        self._journal(operation)

    def _journal(self, operation: Dict[str, object]) -> None:
        """Journal one applied operation (durable mode only)."""
        manager = self.durability
        if manager is not None and not manager.replaying:
            manager.append(operation)
            manager.maybe_checkpoint()

    def _durability_capture(self) -> Dict[str, object]:
        """The full control plane, as a checkpoint document.

        Runs synchronously on the event-loop thread, so it sees the
        registry between requests — never a half-applied registration.
        Each worker's ``last_counters`` rides along so a recovered
        router can retire them: the pre-crash incarnations are gone,
        and banking their last-reported counters keeps the aggregate
        rollup monotone across the restart.
        """
        return {
            "records": {
                name: {
                    "semantics": record.semantics,
                    "source": record.source,
                    "added": sorted(record.added.values()),
                    "removed": sorted(record.removed),
                }
                for name, record in self._records.items()
            },
            "routes": dict(self._routes.get()),
            "drained": dict(self._drained),
            "retired": {
                section: dict(counters)
                for section, counters in self._retired.items()
            },
            "last_counters": {
                shard_id: {
                    section: dict(counters)
                    for section, counters in handle.last_counters.items()
                }
                for shard_id, handle in self._workers.items()
                if handle.last_counters
            },
            "router_counters": dict(self.counters),
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Recover the control plane (durable mode), spawn every live
        worker, replay recovered views onto them, then open the front
        door."""
        recovered = self._recover_control_plane()
        spawning = [
            handle
            for shard_id, handle in self._workers.items()
            if shard_id not in self._drained
        ]
        await asyncio.gather(
            *(handle.start(ready=recovered is None) for handle in spawning)
        )
        if recovered is not None:
            await self._replay_recovered_views(recovered)
            for handle in spawning:
                handle.ready.set()
            recovered["generation"] = self.durability.bump_generation()
            self._bump_counter("recoveries")
            if recovered["replayed_records"]:
                self._bump_counter(
                    "recovery_replay_records",
                    int(recovered["replayed_records"]),
                )
            self.last_recovery = recovered
            logger.info(
                "cluster recovered generation %s: %s views "
                "(checkpoint lsn %s, %s WAL records replayed, "
                "%s skipped, %s torn dropped)",
                recovered["generation"],
                recovered["views_restored"],
                recovered["checkpoint_lsn"],
                recovered["replayed_records"],
                recovered["skipped_records"],
                recovered["torn_records_dropped"],
            )
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._server = await asyncio.start_unix_server(
            self._serve_client, path=self.socket_path
        )
        self._supervisors = [
            asyncio.get_running_loop().create_task(self._supervise(handle))
            for shard_id, handle in self._workers.items()
            if shard_id not in self._drained
        ]
        self._started = True

    async def stop(self) -> None:
        """Close the front door and terminate every worker."""
        self._stopping = True
        for task in self._supervisors:
            task.cancel()
        await asyncio.gather(*self._supervisors, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.durability is not None:
            # The graceful-shutdown checkpoint: the next cold start
            # restores the exact routing table without replaying the
            # whole log.  Capture only reads router-owned dicts, so it
            # does not care that the workers are about to die.  A
            # router that never finished start() skips the checkpoint —
            # a half-recovered control plane must not overwrite the
            # good on-disk state.
            try:
                self.durability.close(final_checkpoint=self._started)
            except Exception:  # pragma: no cover - shutdown best effort
                logger.exception("final cluster checkpoint failed")
            self.durability = None
        # All at once: each stop can wait out its worker's join timeout.
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, handle.stop_process)
                for handle in self._workers.values()
            )
        )
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # -- cold-start recovery ------------------------------------------------

    def _recover_control_plane(self) -> Optional[Dict[str, object]]:
        """Restore records/routes/drains from the data directory.

        Runs before any worker spawns: the checkpoint seeds the control
        plane, the WAL suffix re-drives every later acked operation
        onto it, and the drain ledger prunes the ring so a drained
        shard stays gone across the restart.  Returns the recovery
        report (``None`` when the router is not durable); the caller
        spawns the surviving workers and replays the routed views.
        """
        manager = self.durability
        if manager is None:
            return None
        fault_point("durability.recover")
        state, records = manager.scan()
        report: Dict[str, object] = {
            "checkpoint_lsn": manager.last_checkpoint_lsn,
            "views_restored": 0,
            "replayed_records": 0,
            "skipped_records": 0,
            "torn_records_dropped": manager.torn_records_dropped,
        }
        manager.replaying = True
        try:
            if state:
                for name, info in state.get("records", {}).items():
                    record = ViewRecord(
                        str(info.get("semantics", "stratified")),
                        str(info.get("source", "")),
                    )
                    for fact in info.get("removed", ()):
                        record.record_delete(fact)
                    for fact in info.get("added", ()):
                        record.record_insert(fact)
                    self._records[name] = record
                self._routes.set(dict(state.get("routes", {})))
                self._drained.update(state.get("drained", {}))
                self._retire(state.get("retired", {}))
                # The pre-crash worker incarnations are gone; bank the
                # counters they last reported so the aggregate rollup
                # stays monotone across the restart.
                for shard_counters in state.get("last_counters", {}).values():
                    self._retire(shard_counters)
                for name, value in state.get("router_counters", {}).items():
                    if value:
                        self._bump_counter(name, int(value))
            for record in records:
                try:
                    self._apply_journal_record(record.operation)
                    report["replayed_records"] += 1
                except (KeyError, ValueError) as exc:
                    report["skipped_records"] += 1
                    logger.warning(
                        "skipping unreplayable cluster WAL record "
                        "lsn %d: %s: %s",
                        record.lsn,
                        type(exc).__name__,
                        exc,
                    )
        finally:
            manager.replaying = False
        report["views_restored"] = len(self._records)
        for shard_id in self._drained:
            if shard_id in self._ring:
                self._ring = self._ring.without_shard(shard_id)
        if len(self._ring) < 1:
            raise RecoveryError(
                "the recovered drain ledger leaves no live shard; "
                "restart with more shards"
            )
        return report

    def _apply_journal_record(self, operation: Dict[str, object]) -> None:
        """Apply one control-plane operation, live or journaled; a
        write's fact is rewritten to the text the record keeps."""
        op = operation.get("op")
        if op == "register":
            name = str(operation["view"])
            self._records[name] = ViewRecord(
                str(operation.get("semantics", "stratified")),
                str(operation.get("source", "")),
            )
            routes = dict(self._routes.get())
            routes[name] = str(operation["shard"])
            self._routes.set(routes)
        elif op == "unregister":
            name = str(operation["view"])
            self._records.pop(name, None)
            routes = dict(self._routes.get())
            routes.pop(name, None)
            self._routes.set(routes)
        elif op in ("insert", "delete"):
            record = self._records.get(str(operation["view"]))
            if record is None:
                raise KeyError(
                    f"update journaled for unregistered view "
                    f"{operation.get('view')!r}"
                )
            fact = str(operation["fact"])
            if op == "insert":
                operation["fact"] = record.record_insert(fact)
            else:
                operation["fact"] = record.record_delete(fact)
        elif op == "drain":
            self._drained[str(operation["shard"])] = "drained"
            routes = dict(self._routes.get())
            for name, target in dict(operation.get("moved", {})).items():
                if name in routes:
                    routes[name] = str(target)
            self._routes.set(routes)
        else:
            raise ValueError(f"unknown cluster WAL operation {op!r}")

    async def _replay_recovered_views(
        self, report: Dict[str, object]
    ) -> None:
        """Rebuild every recovered view on its (fresh) owning worker.

        A view routed at a shard that no longer exists — the cluster
        restarted with fewer shards, or the route's owner is in the
        drain ledger — is reassigned on the recovered ring, exactly as
        a drain would have moved it.
        """
        routes = dict(self._routes.get())
        reassigned = 0
        for name in sorted(routes):
            if name not in self._records:
                logger.warning(
                    "recovered route for %r has no view record; dropping",
                    name,
                )
                routes.pop(name)
                continue
            shard = routes[name]
            if shard not in self._workers or shard in self._drained:
                target = self._ring.assign(name)
                logger.warning(
                    "view %r was routed at missing shard %s; "
                    "reassigned to %s",
                    name,
                    shard,
                    target,
                )
                routes[name] = target
                shard = target
                reassigned += 1
            await self._replay_view(name, self._workers[shard])
        self._routes.set(routes)
        report["views_reassigned"] = reassigned

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI entry point's main loop)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- supervision --------------------------------------------------------

    async def _supervise(self, handle: WorkerHandle) -> None:
        """Heartbeat one shard; respawn-with-replay when it dies."""
        backoff = self.heartbeat_interval
        while not self._stopping:
            try:
                await asyncio.wait_for(
                    handle.dead.wait(), timeout=self.heartbeat_interval
                )
            except asyncio.TimeoutError:
                if handle.shard_id in self._drained:
                    return
                if handle.live and not handle.draining:
                    try:
                        await handle.call(
                            "views", timeout=self.heartbeat_timeout
                        )
                    except WorkerUnavailable:
                        continue  # dead event is set; respawn next turn
                continue
            if self._stopping:
                return
            if handle.shard_id in self._drained:
                return
            if handle.draining:
                # A drain is flushing this shard; wait for its outcome
                # instead of racing the respawn against the replay.  On
                # success the shard is retired (next turn returns via
                # the _drained check); on a rolled-back drain the shard
                # is live topology again and must keep its supervisor.
                drain_event = self._draining.get(handle.shard_id)
                if drain_event is not None:
                    await drain_event.wait()
                continue
            try:
                await self._respawn(handle)
                backoff = self.heartbeat_interval
            except Exception:
                logger.exception(
                    "respawn of %s failed; retrying", handle.shard_id
                )
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 10.0)

    async def _respawn(self, handle: WorkerHandle) -> None:
        """Replace a dead incarnation and replay its views onto it."""
        async with self._registry_lock:
            if handle.draining or self._stopping:
                return
            self._retire(handle.last_counters)
            handle.last_counters = {}
            await handle.restart()
            names = [
                name
                for name, shard in self._routes.get().items()
                if shard == handle.shard_id
            ]
            for name in sorted(names):
                await self._replay_view(name, handle)
            handle.ready.set()
            self.counters["respawns"] += 1
            logger.warning(
                "respawned %s (incarnation %d, %d views replayed)",
                handle.shard_id,
                handle.incarnation,
                len(names),
            )

    def _retire(self, sections: Mapping[str, Mapping[str, int]]) -> None:
        """Sum counter sections into the retired bank: a dead
        incarnation's ``last_counters`` (updated on every successful
        ``metrics`` fan-out, so everything the aggregate ever reported
        for it is kept and the rollup can only grow), or a checkpoint's
        bank."""
        for section, counters in sections.items():
            # Only declared counters: an older release's checkpoint may
            # bank counters that no longer exist (the demand_* ones).
            declared = zeroed(SERVICE if section == "counters" else VIEW)
            merge_counters(
                self._retired.setdefault(section, {}),
                {name: value for name, value in counters.items() if name in declared},
            )

    async def _replay_view(self, name: str, handle: WorkerHandle) -> None:
        """Rebuild one view on ``handle`` from the router's record."""
        record = self._records[name]

        async def replay(line: str) -> None:
            replies = await handle.call(line)
            # A refused fact (budget, deadline) is a failed replay, like
            # a refused registration: the view would otherwise silently
            # miss facts the router believes it holds.
            if replies[-1].startswith("error"):
                raise ClusterError(
                    f"replaying view {name!r} on {handle.shard_id} failed "
                    f"at {line.split(None, 1)[0]!r}: {replies[-1]}"
                )

        await replay(f"register {name} {record.semantics} {record.source}")
        for fact in sorted(record.removed):
            await replay(f"-{name} {fact}")
        for bare in sorted(record.added):
            await replay(f"+{name} {record.added[bare]}")

    # -- drain --------------------------------------------------------------

    async def drain(self, shard_id: str) -> Dict[str, object]:
        """Gracefully remove one shard, re-hashing its views.

        Rejected cleanly (``ClusterError``) for unknown shards, double
        drains, and the last live shard.
        """
        async with self._registry_lock:
            if shard_id not in self._workers:
                raise ClusterError(f"unknown shard {shard_id!r}")
            if shard_id in self._drained or (
                self._workers[shard_id].draining
            ):
                raise ClusterError(f"shard {shard_id!r} already drained")
            if len(self._ring) <= 1:
                raise ClusterError("cannot drain the last live shard")
            handle = self._workers[shard_id]
            event = asyncio.Event()
            self._draining[shard_id] = event
            handle.draining = True
            # Stop routing *new* registrations at the drained shard.
            self._ring = self._ring.without_shard(shard_id)
            moved: Dict[str, str] = {}
            try:
                # Flush in-flight requests (new ones wait on the event).
                await handle.idle.wait()
                # Absorb the shard's final counters so the rolled-up
                # metrics stay monotone after it disappears.
                if handle.live:
                    try:
                        replies = await handle.call("metrics")
                        handle.note_counters(json.loads(replies[-1][3:]))
                    except (WorkerUnavailable, ValueError):
                        pass
                # Re-hash the shard's views onto the survivors by
                # replaying their programs and net base facts.
                routes = self._routes.get()
                for name in sorted(n for n in routes if routes[n] == shard_id):
                    target = self._ring.assign(name)
                    await self._replay_view(name, self._workers[target])
                    moved[name] = target
                # Retire the final counters only once the replay cannot
                # fail anymore: a rolled-back drain leaves the shard
                # live and still reporting, so absorbing earlier would
                # double-count it (retired + live) in the aggregate.
                self._retire(handle.last_counters)
                handle.last_counters = {}
                # The moved map is journaled explicitly: re-hashing is
                # not reproducible from the drain op alone (it depends
                # on the ring the drain saw), and the next recovery
                # must restore the exact post-drain routing table.
                self._commit({"op": "drain", "shard": shard_id, "moved": moved})
                handle.stop_process()
                self.counters["drains"] += 1
            except BaseException:
                # Roll back: the routing table was never republished,
                # so every view still points at this shard, which still
                # holds all its data — put it back on the ring.  Copies
                # already replayed onto a survivor are harmless (register
                # replaces).  A worker that died mid-drain has ``dead``
                # set, and the supervisor, which waits the drain out,
                # respawns it.
                self._ring = self._ring.with_shard(shard_id)
                handle.draining = False
                raise
            finally:
                event.set()
                self._draining.pop(shard_id, None)
        return {"shard": shard_id, "moved_views": list(moved)}

    # -- routing ------------------------------------------------------------

    def routing_table(self) -> Dict[str, str]:
        """The published routing table (treat as immutable)."""
        return self._routes.get()

    async def _route(self, name: str) -> WorkerHandle:
        """The worker owning ``name`` — waiting out an active drain."""
        while True:
            shard = self._routes.get().get(name)
            if shard is None:
                raise KeyError(f"no view registered under {name!r}")
            event = self._draining.get(shard)
            if event is not None:
                await event.wait()
                continue  # re-resolve: the view moved
            handle = self._workers[shard]
            if handle.live and not handle.ready.is_set():
                # A fresh incarnation is mid-replay; park until its
                # views are whole so no client sees a partial rebuild.
                waiter = handle.ready.wait()
                try:
                    await asyncio.wait_for(
                        waiter, timeout=self.request_timeout
                    )
                except asyncio.TimeoutError:
                    raise WorkerUnavailable(
                        f"shard {shard}: replay still in progress"
                    )
                except RuntimeError as exc:
                    # The loop is shutting down; wait_for can bail out
                    # before ever scheduling the waiter.
                    with contextlib.suppress(Exception):
                        waiter.close()
                    raise WorkerUnavailable(
                        f"shard {shard}: router shutting down"
                    ) from exc
                continue  # re-resolve: routing may have changed
            return handle

    def _live_handles(self) -> List[WorkerHandle]:
        return [
            handle
            for handle in self._workers.values()
            if handle.live and not handle.draining
        ]

    # -- the front door -----------------------------------------------------

    async def _serve_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One framed client connection.

        Pipelining happens at the transport: a client may send any
        number of request frames without waiting for replies (they
        accumulate in the stream buffer), which removes per-request
        round trips.  Execution stays strictly serial and in order per
        connection — Redis-pipeline semantics — so a pipelined query
        always observes the connection's earlier acked updates.
        Cross-connection requests run concurrently on the event loop.
        """
        try:
            while True:
                try:
                    payload = await read_frame_async(
                        reader, self.max_request_bytes
                    )
                except FrameError as exc:
                    await self._reply(writer, [error_line(exc)])
                    break
                except (ConnectionError, OSError):
                    break
                if payload is None:
                    break
                line = payload.decode("utf-8", errors="replace").strip()
                if line in QUIT:
                    await self._reply(writer, ["ok bye"])
                    break
                if not await self._reply(writer, await self._dispatch(line)):
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, lines: List[str]) -> bool:
        try:
            await write_frame_async(writer, "\n".join(lines).encode("utf-8"))
            return True
        except (ConnectionError, OSError):
            return False

    async def _dispatch(self, line: str) -> List[str]:
        """Handle one request line, never letting an exception escape."""
        self.counters["requests_total"] += 1
        try:
            return await self._handle(line)
        except Exception as exc:  # not cancellation, not shutdown signals
            return error_reply(exc, line, self._bump_counter, logger)

    async def _handle(self, line: str) -> List[str]:
        """Forward, fan out or answer here; the protocol module parses."""
        if not line or line.startswith("#"):
            return ["ok"]
        if "\n" in line or "\r" in line:
            raise ValueError(
                "frame payloads must be single line-protocol requests"
            )
        request = parse(line, ROUTER_VERBS)
        verb, name = request.verb, request.name
        if verb == "register":
            # The program on one line, a file already read: what the
            # worker gets now is what a replay sends it later.
            semantics, source = request.semantics, request.program_line()
            async with self._registry_lock:
                target = self._routes.get().get(name)
                if target is None or target in self._drained:
                    target = self._ring.assign(name)
                operation = {
                    "op": "register", "view": name, "semantics": semantics,
                    "source": source, "shard": target,
                }
                line = f"register {name} {semantics} {source}"
                return await self._forward(self._workers[target], line, operation)
        if verb == "unregister":
            async with self._registry_lock:
                operation = {"op": "unregister", "view": name}
                return await self._forward(await self._route(name), line, operation)
        if verb in ("+", "-"):
            op = "insert" if verb == "+" else "delete"
            operation = {"op": op, "view": name, "fact": request.text}
            return await self._forward(await self._route(name), line, operation)
        if verb == "drain":
            summary = await self.drain(name)
            return [f"ok {json.dumps(summary, sort_keys=True)}"]
        if verb == "shards":
            return [f"ok {json.dumps(self.describe(), sort_keys=True)}"]
        if name is not None:  # query, stats <view>
            return await self._forward(await self._route(name), line)
        if verb == "metrics":
            return await self._handle_metrics(request.text)
        fanned = await self._fan_out(verb)
        if verb == "stats":
            return [f"ok {json.dumps({'shards': fanned}, sort_keys=True)}"]
        names = set(self._routes.get())
        for listed in fanned.values():
            names.update(listed)
        return [f"ok {json.dumps(sorted(names))}"]

    async def _forward(
        self,
        handle: WorkerHandle,
        line: str,
        operation: Optional[Dict[str, object]] = None,
    ) -> List[str]:
        """``line`` to ``handle``; once the worker acks it, ``operation``
        goes to the records and routes and to the journal."""
        self.counters["forwarded_total"] += 1
        replies = await handle.call(line)
        if operation is not None and replies[-1].startswith("ok"):
            self._commit(operation)
        return replies

    async def _fan_out(self, line: str) -> Dict[str, object]:
        """``line`` to every live, non-draining shard, concurrently: the
        JSON document of each ``ok`` reply, by shard."""
        handles = self._live_handles()
        self.counters["fanouts_total"] += 1
        results = await asyncio.gather(
            *(handle.call(line) for handle in handles),
            return_exceptions=True,
        )
        documents: Dict[str, object] = {}
        for handle, result in zip(handles, results):
            if isinstance(result, BaseException):
                if not isinstance(result, WorkerUnavailable):
                    raise result
                continue  # a crashed shard is simply absent this round
            if result[-1].startswith("ok "):
                documents[handle.shard_id] = json.loads(result[-1][3:])
        return documents

    async def _handle_metrics(self, form: str) -> List[str]:
        shard_snapshots = await self._fan_out("metrics")
        for shard_id, snapshot in shard_snapshots.items():
            self._workers[shard_id].note_counters(snapshot)
        aggregate = rollup_metrics(
            shard_snapshots,
            router_retired=self._retired["rollup"],
            drained=self._drained,
        )
        merge_counters(aggregate["counters"], self._retired["counters"])
        aggregate["router"] = {"counters": dict(self.counters)}
        if self.durability is not None:
            aggregate["router"]["durability"] = self.durability.describe()
            gauges = aggregate.setdefault("gauges", {})
            gauges["router_wal_size"] = self.durability.wal_size_bytes()
            gauges["recovered_generation"] = self.durability.generation
        if form == "prometheus":
            from ..prometheus import render_prometheus

            text = render_prometheus(aggregate)
            return text.splitlines() + ["ok prometheus"]
        return [f"ok {json.dumps(aggregate, sort_keys=True)}"]

    def describe(self) -> Dict[str, object]:
        """Topology for the ``shards`` verb and the harness."""
        routes = self._routes.get()
        per_shard: Dict[str, int] = {}
        for shard in routes.values():
            per_shard[shard] = per_shard.get(shard, 0) + 1
        return {
            "shards": {
                shard_id: {
                    "live": handle.live,
                    "draining": handle.draining,
                    "drained": shard_id in self._drained,
                    "pid": handle.pid,
                    "incarnation": handle.incarnation,
                    "views": per_shard.get(shard_id, 0),
                }
                for shard_id, handle in self._workers.items()
            },
            "views": len(routes),
            "router": dict(self.counters),
            "durability": (
                self.durability.describe()
                if self.durability is not None
                else None
            ),
        }


@contextmanager
def cluster(
    socket_path: str, shards: int = 2, **router_kwargs
) -> Iterator[ClusterRouter]:
    """Run a cluster (router + workers) from synchronous code.

    The router's event loop runs on a daemon thread; the yielded
    :class:`ClusterRouter` is fully started when the body begins, and
    torn down (front door closed, workers terminated) on the way out.
    Tests and benchmarks drive it through a
    :class:`~repro.service.cluster.client.ClusterClient` against
    ``socket_path``.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="cluster-router", daemon=True
    )
    thread.start()
    router = ClusterRouter(socket_path, shards=shards, **router_kwargs)
    try:
        asyncio.run_coroutine_threadsafe(router.start(), loop).result(
            timeout=180
        )
        yield router
    finally:
        try:
            asyncio.run_coroutine_threadsafe(router.stop(), loop).result(
                timeout=60
            )
            # Settle leftover client-handler tasks before stopping the
            # loop, so none is destroyed with an unstarted coroutine.
            asyncio.run_coroutine_threadsafe(
                _cancel_pending_tasks(), loop
            ).result(timeout=10)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()


async def _cancel_pending_tasks() -> None:
    current = asyncio.current_task()
    tasks = [
        task
        for task in asyncio.all_tasks()
        if task is not current and not task.done()
    ]
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
