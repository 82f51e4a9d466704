"""The query service and its line protocol.

:class:`QueryService` is the long-lived facade the ``repro serve`` CLI
exposes: registered programs (compiled once), one materialized view per
program, a shared LRU result cache invalidated by the update path, and
per-view plus service-level metrics.

Concurrency model (snapshot reads over per-view write locks; the
long form is docs/SERVICE.md, "The read path" and "The locking model"):

* **the name table is the registry**: an immutable ``dict`` of
  ``name → (view, generation)`` behind an atomic reference is the only
  record of what is registered; ``register``/``unregister`` publish a
  fresh copy under the **registry lock**, a plain mutex that only they
  and :meth:`QueryService.metrics_snapshot` take;
* **readers take no lock**: every request resolves names off the
  published table, and a query answers off the view's published
  :class:`~repro.service.snapshot.ModelSnapshot` — zero lock
  acquisitions, whatever engine maintains the view;
* **writers** hold the view's own lock (``view.lock``): batches on
  different views run in parallel, batches on one view are serialised,
  and the snapshot swap happens inside the hold;
* a locked request re-checks the table once it holds the lock and
  retries when it lost a race with ``register``/``unregister``.  The
  one lock order is **per-view lock, then registry lock**, and a
  registration journals before it publishes, so no update reaches a
  view whose registration is not yet in the log;
* cache keys carry the registration's **generation** and the
  snapshot's, so an entry put for a replaced view or a superseded
  model version is never served.

The wire format is a newline-delimited request/response protocol,
served over stdin/stdout or a unix socket.  Its grammar — the verbs
(``register`` with its ``--semiring=``, ``unregister``, ``+``/``-``,
``query`` with a predicate or a bound pattern, ``stats``, ``metrics``
with its ``--format=``, ``views``/``list``, ``quit``), their usage
lines and the error envelope — lives in :mod:`repro.service.protocol`,
which the cluster router shares (adding its own ``drain <shard>`` and
``shards``); this module only executes a parsed request against
:class:`QueryService`.

Replies are one or more lines: ``row <atom>`` lines for queries,
followed by a single ``ok ...`` line, or one ``error <reason>`` line.
``stats`` and ``metrics`` reply ``ok`` followed by a JSON document on
the same line.  However many lines a reply has, it is written to the
client once: the socket server sends it whole, stdin mode flushes
after its last line.  A blank or ``#`` line gets no reply here; the
router's frames answer it ``ok``.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..datalog.database import Database
from ..datalog.facts import format_fact, parse_annotated_fact, parse_fact
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from ..robustness import RequestTooLarge, UpdateTimeout, error_line, fault_point
from ..semiring import get_semiring
from .cache import LRUCache
from .locks import AtomicReference
from .metrics import (
    GAUGE, VIEW, ServiceMetrics, ViewMetrics, declared, merge_counters,
)
from .protocol import (
    QUIT,
    SERVE_VERBS,
    Request,
    error_reply,
    parse,
    parse_bound_pattern,
)
from .registry import prepare_program
from .views import MaterializedView

if TYPE_CHECKING:
    from ..robustness import EvaluationBudget

__all__ = [
    "QueryService",
    "serve_stream",
    "serve_unix_socket",
    "parse_fact",
    "parse_annotated_fact",
    "parse_bound_pattern",
]

logger = logging.getLogger(__name__)

Row = Tuple[Value, ...]

#: How long a stopping socket server waits, in all, for its connection
#: handlers before it returns — well inside the 5 s a cluster router
#: waits between SIGTERM and SIGKILL, leaving room for the final
#: checkpoint.
DRAIN_SECONDS = 3.0


class QueryService:
    """Registered programs, resident views, result cache, metrics.

    ``deadline_ms`` (optional) imposes a wall-clock deadline on every
    expensive per-request operation (registration, update batch) by
    handing each one a fresh :class:`~repro.robustness.EvaluationBudget`.

    Every write — bare or annotated, from a client or from WAL replay —
    is a ticket on its view's group-commit queue.  ``coalesce`` caps
    how many tickets one leader drains into a single engine pass;
    ``1`` drains them one per pass through the same code (what WAL
    replay's differential reference runs).

    ``queue_capacity`` bounds each view's group-commit update queue.
    """

    def __init__(
        self,
        function_registry: Optional[FunctionRegistry] = None,
        cache_capacity: int = 256,
        max_rounds: int = 10_000,
        max_atoms: int = 1_000_000,
        deadline_ms: Optional[float] = None,
        data_dir: Optional[str] = None,
        fsync: str = "batch",
        checkpoint_every: int = 256,
        coalesce: int = 64,
        queue_capacity: int = 256,
        semiring: str = "bool",
    ):
        if coalesce < 1:
            raise ValueError("coalesce must be >= 1")
        self.cache = LRUCache(cache_capacity)
        self.function_registry = function_registry
        self.max_rounds = max_rounds
        self.max_atoms = max_atoms
        self.deadline_ms = deadline_ms
        self.coalesce = coalesce
        self.queue_capacity = queue_capacity
        # Service-level default annotation algebra for registrations
        # that do not pick their own (the ``--semiring`` serve flag).
        # Validated eagerly so a typo fails at construction.
        get_semiring(semiring)
        self.default_semiring = semiring
        self.metrics = ServiceMetrics()
        # Serialises the writers of the name table (register,
        # unregister) against each other and against metrics_snapshot.
        self._registry_lock = threading.Lock()
        # The copy-on-write name table (see the module docstring and
        # _swap): never mutated, so a resolver holding an old table keeps
        # a consistent world.  Every register bumps the generation that
        # cache keys embed.
        self._name_table: AtomicReference = AtomicReference({})
        self._generation_counter = 0
        # COW churn: one rebuild per register/unregister, so N churn
        # events over V views copy O(N · V) cells (a tested bound).
        self.name_table_republishes = 0
        self.name_table_copied_cells = 0
        # The durability plane (inert without a data directory):
        # registrations/unregistrations/update batches are journaled
        # inside the same holds that serialise them (checkpoints carry
        # each view's ``prepared.source``), and a fresh service on a
        # non-empty data directory recovers before taking traffic.
        self.durability = None
        self.last_recovery = None
        if data_dir is not None:
            from .durability import DurabilityManager, recover_service

            self.durability = DurabilityManager(
                data_dir,
                fsync=fsync,
                checkpoint_every=checkpoint_every,
                on_event=self.metrics.bump,
            )
            try:
                self.last_recovery = recover_service(self, self.durability)
            except BaseException:
                # Release the directory lock; no checkpoint of the
                # half-recovered state.
                self.durability.close(final_checkpoint=False)
                raise
            # Attached only after recovery succeeds, so a failed
            # recovery can never checkpoint a half-restored world.
            self.durability.attach(capture=self._durability_capture)

    def close(self) -> None:
        """Flush the durability plane.

        Idempotent — safe to call twice, from competing shutdown paths,
        or after a failed construction.  The service keeps answering
        requests afterwards.
        """
        # getattr: a service whose __init__ died before the attribute
        # was assigned must still close cleanly.
        durability = getattr(self, "durability", None)
        if durability is not None:
            # Final checkpoint: a graceful shutdown leaves the data
            # directory describing the exact serving state, so the next
            # cold start replays nothing.
            durability.close()

    # -- durability hooks -----------------------------------------------------

    def _journal(self, operation: Dict[str, object]) -> None:
        """Append one completed operation to the WAL (durable mode only).

        Called inside the hold that serialised the operation (the view
        lock for updates, the registry lock for registrations),
        so per-entity log order matches apply order.  Quiet while
        recovery replays the log through these same paths.
        """
        manager = self.durability
        if manager is not None and not manager.replaying:
            manager.append(operation)

    def _maybe_checkpoint(self) -> None:
        """The checkpoint cadence — called *after* lock release, because
        the capture callback takes view locks itself."""
        manager = self.durability
        if manager is not None and not manager.replaying:
            manager.maybe_checkpoint()

    def _durability_capture(self) -> Dict[str, object]:
        """The complete serving state, as a checkpoint document.

        Each view is serialised under its own lock (program source,
        semantics, mode, the full fact set as canonical text, the
        declared predicate set, and the database fingerprint recovery
        verifies against).  Views are captured one at a time — the
        WAL suffix past the checkpoint boundary re-synchronises any
        batches that land between two captures.
        """
        snapshot = self.metrics_snapshot()
        views_state: Dict[str, object] = {}
        # Listed under the registry lock: register/unregister journal
        # and publish in one hold of it, and the checkpoint rotated the
        # WAL before calling us, so a change journaled before the
        # boundary is visible here and one we miss lands past it.
        with self._registry_lock:
            names = sorted(self.name_table())
        for name in names:
            try:
                with self._locked_view(name) as (view, _generation):
                    source = view.prepared.source
                    if source is None:  # registered from an AST
                        continue
                    database = view.database
                    # Explicitly annotated facts are captured as ``fact
                    # @ text`` (the wire shape); defaulted facts stay
                    # bare and re-derive their from_edb annotation.
                    annotated = view.semiring != "bool"
                    facts = []
                    for predicate, row in database:
                        text = format_fact(predicate, row)
                        if annotated:
                            explicit = database.annotation(predicate, row)
                            if explicit is not None:
                                text += f" @ {view.semiring_obj.format(explicit)}"
                        facts.append(text)
                    entry = {
                        "source": source,
                        "semantics": view.semantics,
                        "facts": facts,
                        "declared": sorted(database.predicates()),
                        "fingerprint": database.fingerprint(),
                    }
                    # Present only for annotated views: boolean
                    # checkpoints stay byte-identical to the
                    # pre-semiring format.
                    if view.semiring != "bool":
                        entry["semiring"] = view.semiring
                    views_state[name] = entry
            except KeyError:
                continue  # unregistered between listing and locking
        return {
            "views": views_state,
            "rollup": snapshot["rollup"],
            "service_counters": snapshot["counters"],
        }

    def _budget_factory(self) -> Optional[Callable[[], EvaluationBudget]]:
        if self.deadline_ms is None:
            return None
        from ..robustness import EvaluationBudget

        deadline_ms = self.deadline_ms
        return lambda: EvaluationBudget.from_millis(deadline_ms)

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str,
        source,
        semantics: str = "stratified",
        database: Optional[Database] = None,
        semiring: Optional[str] = None,
    ) -> Dict[str, object]:
        """Register (or replace) a program and materialize its view.

        ``semiring`` picks the view's annotation algebra (defaulting to
        the service-level ``--semiring``, itself ``"bool"`` unless
        overridden).  Boolean views take exactly the pre-annotation
        code paths; any other semiring materializes through the
        annotated engine and serves per-row annotations.

        The expensive part — compiling the plan and materializing the
        initial model — runs **outside** every lock; only the final
        :meth:`_swap` into the name table takes locks (a replaced
        view's, then the registry lock), so a slow registration never
        stalls traffic on other views.
        """
        if self.durability is not None and not isinstance(source, str):
            # The journal carries program *text* (the same text the
            # wire protocol delivers); an AST has no canonical source
            # to replay from.
            raise ValueError(
                "a durable service (data_dir set) registers programs "
                "from source text, not pre-parsed ASTs"
            )
        if semiring is None:
            semiring = self.default_semiring
        get_semiring(semiring)
        prepared = prepare_program(name, source)
        view = MaterializedView(
            prepared,
            database=database,
            semantics=semantics,
            registry=self.function_registry,
            metrics=ViewMetrics(sink=self.metrics),
            max_rounds=self.max_rounds,
            max_atoms=self.max_atoms,
            budget_factory=self._budget_factory(),
            queue_capacity=self.queue_capacity,
            semiring=semiring,
        )
        operation = None
        # (In durable mode ``source`` is guaranteed text, see above.)
        if isinstance(source, str):
            operation = {
                "op": "register",
                "view": name,
                "source": source,
                "semantics": semantics,
            }
            # Journaled only when non-boolean, so boolean-mode WAL
            # records stay byte-identical to the pre-semiring format
            # (and old logs replay as boolean).
            if semiring != "bool":
                operation["semiring"] = semiring
        self._swap(name, view, operation)
        # The generation bump already makes old entries unreachable;
        # dropping them here is memory hygiene, not correctness.
        self.cache.invalidate(name)
        self.metrics.bump("registrations")
        self._maybe_checkpoint()
        info = prepared.describe()
        info["semantics"] = semantics
        info["mode"] = view.mode
        if semiring != "bool":
            info["semiring"] = semiring
        return info

    def unregister(self, name: str) -> Dict[str, object]:
        """Drop a view, rolling its metrics into the service totals."""
        view, _generation = self._swap(
            name, None, {"op": "unregister", "view": name}
        )
        self.cache.invalidate(name)
        self.metrics.bump("unregistrations")
        self._maybe_checkpoint()
        return {
            "name": name,
            "mode": view.mode,
            "facts": view.database.fact_count(),
        }

    def _swap(
        self,
        name: str,
        view: Optional[MaterializedView],
        operation: Optional[Dict[str, object]],
    ) -> Optional[Tuple[MaterializedView, int]]:
        """Bind ``name`` to ``view`` (``None``: unbind it), journaling
        ``operation``; returns the displaced ``(view, generation)``.

        Takes the displaced view's lock *before* the registry lock (the
        one lock order: per-view lock, then registry lock), so an
        update that already verified that view as current finishes,
        journal record included, before the swap — the log orders it
        first, and an unregister never discards an acknowledged write.
        Under the registry lock it journals first (a failed append
        changes nothing, and no update can reach the new view before
        its record is in the log), absorbs the displaced view's metrics
        (a snapshot never sees them in both, or neither, of the live
        and retired sections), then publishes a fresh copy of the
        table: a lock-free resolver finds the whole old table or the
        whole new one, each a state the registry passed through.
        """
        while True:
            displaced = self._name_table.get().get(name)
            if displaced is None and view is None:
                raise KeyError(f"no view registered under {name!r}")
            hold = displaced[0].lock.held() if displaced else nullcontext()
            with hold, self._registry_lock:
                table = dict(self._name_table.get())
                if table.get(name) is not displaced:
                    continue  # lost a race with another register/unregister
                if operation is not None:
                    self._journal(operation)
                if displaced is not None:
                    self.metrics.absorb(displaced[0].metrics)
                if view is None:
                    del table[name]
                else:
                    self._generation_counter += 1
                    table[name] = (view, self._generation_counter)
                self._name_table.set(table)
                self.name_table_republishes += 1
                self.name_table_copied_cells += len(table)
                return displaced

    def name_table(self) -> Dict[str, Tuple[MaterializedView, int]]:
        """The published name table (lock-free; treat as immutable).

        The returned dict is the live published object: never mutate
        it.  Holding it across registrations is safe — it keeps
        describing the world it was published in.
        """
        return self._name_table.get()

    def view(self, name: str) -> MaterializedView:
        """Look up a registered view; raises ``KeyError`` when absent."""
        return self._resolve(name)[0]

    def _resolve(self, name: str) -> Tuple[MaterializedView, int]:
        """``(view, generation)`` off the published table (lock-free)."""
        try:
            return self._name_table.get()[name]
        except KeyError:
            raise KeyError(f"no view registered under {name!r}") from None

    def _is_current(self, name: str, view: MaterializedView) -> bool:
        """Does the published table still bind ``name`` to ``view``?"""
        entry = self._name_table.get().get(name)
        return entry is not None and entry[0] is view

    @contextmanager
    def _locked_view(
        self, name: str
    ) -> Iterator[Tuple[MaterializedView, int]]:
        """Resolve a view and hold its lock, verified still current.

        The name is resolved off the published table, the view lock is
        acquired, and then the binding is re-checked against the table
        published by then: a register/unregister that slipped in
        between leaves us holding the lock of an orphaned view, so we
        release it and resolve again.  ``KeyError`` propagates when the
        name is gone for good.  Per-view locks are never acquired under
        the registry lock, so the per-view → registry lock order is
        acyclic.
        """
        while True:
            view, generation = self._resolve(name)
            with view.lock.held():
                if self._is_current(name, view):
                    yield view, generation
                    return

    # -- queries --------------------------------------------------------------

    def _resolve_snapshot(self, name: str):
        """The wait-free read resolution: ``(view, generation, snapshot)``.

        Resolves the name off the published copy-on-write name table —
        one atomic reference load, zero lock acquisitions — then picks
        the view's published snapshot off its own atomic reference.
        Every view always has one: each state it reaches is published.
        """
        while True:
            view, generation = self._resolve(name)
            snapshot = view.read_snapshot()
            # Verify the binding is still current now that the snapshot
            # is in hand — a register/unregister that completed between
            # resolve and pickup must not have its replaced view served
            # (same verify-after-acquire discipline as _locked_view).
            if not self._is_current(name, view):
                continue
            view.metrics.bump("snapshot_reads")
            return view, generation, snapshot

    def _serve_true(self, view, name, generation, snapshot, predicate):
        """Answer a true-rows query from a published snapshot."""
        view.metrics.bump("queries")
        if snapshot.stale:
            # A stale answer must never be cached and outlive the
            # degradation.
            view.metrics.bump("stale_queries")
            return snapshot.rows(predicate)
        key = (name, generation, snapshot.generation, predicate, "true")
        fault_point("cache.get")
        cached = self.cache.get(key)
        if cached is not None:
            view.metrics.bump("cache_hits")
            return cached
        view.metrics.bump("cache_misses")
        rows = snapshot.rows(predicate)
        fault_point("cache.put")
        self.cache.put(key, rows)
        return rows

    def _serve_undefined(self, view, name, generation, snapshot, predicate):
        """Answer an undefined-rows query from a published snapshot."""
        if snapshot.stale:
            return snapshot.undefined_rows(predicate)
        key = (name, generation, snapshot.generation, predicate, "undefined")
        cached = self.cache.get(key)
        if cached is not None:
            view.metrics.bump("cache_hits")
            return cached
        view.metrics.bump("cache_misses")
        rows = snapshot.undefined_rows(predicate)
        self.cache.put(key, rows)
        return rows

    def query(self, name: str, predicate: str) -> FrozenSet[Row]:
        """True rows of a predicate, served through the LRU cache.

        Lock-free: the answer comes from the view's published snapshot,
        a complete model at some recent version.
        """
        self.metrics.bump("queries_total")
        view, generation, snapshot = self._resolve_snapshot(name)
        return self._serve_true(view, name, generation, snapshot, predicate)

    def undefined(self, name: str, predicate: str) -> FrozenSet[Row]:
        """Undefined rows of a predicate (three-valued semantics only)."""
        view, generation, snapshot = self._resolve_snapshot(name)
        return self._serve_undefined(view, name, generation, snapshot, predicate)

    def _read(self, name: str, predicate: str):
        """One predicate read, every part from **one** model state:
        ``(view, snapshot, true_rows, undefined_rows, stale)``.

        All of it comes from a single immutable snapshot, so it
        describes one model version even while updates land
        concurrently — and the snapshot is where a caller finds the row
        lines and the annotations of that same version.
        """
        self.metrics.bump("queries_total")
        view, generation, snapshot = self._resolve_snapshot(name)
        rows = self._serve_true(view, name, generation, snapshot, predicate)
        undefined = self._serve_undefined(view, name, generation, snapshot, predicate)
        return view, snapshot, rows, undefined, snapshot.stale

    def query_state(
        self, name: str, predicate: str
    ) -> Tuple[FrozenSet[Row], FrozenSet[Row], bool]:
        """``(true_rows, undefined_rows, stale)`` from **one** model
        state — one linearization point for the whole answer."""
        return self._read(name, predicate)[2:]

    def query_annotated(
        self, name: str, predicate: str
    ) -> Tuple[
        FrozenSet[Row],
        FrozenSet[Row],
        bool,
        Optional[Mapping[Row, str]],
    ]:
        """:meth:`query_state` plus the per-row annotation texts.

        The fourth element maps each true row to its semiring
        annotation in wire text, or is ``None`` for boolean views (the
        protocol emits no ``explain`` lines then).  All four come from
        the same snapshot, so rows and annotations describe one model
        version.
        """
        _view, snapshot, rows, undefined, stale = self._read(name, predicate)
        return rows, undefined, stale, snapshot.annotations_for(predicate)

    def query_lines(
        self, name: str, predicate: str
    ) -> Tuple[List[str], List[str], bool, List[str]]:
        """:meth:`query_annotated` as the ``query`` verb replies: the
        true rows as sorted ``row <atom>`` lines, the undefined rows as
        sorted ``undef <atom>`` lines, the staleness flag, and the
        annotations as sorted ``explain <atom> @ <text>`` lines (none
        for a boolean view).

        All three line lists are memoized on the answering snapshot and
        carried from snapshot to snapshot by delta, so a full read costs
        its answer plus the rows changed since the last one — not a
        format and a sort of the whole relation.  The lists are the
        shared memos: do not mutate them.  ``rows_scanned`` counts the
        ``row`` and ``explain`` lines formatted.
        """
        view, snapshot, _rows, _undefined, stale = self._read(name, predicate)
        lines, formatted = snapshot.lines(predicate)
        undefined, _ = snapshot.undefined_lines(predicate)
        explain, explained = snapshot.explain_lines(predicate)
        view.metrics.bump("rows_scanned", formatted + explained)
        return lines, undefined, stale, explain

    # -- bound-pattern queries ------------------------------------------------

    def query_pattern(
        self,
        name: str,
        predicate: str,
        args: Iterable[Optional[Value]],
    ) -> Tuple[FrozenSet[Row], FrozenSet[Row], bool]:
        """Answer a bound pattern like ``tc(a, _)`` off the view's
        published snapshot.

        ``args`` has one element per argument position: a value for a
        bound position, ``None`` for a free one.  The answer is the
        rows of the view's model that match — the deductive query
        ``R(a, x)?`` read off the model the view already publishes —
        found by :meth:`~repro.service.snapshot.ModelSnapshot.probe` in
        a hash index per pattern shape, which a snapshot builds on the
        shape's first probe and carries to the next version by delta.
        Lock-free like every read, the same on every engine and
        semantics, and a write pays nothing for the patterns read.
        An all-free pattern is a full read.  Returns ``(true_rows,
        undefined_rows, stale)`` like :meth:`query_state`.
        """
        args = tuple(args)
        if all(value is None for value in args):
            return self.query_state(name, predicate)
        view, _generation, snapshot = self._resolve_snapshot(name)
        arity = view.prepared.arities.get(predicate)
        if arity is not None and arity != len(args):
            raise ValueError(
                f"{predicate} has arity {arity}, pattern has {len(args)} "
                "arguments"
            )
        self.metrics.bump("queries_total")
        rows, undefined, scanned = snapshot.probe(predicate, args)
        read = {"queries": 1, "rows_scanned": scanned}
        if snapshot.stale:
            read["stale_queries"] = 1
        view.metrics.bump_many(read)
        return rows, undefined, snapshot.stale

    def _request_timeout(self) -> Optional[float]:
        """The per-request deadline in seconds (None = unbounded)."""
        if self.deadline_ms is None:
            return None
        return self.deadline_ms / 1000.0

    def _build_demand_entry(
        self,
        name: str,
        generation: int,
        predicate: str,
        adornment: str,
        entry,
    ) -> None:
        """Materialize a magic-rewritten view of one binding pattern
        into ``entry`` (a :class:`~repro.service.demand.DemandEntry`),
        built from the base view's database under its lock.

        Not on the serve path — :meth:`query_pattern` probes the base
        view's snapshot — but kept callable with
        :mod:`repro.service.demand` while ``bench/trace.py`` names it
        as a span target.
        """
        from ..datalog.magic import magic_transform

        with self._locked_view(name) as (view, current):
            if current != generation:
                raise KeyError(
                    f"view {name!r} was replaced while its demand entry "
                    "was being built"
                )
            transform = magic_transform(
                view.prepared.program, predicate, adornment
            )
            if not transform.demand_driven:
                entry.complete(None, transform)
                return
            prepared = prepare_program(
                f"{name}@{predicate}@{adornment}", transform.program
            )
            demand_view = MaterializedView(
                prepared,
                database=view.database,
                semantics="stratified",
                registry=self.function_registry,
                metrics=ViewMetrics(sink=self.metrics),
                max_rounds=self.max_rounds,
                max_atoms=self.max_atoms,
                budget_factory=self._budget_factory(),
                queue_capacity=self.queue_capacity,
            )
            entry.complete(demand_view, transform)

    # -- updates --------------------------------------------------------------

    def update(
        self,
        name: str,
        inserts: Iterable[Tuple[str, Row]] = (),
        deletes: Iterable[Tuple[str, Row]] = (),
        annotations: Optional[Mapping[Tuple[str, Row], object]] = None,
    ) -> Dict[str, object]:
        """Apply an update batch to a view; invalidates its cache scope.

        ``annotations`` (annotated views only) maps ``(predicate, row)``
        of inserted facts to a semiring annotation — wire text (parsed
        with the view's semiring) or an already-parsed carrier value.
        Annotations are **absolute**: an insert with one replaces the
        fact's current annotation outright, which is what makes WAL
        replay idempotent.

        An ``ok`` means the batch landed in a view still registered for
        the whole apply (:meth:`unregister` cannot pop a view whose lock
        is held; a concurrent *replace* retires it: replacement wins).
        """
        [outcome] = self._commit(name, [(list(inserts), list(deletes), annotations)])
        if isinstance(outcome, BaseException):
            raise outcome
        self._maybe_checkpoint()
        return outcome

    def _commit(
        self, name: str, batches: List[Tuple[list, list, Optional[Mapping]]]
    ) -> List[object]:
        """Apply ``(inserts, deletes, annotations)`` batches to one view,
        in order.

        Returns one outcome per batch: its summary, or the exception it
        died with.  :meth:`update` passes its one batch and re-raises;
        WAL replay passes a run of consecutive journaled batches — at
        most ``queue_capacity`` of them, nobody else drains during
        recovery — which then reach the engine exactly as a burst of
        concurrent writers would.

        Every batch is a ticket: its annotations are parsed with the
        view's semiring first (a bad one fails only its own batch),
        then it is submitted to the view's bounded queue and the
        submitter races for the view lock.  The winner (leader) drains
        the queue ``coalesce`` tickets per engine pass; the losers find
        their tickets already settled when they get the lock.  An
        ``ok`` ack still means the batch landed in a view that was
        verified current by whoever applied it.  Both queue waits — for
        space at submit, for the leader at outcome — are bounded by the
        request deadline: a leader that died on a fault leaves parked
        writers with a wire-coded ``update-timeout`` instead of a hang,
        and a timed-out ticket is withdrawn so it cannot apply later.
        """
        self.metrics.bump("updates_total", len(batches))
        outcomes: List[object] = [None] * len(batches)
        timeout = self._request_timeout()
        unsent = list(range(len(batches)))
        while unsent:
            queue, tickets, failure = None, {}, None
            try:
                view, _generation = self._resolve(name)
                queue = view.pending
                for index in unsent:
                    inserts, deletes, annotations = batches[index]
                    try:
                        parsed = self._parse_annotations(view, annotations)
                    except ValueError as exc:
                        outcomes[index] = exc
                        continue
                    tickets[index] = queue.submit(
                        inserts, deletes, parsed, timeout=timeout
                    )
                with view.lock.held():
                    if self._is_current(name, view):
                        # Leader duty: drain until our own tickets are
                        # settled (the queue may hold more than one
                        # coalescing window's worth).
                        for ticket in tickets.values():
                            while not ticket.done:
                                self._drain_updates(name, view)
            except BaseException as exc:
                # An unknown view, a queue that stayed full, or
                # typically the service.lock fault point.
                failure = exc
            resubmit = []
            for index in unsent:
                ticket = tickets.get(index)
                if ticket is not None and (
                    ticket.done or not queue.withdraw(ticket)
                ):
                    # Settled, or a leader owns it: the leader's outcome
                    # is the truth about this batch.
                    outcomes[index] = self._leader_outcome(ticket, timeout)
                elif outcomes[index] is not None:
                    pass  # its annotations never parsed
                elif failure is not None:
                    # Never queued, or withdrawn while still queued: the
                    # batch never ran and never will.
                    outcomes[index] = failure
                else:
                    # The binding changed under us and nobody processed
                    # the ticket: resubmit against the replacement
                    # (KeyError when truly gone).
                    resubmit.append(index)
            unsent = resubmit
        return outcomes

    @staticmethod
    def _leader_outcome(ticket, timeout: Optional[float]) -> object:
        try:
            try:
                return ticket.outcome(timeout)
            except UpdateTimeout:
                # A leader grabbed the ticket right at the deadline; its
                # outcome is authoritative and imminent — give it one
                # grace period before reporting the timeout (after which
                # the batch's fate is genuinely unknown).
                return ticket.outcome(timeout)
        except Exception as exc:
            return exc

    def _parse_annotations(
        self,
        view: MaterializedView,
        annotations: Optional[Mapping[Tuple[str, Row], object]],
    ) -> Optional[Dict[Tuple[str, Row], object]]:
        """Resolve an update's annotation payload against its view,
        keyed ``(predicate, row tuple)`` (``None`` when there is none).

        Wire-text strings are parsed with the view's semiring; values
        of any other type are assumed to already be carrier values
        (programmatic callers).  Boolean views reject annotations —
        there is no algebra to interpret them in.
        """
        if not annotations:
            return None
        if view.semiring == "bool":
            raise ValueError(
                "annotations require an annotated view; register with "
                "--semiring=<name> first"
            )
        parse = view.semiring_obj.parse
        return {
            (predicate, tuple(row)): parse(value) if isinstance(value, str) else value
            for (predicate, row), value in annotations.items()
        }

    def _journal_update(self, name: str, view: MaterializedView, ticket) -> None:
        """Journal one applied batch (inside the view hold): a failed
        batch never reaches the log, the ack follows the append, and a
        crash in between loses only a never-acknowledged batch.

        Annotated inserts are journaled as ``fact @ text`` with the
        *canonical* text (format after parse) — the same shape the
        wire protocol accepts, so recovery replays exactly what a live
        client could have sent.  Un-annotated batches keep the exact
        pre-semiring record format.
        """
        if self.durability is None:
            return
        inserts = [format_fact(predicate, row) for predicate, row in ticket.inserts]
        annotations = ticket.annotations
        if annotations:
            text = view.semiring_obj.format
            for index, (predicate, row) in enumerate(ticket.inserts):
                value = annotations.get((predicate, tuple(row)))
                if value is not None:
                    inserts[index] += f" @ {text(value)}"
        self._journal(
            {
                "op": "update",
                "view": name,
                "inserts": inserts,
                "deletes": [
                    format_fact(predicate, row)
                    for predicate, row in ticket.deletes
                ],
            }
        )

    def _drain_updates(self, name: str, view: MaterializedView) -> None:
        """Group-commit leader duty, under the verified view hold.

        Drains up to ``coalesce`` queued tickets and absorbs them in
        one :meth:`MaterializedView.apply_stream` pass — one engine
        pass, one snapshot publish — each ticket's annotations beside
        its batch.  A burst that fails as a unit is retried
        ticket-by-ticket so a poisoned batch cannot fail innocent
        neighbours (the view rolled the burst back before re-raising).
        Every ticket is settled with its summary or its error; this
        method itself re-raises nothing ticket-attributable.
        """
        tickets = view.pending.drain(self.coalesce)
        if len(tickets) > 1:
            try:
                summary = view.apply_stream(
                    [(ticket.inserts, ticket.deletes) for ticket in tickets],
                    [ticket.annotations for ticket in tickets],
                )
            except BaseException:
                # Burst-level failure (including cancellation): the
                # view restored (or rebuilt) its pre-burst state; fall
                # through to per-ticket retry so every drained ticket is
                # settled — an unsettled ticket would strand its owner.
                pass
            else:
                summary = dict(summary)
                summary["coalesced"] = len(tickets)
                self._settle(name, view, tickets, summary)
                return
        for ticket in tickets:
            try:
                summary = view.apply(
                    inserts=ticket.inserts,
                    deletes=ticket.deletes,
                    annotations=ticket.annotations,
                )
            except BaseException as exc:
                self.cache.invalidate(name)
                ticket.fail(exc)
            else:
                self._settle(name, view, [ticket], summary)

    def _settle(
        self,
        name: str,
        view: MaterializedView,
        tickets: List,
        summary: Dict[str, object],
    ) -> None:
        """After ``tickets`` were applied as one pass: invalidate the
        cache — inside the hold, so a concurrent query cannot re-cache
        pre-batch rows — journal each batch in drain order (replay
        order equals apply order), then ack them all."""
        try:
            self.cache.invalidate(name)
            for ticket in tickets:
                self._journal_update(name, view, ticket)
        except BaseException as exc:
            # Applied but not (fully) journaled: nobody is acked,
            # recovery replays only the journaled prefix — the
            # acked ⇒ journaled invariant holds.
            for ticket in tickets:
                ticket.fail(exc)
            return
        for ticket in tickets:
            ticket.complete(summary)

    def insert(self, name: str, predicate: str, *args: Value) -> Dict[str, object]:
        """Insert one fact into a view's database."""
        return self.update(name, inserts=[(predicate, tuple(args))])

    def delete(self, name: str, predicate: str, *args: Value) -> Dict[str, object]:
        """Delete one fact from a view's database."""
        return self.update(name, deletes=[(predicate, tuple(args))])

    # -- observability --------------------------------------------------------

    def stats(self, name: Optional[str] = None) -> Dict[str, object]:
        """Metrics for one view, or the whole service."""
        if name is not None:
            return self.view(name).stats()
        return {
            "views": {
                view_name: view.stats()
                for view_name, (view, _generation) in self.name_table().items()
            },
            "cache": self.cache.stats(),
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The full service-level observability snapshot.

        ``rollup[c] == retired[c] + Σ views[*].counters[c]`` holds by
        construction: the view stats and the retired counters are read
        in one registry-lock hold, the lock under which register and
        unregister absorb a departing view, so no view is in both
        sections or in neither.
        """
        with self._registry_lock:
            view_stats = {
                name: view.stats()
                for name, (view, _generation) in self.name_table().items()
            }
            snapshot = self.metrics.snapshot()
        rollup: Dict[str, int] = dict(snapshot["retired"])
        for stats in view_stats.values():
            merge_counters(rollup, stats["counters"])
        snapshot["rollup"] = rollup
        gauges = snapshot["gauges"] = {
            "views_registered": len(view_stats),
            "stale_views": sum(
                1 for stats in view_stats.values() if stats["stale"]
            ),
            "inflight_requests": self.metrics.inflight,
        }
        for gauge in declared(GAUGE, VIEW):
            gauges[gauge.name] = {
                name: stats[gauge.key] for name, stats in view_stats.items()
            }
        # The name table's copy-on-write churn (publishes, cells copied).
        gauges["name_table_republishes"] = self.name_table_republishes
        gauges["name_table_copied_cells"] = self.name_table_copied_cells
        snapshot["views"] = view_stats
        snapshot["cache"] = self.cache.stats()
        snapshot["coalesce"] = self.coalesce
        if self.durability is not None:
            snapshot["durability"] = self.durability.describe()
            gauges["wal_size"] = self.durability.wal_size_bytes()
            gauges["recovered_generation"] = self.durability.generation
        return snapshot


# ---------------------------------------------------------------------------
# The line protocol
# ---------------------------------------------------------------------------


#: ``json.dumps(value, sort_keys=True)`` without building an encoder
#: per reply.
_to_json = json.JSONEncoder(sort_keys=True).encode


def _update(service: QueryService, request: Request) -> List[str]:
    predicate, row, annotation = parse_annotated_fact(request.text)
    fact = (predicate, row)
    if request.verb == "-":
        if annotation is not None:
            return ["error annotations apply to inserts only"]
        summary = service.update(request.name, deletes=[fact])
    else:
        annotations = None if annotation is None else {fact: annotation}
        summary = service.update(
            request.name, inserts=[fact], annotations=annotations
        )
    reply = {k: v for k, v in summary.items() if isinstance(v, (str, int))}
    return [f"ok {_to_json(reply)}"]


def _query(service: QueryService, request: Request) -> List[str]:
    explain: List[str] = []
    if request.bound:
        # ``query <view> tc(a, _)``: probed off the view's snapshot.
        predicate, pattern_args = parse_bound_pattern(request.text)
        rows, undefined, stale = service.query_pattern(
            request.name, predicate, pattern_args
        )
        lines = sorted(f"row {format_fact(predicate, row)}" for row in rows)
        undefined_lines = sorted(
            f"undef {format_fact(predicate, row)}" for row in undefined
        )
    else:
        shared, undefined_lines, stale, explain = service.query_lines(
            request.name, request.text
        )
        lines = list(shared)  # the snapshot's memo stays untouched
    count = len(lines)
    lines += undefined_lines
    # Annotated views explain every true row: its semiring annotation
    # in wire text (for why-provenance, the lineage witnesses).
    # Boolean views have no explain lines, keeping their replies
    # byte-identical to the pre-semiring wire.
    lines += explain
    # A degraded view answers from its last consistent model; the
    # client sees the staleness on the wire, not silently.
    suffix = " stale" if stale else ""
    lines.append(f"ok {count} rows{suffix}")
    return lines


def _execute(service: QueryService, request: Request) -> List[str]:
    """Run one parsed request against the service: its reply lines."""
    verb, name = request.verb, request.name
    if verb == "+" or verb == "-":
        return _update(service, request)
    if verb == "query":
        return _query(service, request)
    if verb == "register":
        semantics, semiring = request.semantics, request.semiring
        info = service.register(
            name, request.text, semantics=semantics, semiring=semiring
        )
    elif verb == "unregister":
        info = service.unregister(name)
    elif verb == "stats":
        info = service.stats(name)
    elif verb == "views":
        # Served off the published name table — wait-free, like queries.
        info = sorted(service.name_table())
    elif request.text == "prometheus":  # metrics --format=prometheus
        from .prometheus import render_prometheus

        text = render_prometheus(service.metrics_snapshot())
        return text.splitlines() + ["ok prometheus"]
    else:
        info = service.metrics_snapshot()
    return [f"ok {_to_json(info)}"]


def _handle_line(service: QueryService, line: str) -> List[str]:
    """The reply lines to one request line, a failure's included."""
    try:
        with service.metrics.request():
            return _execute(service, parse(line, SERVE_VERBS))
    except Exception as exc:  # not KeyboardInterrupt, not SystemExit
        return error_reply(exc, line, service.metrics.bump, logger)


def serve_stream(
    service: QueryService,
    lines: Iterable[str],
    write: Callable[[str], None],
    max_request_bytes: Optional[int] = None,
    flush: Callable[[], None] = lambda: None,
) -> None:
    """Run the protocol over a line source and a reply sink.

    ``write`` receives every reply line; ``flush`` is called once per
    request, after its last reply line — the point at which a buffering
    sink sends the whole reply in one piece.
    ``max_request_bytes`` rejects oversized request lines with a
    structured ``request-too-large`` error instead of parsing them.
    Blank and ``#`` lines get no reply.
    The service is thread-safe (a copy-on-write name table + per-view
    locks), so several streams may run against it at once.
    """
    for raw in lines:
        if max_request_bytes is not None and (
            len(raw.encode("utf-8", errors="replace")) > max_request_bytes
        ):
            message = f"request line exceeds {max_request_bytes} bytes"
            write(error_line(RequestTooLarge(message)))
            flush()
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in QUIT:
            write("ok bye")
            flush()
            return
        for reply in _handle_line(service, line):
            write(reply)
        flush()


def serve_unix_socket(
    service: QueryService,
    path: str,
    max_connections: Optional[int] = None,
    max_concurrent: int = 8,
    max_request_bytes: Optional[int] = None,
    stop_event: Optional["threading.Event"] = None,
    on_listen: Optional[Callable[[], None]] = None,
) -> None:
    """Serve the protocol on a unix socket.

    Connections are handled on worker threads, at most
    ``max_concurrent`` at a time (further clients queue in the listen
    backlog), each running :func:`serve_stream`; requests on different
    views proceed in parallel.  ``max_connections`` bounds how many
    connections are accepted (None = until interrupted); on the way out
    the server stops accepting and **drains**: live connections finish
    their streams before the socket file is removed.

    ``stop_event`` (optional) requests a graceful shutdown from outside
    (a signal handler sets it): the accept loop notices within its poll
    interval and shuts the read side of every live connection — an idle
    handler sees EOF at once, a busy one sends its reply first — then
    joins the handlers for :data:`DRAIN_SECONDS` in all, so a client
    that never reads cannot hold shutdown hostage.  The caller then
    closes the service, which takes the final durability checkpoint.

    ``on_listen`` (optional) is called once the socket accepts
    connections: ``repro serve`` announces itself there, so a process
    that waits for the announcement can connect at once.

    A request's reply leaves in one write, however many lines it has.
    """
    socket_path = Path(path)
    socket_path.unlink(missing_ok=True)
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    slots = threading.BoundedSemaphore(max(1, max_concurrent))
    workers: List[threading.Thread] = []
    # Added by the accept loop, discarded by each handler on its way
    # out; the stop path below shuts down whatever is left.
    live: Set[socket.socket] = set()
    stopping = stop_event if stop_event is not None else threading.Event()

    def handle(connection: socket.socket) -> None:
        reply: List[str] = []

        def send_reply() -> None:
            reply.append("")  # the last line's newline
            connection.sendall("\n".join(reply).encode("utf-8"))
            reply.clear()

        try:
            with connection, connection.makefile(
                "r", encoding="utf-8"
            ) as reader:
                serve_stream(
                    service,
                    reader,
                    reply.append,
                    max_request_bytes=max_request_bytes,
                    flush=send_reply,
                )
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-reply; nothing to salvage
        finally:
            live.discard(connection)
            slots.release()

    try:
        server.bind(str(socket_path))
        server.listen(max(1, max_concurrent))
        if on_listen is not None:
            on_listen()
        # Poll so a stop request (signal handler, supervising thread)
        # is noticed even while blocked waiting for clients.
        server.settimeout(0.2)
        accepted = 0
        while not stopping.is_set() and (
            max_connections is None or accepted < max_connections
        ):
            if not slots.acquire(timeout=0.2):
                continue
            try:
                connection, _address = server.accept()
            except socket.timeout:
                slots.release()
                continue
            except BaseException:
                slots.release()
                raise
            accepted += 1
            live.add(connection)
            worker = threading.Thread(
                target=handle, args=(connection,), daemon=True
            )
            workers.append(worker)
            worker.start()
            workers = [w for w in workers if w.is_alive()]
    finally:
        # Graceful drain: stop accepting, let live connections finish.
        # On the stop path nobody waits for clients to hang up: their
        # connections read EOF from here on.  The joins share one
        # deadline there — SIGTERM must win even against clients that
        # never read.
        deadline = None
        if stopping.is_set():
            deadline = time.monotonic() + DRAIN_SECONDS
            for connection in list(live):
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # its handler closed it first
        for worker in workers:
            worker.join(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
        server.close()
        socket_path.unlink(missing_ok=True)
