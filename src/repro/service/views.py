"""Materialized views: resident models maintained under updates.

A :class:`MaterializedView` binds a prepared program to its own
database and keeps the model resident between queries:

* ``semantics="stratified"`` on a stratified program takes the
  **incremental fast path**: by default (``maintenance="dbsp"``) a
  :class:`~repro.service.dbsp.DBSPEngine` maintains the model as the
  integral of a delta stream — a burst of N update batches submitted
  through :meth:`MaterializedView.apply_stream` is differentiated into
  one net Z-set delta, absorbed in **one** circuit pass, and published
  with **one** snapshot swap.  ``maintenance="legacy"`` keeps the
  counting/DRed :class:`~repro.service.incremental.IncrementalEngine`
  as the per-batch bench baseline;
* ``semantics="valid"`` / ``"wellfounded"`` on a non-stratified
  program is maintained the same way, by an
  :class:`~repro.service.dbsp.AlternatingEngine`: the alternating
  fixpoint as a chain of those circuits, whose every write reports the
  net delta of the true **and** the undefined rows (on a stratified
  program both semantics are the stratified model, so the plain engine
  serves them);
* ``inflationary`` views, and any boolean view forced off the fast path
  with ``incremental=False``, route updates through the **recompute
  path**: the database is mutated, the resident result invalidated, and
  the next query re-evaluates — reusing the prepared plan's
  fingerprint-keyed ground cache when the database revisits a known
  state.

Snapshot publication (the primary read path): every consistent model
the view reaches is published as an immutable, versioned
:class:`~repro.service.snapshot.ModelSnapshot` — true *and* undefined
rows — via a single atomic reference swap.  Readers pick the snapshot
off the reference with no lock; writers maintain it **incrementally**,
applying each batch's net plus/minus delta to the previous snapshot
(O(|delta|)) instead of re-copying the whole model.

Failure discipline (the robustness contract, tested by the chaos
suite in ``tests/robustness``):

* a failed delta **never leaves a half-applied view** — when
  maintenance raises mid-batch the EDB is rolled back by the inverse
  batch and the resident model rebuilt from scratch (wrapped in
  :func:`~repro.robustness.retry_with_backoff`);
* if even the rebuild keeps failing, the view enters **degraded mode**:
  it re-publishes its last consistent snapshot flagged ``stale``
  (copy-on-degrade — the cells are shared, so nothing is copied) and
  serves it, **both truth statuses included**, instead of crashing or
  serving a corrupted model.  The next successful update or recompute
  clears the flag.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..datalog.database import Database
from ..datalog.engine import SEMANTICS, QueryResult, run
from ..datalog.stratification import NotStratifiedError
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from ..robustness import (
    Cancelled,
    EvaluationBudget,
    ReproError,
    ViewDegraded,
    fault_point,
    retry_with_backoff,
)
from ..semiring import get_semiring
from .annotated import AnnotatedEngine
from .dbsp import AlternatingEngine, DBSPEngine, UpdateQueue
from .incremental import IncrementalEngine, IncrementalMaintenanceError
from .locks import AtomicReference
from .metrics import ViewMetrics
from .registry import PreparedProgram
from .snapshot import ModelSnapshot

__all__ = ["MaterializedView"]

Row = Tuple[Value, ...]


class MaterializedView:
    """One registered program's resident, update-maintained model.

    ``budget_factory`` (optional) supplies a fresh
    :class:`~repro.robustness.EvaluationBudget` per expensive operation
    (recompute, incremental batch) — the hook the service layer uses to
    impose per-request deadlines.

    ``compact_on_publish`` turns on the in-line snapshot compactor:
    every ``compact_interval``-th publish flattens delta chains deeper
    than ``compact_depth`` (see :meth:`maybe_compact`), so a write
    burst with no interleaved reads cannot leave the next reader a deep
    chain walk.  Off by default for directly-constructed views; the
    :class:`~repro.service.server.QueryService` turns it on under its
    ``compactor="on-publish"`` mode (and its ``"thread"`` mode calls
    :meth:`maybe_compact` from a background thread instead).
    """

    def __init__(
        self,
        prepared: PreparedProgram,
        database: Optional[Database] = None,
        semantics: str = "stratified",
        registry: Optional[FunctionRegistry] = None,
        metrics: Optional[ViewMetrics] = None,
        incremental: bool = True,
        maintenance: str = "dbsp",
        max_rounds: int = 10_000,
        max_atoms: int = 1_000_000,
        budget_factory: Optional[Callable[[], EvaluationBudget]] = None,
        recovery_attempts: int = 3,
        compact_on_publish: bool = False,
        compact_depth: int = 4,
        compact_interval: int = 8,
        queue_capacity: int = 256,
        semiring: str = "bool",
    ):
        if semantics not in SEMANTICS:
            raise ValueError(
                f"unknown semantics {semantics!r}; pick from {SEMANTICS}"
            )
        if maintenance not in ("dbsp", "legacy"):
            raise ValueError(
                f"unknown maintenance {maintenance!r}; pick 'dbsp' or 'legacy'"
            )
        if semantics == "stratified" and not prepared.stratified:
            raise NotStratifiedError(
                f"program {prepared.name!r} is not stratified; register it "
                "under the valid or wellfounded semantics instead"
            )
        # The annotation algebra.  ``"bool"`` is the zero-overhead fast
        # path: exactly the pre-annotation engines and publish paths,
        # byte-identical answers.  Anything else materializes through
        # :class:`~repro.service.annotated.AnnotatedEngine` and serves
        # per-row annotations from its snapshots.
        self.semiring = semiring
        self.semiring_obj = get_semiring(semiring)
        if semiring != "bool" and semantics != "stratified":
            raise ValueError(
                f"semiring {semiring!r} requires the stratified semantics "
                f"(got {semantics!r}); only boolean views serve the "
                "3-valued semantics"
            )
        self.prepared = prepared
        self.semantics = semantics
        self.maintenance = maintenance
        self.registry = registry
        self.metrics = metrics if metrics is not None else ViewMetrics()
        self.max_rounds = max_rounds
        self.max_atoms = max_atoms
        self.budget_factory = budget_factory
        self.recovery_attempts = recovery_attempts
        self.compact_on_publish = compact_on_publish
        self.compact_depth = compact_depth
        self.compact_interval = max(1, compact_interval)
        self._publish_count = 0
        # Degraded-mode state: when ``stale`` is True, queries answer
        # from the published snapshot (the last consistent model, both
        # truth statuses) instead of the (unavailable or rebuilding)
        # live model.
        self.stale = False
        self._last_error: Optional[str] = None
        # The published snapshot cell: ``(snapshot, servable)``.  Both
        # fields swap together so lock-free readers can never pair a
        # fresh flag with an outdated snapshot.  ``servable`` is False
        # while a recompute-mode view's model trails its database (the
        # next read must take the locked path and re-evaluate).
        self._published: AtomicReference = AtomicReference((None, False))
        self._generation = 0
        # An annotated view is always engine-backed (its snapshots need
        # the annotation maps); ``incremental=False`` there only makes
        # the engine re-initialize per batch instead of maintaining.
        # The requested flag is kept verbatim so checkpoints can
        # re-register the view the same way (``mode`` alone conflates
        # the two).
        self.incremental = bool(incremental)
        self.mode = (
            "incremental"
            if (incremental or semiring != "bool")
            and semantics != "inflationary"
            else "recompute"
        )
        # The bounded group-commit queue: the server's update verb
        # submits batches here and the view-lock leader drains them
        # into one apply_stream pass (write pipelining for free on both
        # the single-process and cluster worker tiers).
        self.pending = UpdateQueue(queue_capacity)
        self.engine = None
        # The engine again when it is an alternating chain — the one
        # engine whose models have undefined rows.
        self._chain: Optional[AlternatingEngine] = None
        self._result: Optional[QueryResult] = None
        if self.mode == "incremental":
            with self.metrics.phase("initialize"):
                # The initial materialization runs under a request
                # budget too — a divergent program must hit its
                # deadline at registration, not loop forever.
                if self.semiring != "bool":
                    self.engine = AnnotatedEngine(
                        prepared,
                        self.semiring_obj,
                        database=database,
                        registry=registry,
                        metrics=self.metrics,
                        budget=self._budget(),
                        differential=incremental,
                    )
                else:
                    # Valid and well-founded are the stratified model on
                    # a stratified program; only negation through
                    # recursion needs the alternating chain.
                    engine_cls = (
                        AlternatingEngine
                        if not prepared.stratified
                        else DBSPEngine
                        if maintenance == "dbsp"
                        else IncrementalEngine
                    )
                    self.engine = engine_cls(
                        prepared,
                        database=database,
                        registry=registry,
                        metrics=self.metrics,
                        budget=self._budget(),
                    )
                    if engine_cls is AlternatingEngine:
                        self._chain = self.engine
            self.engine.budget = None
            self.database = self.engine.edb
            self._publish_model()
        else:
            self.database = (database or Database()).copy()
            for predicate, row in prepared.seed_facts:
                if not self.database.holds(predicate, *row):
                    self.database.add(predicate, *row)

    def _budget(self) -> Optional[EvaluationBudget]:
        return self.budget_factory() if self.budget_factory is not None else None

    # -- snapshot publication -------------------------------------------------

    def _publish(self, snapshot: ModelSnapshot) -> None:
        """Swap a new snapshot in (writers only, under the view lock)."""
        self._generation = snapshot.generation
        self._published.set((snapshot, True))
        self.metrics.bump("snapshot_swaps")
        # Compact-on-Nth-publish: bound the chain walk a write-heavy /
        # read-light burst would otherwise leave for the first reader.
        self._publish_count += 1
        if (
            self.compact_on_publish
            and self._publish_count % self.compact_interval == 0
        ):
            self.maybe_compact()

    def maybe_compact(self) -> int:
        """Flatten the published snapshot's delta chains past the cap.

        Safe from any thread at any time: compaction only forces the
        same lazy materialization a reader performs, so the snapshot's
        observable contents (rows, fingerprint) never change.  Returns
        the number of cells compacted (0 when the chains are already
        within ``compact_depth``).
        """
        snapshot, _servable = self._published.get()
        if snapshot is None or snapshot.max_chain_depth() <= self.compact_depth:
            return 0
        with self.metrics.phase("compact"):
            cells, rows = snapshot.compact(self.compact_depth)
        if cells:
            self.metrics.bump("compactions")
            self.metrics.bump("compaction_rows", rows)
        return cells

    def chain_depth(self) -> int:
        """The published snapshot's deepest delta chain (the gauge)."""
        snapshot, _servable = self._published.get()
        return snapshot.max_chain_depth() if snapshot is not None else 0

    def alternation_levels(self) -> int:
        """Circuits in the view's alternating chain (the gauge): a
        write costs this many passes over its delta.  0 when the view
        is not maintained by a chain."""
        return len(self._chain.levels) if self._chain is not None else 0

    def _annotations(self) -> Optional[Dict[str, Dict[Row, str]]]:
        """The engine's wire-text annotation maps (None on the boolean
        fast path — boolean snapshots never carry annotations)."""
        if self.semiring == "bool" or self.engine is None:
            return None
        return self.engine.wire_annotations()

    def _publish_full(
        self,
        true_rows: Dict[str, FrozenSet[Row]],
        undefined_rows: Optional[Dict[str, FrozenSet[Row]]] = None,
        annotations: Optional[Dict[str, Dict[Row, str]]] = None,
    ) -> None:
        self._publish(
            ModelSnapshot.full(
                true_rows,
                undefined_rows,
                generation=self._generation + 1,
                annotations=annotations,
            )
        )

    def _publish_model(self) -> None:
        """Publish the engine's whole model, both truth statuses."""
        chain = self._chain
        self._publish_full(
            self.engine.model(),
            chain.undefined_model() if chain is not None else None,
            annotations=self._annotations(),
        )

    def _publish_maintained(self, summary: Dict[str, object]) -> None:
        """Publish what one engine pass left, given its summary.

        Incremental snapshot maintenance: the engine's net plus/minus
        delta — of the true rows and, from a chain, the undefined rows,
        from an annotated engine the annotation texts — is applied to
        the previous snapshot, O(|delta|), not a full model copy.
        """
        with self.metrics.phase("snapshot"):
            snapshot, _servable = self._published.get()
            assert snapshot is not None
            self._publish(
                snapshot.apply_delta(
                    summary["plus"],
                    summary["minus"],
                    self._generation + 1,
                    summary.get("undefined_plus"),
                    summary.get("undefined_minus"),
                    summary.get("annotated_plus"),
                    summary.get("annotated_minus"),
                )
            )

    def _publish_stale(self) -> None:
        snapshot, _servable = self._published.get()
        if snapshot is not None and not snapshot.stale:
            self._publish(snapshot.as_stale(self._generation + 1))

    def _invalidate_snapshot(self) -> None:
        """Mark the snapshot unservable (model trails the database).

        Also advances the generation: a racing lock-free reader may
        re-insert a cache entry keyed to the last servable snapshot
        *after* the server's invalidation sweep, and the locked query
        path must never hit it once the model trails the database —
        the bumped generation changes every subsequent cache key.
        """
        snapshot, _servable = self._published.get()
        self._generation += 1
        self._published.set((snapshot, False))

    def read_snapshot(self) -> Optional[ModelSnapshot]:
        """The currently served model snapshot, or None when a
        recompute is pending (or nothing was ever materialized).

        Lock-free: safe to call from any thread at any time.  The
        returned snapshot is immutable — holding it across later
        updates keeps serving the same consistent version.
        """
        snapshot, servable = self._published.get()
        return snapshot if servable else None

    def snapshot_generation(self) -> int:
        """The published snapshot's generation (monotone per view)."""
        return self._generation

    def served_snapshot(self) -> ModelSnapshot:
        """The model the view last answered from (lock-free).

        Unlike :meth:`read_snapshot` this never withholds: a reader that
        just evaluated under the view lock, or a degraded view serving
        its last consistent model, reads the rows it answered with
        here.
        """
        snapshot, _servable = self._published.get()
        assert snapshot is not None
        return snapshot

    # -- queries --------------------------------------------------------------

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Rows of a predicate that are certainly true.

        In degraded mode this serves the last consistent snapshot —
        check :attr:`stale` (the server surfaces it on the wire)."""
        self.metrics.bump("queries")
        if self.stale:
            self.metrics.bump("stale_queries")
            return self.served_snapshot().rows(predicate)
        if self.engine is not None:
            return self.engine.rows(predicate)
        try:
            return self._ensure_result().true_rows(predicate)
        except ViewDegraded:
            # The recompute just failed; degrade in place and answer
            # from the last consistent snapshot rather than erroring.
            self.metrics.bump("stale_queries")
            return self.served_snapshot().rows(predicate)

    def undefined_rows(self, predicate: str) -> FrozenSet[Row]:
        """Rows with undefined status (stratified models are total).

        Degraded service preserves the three-valued answer: the stale
        snapshot carries both truth statuses, so a valid/well-founded
        view keeps distinguishing true from undefined while stale."""
        if self.stale:
            return self.served_snapshot().undefined_rows(predicate)
        if self._chain is not None:
            return self._chain.undefined_rows(predicate)
        if self.engine is not None:
            return frozenset()
        try:
            return self._ensure_result().undefined_rows(predicate)
        except ViewDegraded:
            return self.served_snapshot().undefined_rows(predicate)

    def predicates(self) -> FrozenSet[str]:
        """Every predicate the view can answer about."""
        return (
            self.prepared.program.predicates() | self.database.predicates()
        )

    def _ensure_result(self) -> QueryResult:
        if self._result is not None:
            return self._result

        def recompute() -> QueryResult:
            fault_point("view.recompute")
            ground_program = self.prepared.ground_for(
                self.database,
                registry=self.registry,
                max_rounds=self.max_rounds,
                max_atoms=self.max_atoms,
            )
            return run(
                self.prepared.program,
                self.database,
                semantics=self.semantics,
                registry=self.registry,
                ground_program=ground_program,
                budget=self._budget(),
            )

        try:
            with self.metrics.phase("recompute"):
                self._result = retry_with_backoff(
                    recompute,
                    attempts=self.recovery_attempts,
                    on_retry=lambda *_: self.metrics.bump("recompute_retries"),
                )
        except Cancelled:
            raise
        except ReproError as exc:
            if self._published.get()[0] is None:
                # Nothing consistent was ever materialized — there is no
                # stale model to fall back to, so surface the failure.
                raise
            self._enter_degraded(exc)
            raise ViewDegraded(
                f"recompute failed ({exc}); serving last consistent model",
            ) from exc
        self._mark_healthy()
        predicates = self.predicates()
        self._publish_full(
            {p: self._result.true_rows(p) for p in predicates},
            {p: self._result.undefined_rows(p) for p in predicates},
        )
        return self._result

    def _enter_degraded(self, exc: BaseException) -> None:
        self.stale = True
        self._last_error = f"{type(exc).__name__}: {exc}"
        self.metrics.bump("degraded_entries")
        self.metrics.mark_degraded()
        # Copy-on-degrade: re-publish the last consistent snapshot
        # flagged stale, so lock-free readers keep serving it (both
        # truth statuses) without ever touching the broken live model.
        self._publish_stale()

    def _mark_healthy(self) -> None:
        """Leave degraded mode (no-op when already healthy)."""
        self.stale = False
        self._last_error = None
        self.metrics.mark_healthy()

    # -- updates --------------------------------------------------------------

    def insert(self, predicate: str, *args: Value) -> Dict[str, object]:
        """Insert one fact (a singleton batch)."""
        return self.apply(inserts=[(predicate, tuple(args))])

    def delete(self, predicate: str, *args: Value) -> Dict[str, object]:
        """Delete one fact (a singleton batch)."""
        return self.apply(deletes=[(predicate, tuple(args))])

    def apply(
        self,
        inserts: Iterable[Tuple[str, Row]] = (),
        deletes: Iterable[Tuple[str, Row]] = (),
        annotations: Optional[Dict[Tuple[str, Row], object]] = None,
    ) -> Dict[str, object]:
        """Apply an update batch, maintaining the resident model.

        Atomic under failure: either the whole batch lands (and the
        model reflects it), or the EDB is rolled back and the resident
        model rebuilt — with the view degrading to stale service of the
        last consistent model as the final fallback.

        ``annotations`` attaches explicit semiring carrier values to
        inserts, keyed ``(predicate, row)`` — annotated views only.
        """
        inserts = [(predicate, tuple(row)) for predicate, row in inserts]
        deletes = [(predicate, tuple(row)) for predicate, row in deletes]
        self._check_arities(inserts)
        self._check_arities(deletes)
        if annotations:
            if self.semiring == "bool":
                raise ValueError(
                    "explicit fact annotations require a view registered "
                    "with a non-boolean --semiring"
                )
            annotations = {
                (predicate, tuple(row)): value
                for (predicate, row), value in annotations.items()
            }
        if self.engine is not None:
            return self._apply_incremental(inserts, deletes, annotations)
        applied_deletes = applied_inserts = 0
        for predicate, row in deletes:
            if self.database.holds(predicate, *row):
                self.database.discard(predicate, *row)
                applied_deletes += 1
        for predicate, row in inserts:
            if not self.database.holds(predicate, *row):
                self.database.add(predicate, *row)
                applied_inserts += 1
        self._result = None
        # The model now trails the database: readers must re-evaluate
        # on the locked path instead of serving the outdated snapshot.
        self._invalidate_snapshot()
        # The database moved on; give the next query a fresh chance to
        # recompute instead of pinning the view to its stale snapshot.
        self._mark_healthy()
        self.metrics.bump("update_batches")
        # Routine recompute-mode traffic is *not* a fallback — only a
        # genuine incremental-path failure bumps recompute_fallbacks.
        self.metrics.bump("recompute_batches")
        self.metrics.bump("inserts_applied", applied_inserts)
        self.metrics.bump("deletes_applied", applied_deletes)
        return {
            "mode": "recompute",
            "inserts": applied_inserts,
            "deletes": applied_deletes,
        }

    def _apply_incremental(
        self,
        inserts: List[Tuple[str, Row]],
        deletes: List[Tuple[str, Row]],
        annotations: Optional[Dict[Tuple[str, Row], object]] = None,
    ) -> Dict[str, object]:
        engine = self.engine
        assert engine is not None
        # A degraded view's resident state is untrustworthy; rebuild it
        # before layering a new batch on top (or refuse the batch).
        if self.stale and not self._reinitialize():
            raise ViewDegraded(
                "view is degraded and could not recover before the update; "
                "it keeps serving its last consistent model"
            )
        # Inverse batch, computed against the pre-batch EDB so a failed
        # apply can be undone exactly (only the updates that actually
        # change the database need undoing).
        undo_add = [
            (predicate, row)
            for predicate, row in deletes
            if engine.edb.holds(predicate, *row)
        ]
        undo_discard = [
            (predicate, row)
            for predicate, row in inserts
            if not engine.edb.holds(predicate, *row)
        ]
        engine.budget = self._budget()
        try:
            with self.metrics.phase("maintain"):
                if self.semiring != "bool":
                    summary = engine.apply(
                        inserts=inserts,
                        deletes=deletes,
                        annotations=annotations,
                    )
                else:
                    summary = engine.apply(inserts=inserts, deletes=deletes)
        except IncrementalMaintenanceError:
            # Correctness valve: the EDB update itself is fine, only the
            # derived bookkeeping broke — rebuild from the (already
            # updated) database and keep serving.
            self.metrics.bump("recompute_fallbacks")
            if not self._reinitialize():
                return self._degraded_summary(inserts, deletes)
            return {"mode": "reinitialized"}
        except Cancelled:
            # Rebuild too: the batch may have maintained several
            # components — or several levels of a chain, each holding
            # its own copy of the facts — before the budget tripped.
            self._rollback(undo_add, undo_discard)
            self._reinitialize()
            raise
        except ReproError as exc:
            # The batch failed mid-flight: roll the EDB back to the
            # pre-batch state, then rebuild the model so it matches.
            self._rollback(undo_add, undo_discard)
            self.metrics.bump("rollbacks")
            if not self._reinitialize():
                self._enter_degraded(exc)
                raise ViewDegraded(
                    f"update failed and recovery failed ({exc}); view is "
                    f"degraded and serves its last consistent model",
                ) from exc
            raise
        finally:
            engine.budget = None
        self._mark_healthy()
        self._publish_maintained(summary)
        return {"mode": "incremental", **summary}

    def apply_stream(
        self,
        batches: Iterable[Tuple[Iterable[Tuple[str, Row]], Iterable[Tuple[str, Row]]]],
    ) -> Dict[str, object]:
        """Apply a burst of update batches as **one** maintenance pass.

        The delta-stream engine differentiates the burst into a single
        net Z-set delta and absorbs it in one circuit pass with one
        snapshot publish — N batches never cost N publish cycles.  A
        single-element burst degenerates to :meth:`apply` (so the
        per-batch failure discipline, fault points, and summary shape
        are exactly the singleton ones), and a recompute-mode view
        folds the burst into its database with one invalidation.

        Atomicity matches :meth:`apply`, burst-wide: either the whole
        burst lands, or the EDB is rolled back to the pre-burst state
        and the model rebuilt (degrading as the final fallback).
        """
        batches = [
            (
                [(predicate, tuple(row)) for predicate, row in inserts],
                [(predicate, tuple(row)) for predicate, row in deletes],
            )
            for inserts, deletes in batches
        ]
        for inserts, deletes in batches:
            self._check_arities(inserts)
            self._check_arities(deletes)
        if not batches:
            return {"mode": "noop", "batches": 0}
        if len(batches) == 1:
            inserts, deletes = batches[0]
            summary = self.apply(inserts=inserts, deletes=deletes)
            summary.setdefault("batches", 1)
            return summary
        if self.engine is not None:
            return self._apply_incremental_stream(batches)
        applied_inserts = applied_deletes = 0
        for inserts, deletes in batches:
            for predicate, row in deletes:
                if self.database.holds(predicate, *row):
                    self.database.discard(predicate, *row)
                    applied_deletes += 1
            for predicate, row in inserts:
                if not self.database.holds(predicate, *row):
                    self.database.add(predicate, *row)
                    applied_inserts += 1
            self.metrics.bump("update_batches")
            self.metrics.bump("recompute_batches")
        self._result = None
        self._invalidate_snapshot()
        self._mark_healthy()
        self.metrics.bump("inserts_applied", applied_inserts)
        self.metrics.bump("deletes_applied", applied_deletes)
        return {
            "mode": "recompute",
            "batches": len(batches),
            "inserts": applied_inserts,
            "deletes": applied_deletes,
        }

    def _apply_incremental_stream(
        self,
        batches: List[Tuple[List[Tuple[str, Row]], List[Tuple[str, Row]]]],
    ) -> Dict[str, object]:
        engine = self.engine
        assert engine is not None
        if self.stale and not self._reinitialize():
            raise ViewDegraded(
                "view is degraded and could not recover before the update; "
                "it keeps serving its last consistent model"
            )
        # Pre-burst presence per touched fact, recorded at first
        # mention: replaying it restores the exact pre-burst EDB even
        # when later batches in the burst touch the same fact again.
        presence: Dict[Tuple[str, Row], bool] = {}
        for inserts, deletes in batches:
            for predicate, row in deletes:
                key = (predicate, row)
                if key not in presence:
                    presence[key] = engine.edb.holds(predicate, *row)
            for predicate, row in inserts:
                key = (predicate, row)
                if key not in presence:
                    presence[key] = engine.edb.holds(predicate, *row)
        engine.budget = self._budget()
        try:
            with self.metrics.phase("maintain"):
                summary = engine.apply_stream(batches)
        except IncrementalMaintenanceError:
            # Correctness valve, burst-wide: the EDB holds the whole
            # burst, only the derived bookkeeping broke — rebuild from
            # the updated database and keep serving.
            self.metrics.bump("recompute_fallbacks")
            if not self._reinitialize():
                flat_inserts = [pair for inserts, _ in batches for pair in inserts]
                flat_deletes = [pair for _, deletes in batches for pair in deletes]
                return self._degraded_summary(flat_inserts, flat_deletes)
            return {"mode": "reinitialized", "batches": len(batches)}
        except Cancelled:
            # The burst may have maintained several components before
            # the budget tripped, and the queue's per-batch retry must
            # start from a consistent state.
            self._rollback_presence(presence)
            self._reinitialize()
            raise
        except ReproError as exc:
            self._rollback_presence(presence)
            self.metrics.bump("rollbacks")
            if not self._reinitialize():
                self._enter_degraded(exc)
                raise ViewDegraded(
                    f"update burst failed and recovery failed ({exc}); view "
                    f"is degraded and serves its last consistent model",
                ) from exc
            raise
        finally:
            engine.budget = None
        self._mark_healthy()
        self._publish_maintained(summary)
        return {"mode": "incremental", **summary}

    def _rollback_presence(
        self, presence: Dict[Tuple[str, Row], bool]
    ) -> None:
        engine = self.engine
        assert engine is not None
        for (predicate, row), present in presence.items():
            if present:
                if not engine.edb.holds(predicate, *row):
                    engine.edb.add(predicate, *row)
            else:
                engine.edb.discard(predicate, *row)

    def _rollback(
        self,
        undo_add: List[Tuple[str, Row]],
        undo_discard: List[Tuple[str, Row]],
    ) -> None:
        engine = self.engine
        assert engine is not None
        for predicate, row in undo_add:
            if not engine.edb.holds(predicate, *row):
                engine.edb.add(predicate, *row)
        for predicate, row in undo_discard:
            engine.edb.discard(predicate, *row)

    def _reinitialize(self) -> bool:
        """Rebuild the resident model from the EDB; True on success."""
        engine = self.engine
        assert engine is not None
        # Recovery is not governed by the (possibly already exhausted)
        # request budget — it must be allowed to finish.
        engine.budget = None
        try:
            with self.metrics.phase("recompute"):
                retry_with_backoff(
                    engine.initialize,
                    attempts=self.recovery_attempts,
                    on_retry=lambda *_: self.metrics.bump("recovery_retries"),
                )
        except Cancelled:
            raise
        except ReproError as exc:
            self._enter_degraded(exc)
            return False
        self._mark_healthy()
        self._publish_model()
        return True

    def _degraded_summary(
        self,
        inserts: List[Tuple[str, Row]],
        deletes: List[Tuple[str, Row]],
    ) -> Dict[str, object]:
        return {
            "mode": "degraded",
            "stale": True,
            "inserts": len(inserts),
            "deletes": len(deletes),
        }

    def recover(self) -> bool:
        """Try to leave degraded mode by rebuilding the model.

        Returns True when the view is healthy again.  The view reports
        healthy — and the time-in-degraded clock stops — only once the
        rebuild has actually succeeded; a failed recovery leaves the
        degraded flag and clock untouched.
        """
        if not self.stale:
            return True
        if self.engine is not None:
            return self._reinitialize()
        self._result = None
        try:
            self._ensure_result()
        except ReproError:
            return False
        return True

    def _check_arities(self, updates) -> None:
        arities = self.prepared.arities
        for predicate, row in updates:
            expected = arities.get(predicate)
            if expected is not None and expected != len(row):
                raise ValueError(
                    f"predicate {predicate} has arity {expected}, "
                    f"got fact with {len(row)} arguments"
                )

    # -- introspection --------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of the view's current database."""
        return self.database.fingerprint()

    def stats(self) -> Dict[str, object]:
        """Metrics snapshot plus structural info."""
        snapshot = self.metrics.snapshot()
        snapshot.update(
            {
                "mode": self.mode,
                "semantics": self.semantics,
                "semiring": self.semiring,
                "maintenance": (
                    "annotated"
                    if self.semiring != "bool"
                    else "alternating"
                    if self._chain is not None
                    else self.maintenance
                    if self.mode == "incremental"
                    else None
                ),
                "queue_depth": self.pending.depth(),
                "facts": self.database.fact_count(),
                "stale": self.stale,
                "ground_cache_hits": self.prepared.ground_cache_hits,
                "ground_cache_misses": self.prepared.ground_cache_misses,
            }
        )
        published, servable = self._published.get()
        snapshot["snapshot_generation"] = self._generation
        snapshot["snapshot_servable"] = servable
        snapshot["chain_depth"] = (
            published.max_chain_depth() if published is not None else 0
        )
        snapshot["alternation_levels"] = self.alternation_levels()
        if published is not None:
            snapshot["snapshot_age_seconds"] = round(
                time.monotonic() - published.published_at, 6
            )
        if self._last_error is not None:
            snapshot["last_error"] = self._last_error
        if self._chain is not None:
            snapshot["model_rows"] = self._chain.model_rows()
        elif self.engine is not None:
            snapshot["model_rows"] = sum(
                len(rows) for rows in self.engine.state.facts.values()
            )
        return snapshot
