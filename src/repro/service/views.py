"""Materialized views: resident models maintained under updates.

A :class:`MaterializedView` binds a prepared program to its own
database and keeps the model resident between queries.  Every view has
an engine, and every engine has the same seam — ``edb``,
``initialize()``, ``apply_stream()`` (its one write entry: a single
batch is a burst of one), ``model()`` / ``rows()``, ``budget`` — and
reports each burst as the net ``plus`` / ``minus`` delta of the model:

* ``semantics="stratified"`` on a stratified program, under any
  ``semiring``: the one maintenance engine,
  :class:`~repro.service.dbsp.DBSPEngine`, maintains the model over a
  delta stream — a burst of N update batches submitted through
  :meth:`MaterializedView.apply_stream` is differentiated into one net
  EDB delta, absorbed in **one** circuit pass, and published with
  **one** snapshot swap;
* ``semantics="valid"`` / ``"wellfounded"`` on a non-stratified
  program is maintained the same way, by an
  :class:`~repro.service.dbsp.AlternatingEngine`: the alternating
  fixpoint as a chain of those circuits, whose every write reports the
  net delta of the true **and** the undefined rows (on a stratified
  program both semantics are the stratified model, so the plain engine
  serves them);
* ``inflationary`` views (``mode == "recompute"``), which no circuit
  maintains, run on a **rebuild engine**: each burst lands in the
  database and the program is evaluated from scratch by
  :func:`~repro.datalog.engine.run`, once, and the engine reports the
  net diff of both truth statuses — so the evaluation happens at write
  time and the view publishes by delta like every other.

Snapshot publication (the one read path): every consistent model the
view reaches is published as an immutable, versioned
:class:`~repro.service.snapshot.ModelSnapshot` — true *and* undefined
rows — via a single atomic reference swap.  Readers pick the snapshot
off the reference with no lock; writers maintain it **incrementally**,
applying each batch's net plus/minus delta to the previous snapshot
(O(|delta|)) instead of re-copying the whole model.  Every
:data:`COMPACT_INTERVAL`-th publish flattens the delta chains deeper
than :data:`COMPACT_DEPTH`, so a write burst with no interleaved reads
cannot leave the next reader a deep chain walk.

Failure discipline (the robustness contract, tested by the chaos
suite in ``tests/robustness``), the same for every engine:

* a failed delta **never leaves a half-applied view** — when
  maintenance raises mid-batch the EDB is rolled back to the pre-batch
  state and the resident model rebuilt from scratch (wrapped in
  :func:`~repro.robustness.retry_with_backoff`);
* if even the rebuild keeps failing, the view enters **degraded mode**:
  it re-publishes its last consistent snapshot flagged ``stale``
  (copy-on-degrade — the cells are shared, so nothing is copied) and
  serves it, **both truth statuses included**, instead of crashing or
  serving a corrupted model.  The next successful update or
  :meth:`MaterializedView.recover` clears the flag.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Mapping
from typing import Optional, Tuple

from ..datalog.database import Database
from ..datalog.stratification import SEMANTICS, NotStratifiedError
from ..relations.universe import FunctionRegistry
from ..relations.values import Value
from ..robustness import (
    Cancelled,
    ReproError,
    ViewDegraded,
    fault_point,
    retry_with_backoff,
)
from ..semiring import get_semiring
from .dbsp.engine import DBSPEngine, stage
from .dbsp.queue import UpdateQueue
from .locks import AtomicReference, InstrumentedLock
from .metrics import ViewMetrics
from .registry import PreparedProgram
from .snapshot import ModelSnapshot

if TYPE_CHECKING:
    from ..datalog.engine import QueryResult
    from ..robustness import EvaluationBudget

__all__ = ["MaterializedView"]

Row = Tuple[Value, ...]
Model = Dict[str, FrozenSet[Row]]
Batch = Tuple[List[Tuple[str, Row]], List[Tuple[str, Row]]]
#: A batch's explicit semiring values, keyed by inserted fact.
Annotations = Mapping[Tuple[str, Row], object]

_EMPTY: FrozenSet[Row] = frozenset()

#: Every this-many-th snapshot publish compacts the published chains ...
COMPACT_INTERVAL = 8
#: ... that are deeper than this (see :meth:`MaterializedView.maybe_compact`).
COMPACT_DEPTH = 4


def _diff(old: Model, new: Model) -> Tuple[Model, Model]:
    """The net ``(plus, minus)`` that takes model ``old`` to ``new``."""
    plus: Model = {}
    minus: Model = {}
    for predicate in old.keys() | new.keys():
        before = old.get(predicate, _EMPTY)
        after = new.get(predicate, _EMPTY)
        if before == after:
            continue
        if after - before:
            plus[predicate] = after - before
        if before - after:
            minus[predicate] = before - after
    return plus, minus


class _RebuildEngine:
    """The engine of a view no circuit maintains (``mode ==
    "recompute"``): an ``inflationary`` view.

    A burst lands in ``edb`` and ``evaluate(edb, budget)`` — the view's
    :meth:`MaterializedView._ensure_result`, i.e. :func:`run` — computes
    the model from scratch, once; the summary is the net diff of the
    true and the undefined rows against the model before the burst.
    The resident model is only replaced once evaluation succeeded, so a
    failure leaves it exactly as it was.
    """

    def __init__(
        self,
        prepared: PreparedProgram,
        database: Optional[Database],
        evaluate: Callable[[Database, Optional[EvaluationBudget]], QueryResult],
        metrics: ViewMetrics,
        budget: Optional[EvaluationBudget] = None,
    ):
        self.prepared = prepared
        self.evaluate = evaluate
        self.metrics = metrics
        self.budget = budget
        self.edb = (database or Database()).copy()
        for predicate, row in prepared.seed_facts:
            if not self.edb.holds(predicate, *row):
                self.edb.add(predicate, *row)
        self.initialize()

    def initialize(self) -> None:
        """(Re)evaluate the model from the EDB."""
        self._true, self._undefined = self._evaluate()

    def _evaluate(self) -> Tuple[Model, Model]:
        result = self.evaluate(self.edb, self.budget)
        predicates = self.prepared.program.predicates() | self.edb.predicates()
        undefined = {p: result.undefined_rows(p) for p in predicates}
        return (
            {p: result.true_rows(p) for p in predicates},
            {p: rows for p, rows in undefined.items() if rows},
        )

    def model(self) -> Model:
        """The certainly-true rows, predicate → rows (EDB and IDB)."""
        return dict(self._true)

    def undefined_model(self) -> Model:
        """The undefined rows (only predicates that have any)."""
        return dict(self._undefined)

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Certainly-true rows of one predicate."""
        return self._true.get(predicate, _EMPTY)

    def undefined_rows(self, predicate: str) -> FrozenSet[Row]:
        """Undefined rows of one predicate."""
        return self._undefined.get(predicate, _EMPTY)

    def model_rows(self) -> int:
        """Resident certainly-true rows (the ``model_rows`` stat)."""
        return sum(len(rows) for rows in self._true.values())

    def apply_stream(self, batches) -> Dict[str, object]:
        """Fold a burst into the EDB and re-evaluate once."""
        _after, applied_inserts, applied_deletes = stage(self.edb, batches, {})
        true, undefined = self._evaluate()
        plus, minus = _diff(self._true, true)
        undefined_plus, undefined_minus = _diff(self._undefined, undefined)
        self._true, self._undefined = true, undefined
        self.metrics.bump_many(
            {
                "update_batches": len(batches),
                "recompute_batches": len(batches),
                "inserts_applied": applied_inserts,
                "deletes_applied": applied_deletes,
            }
        )
        return {
            "inserts": applied_inserts,
            "deletes": applied_deletes,
            "plus": plus,
            "minus": minus,
            "undefined_plus": undefined_plus,
            "undefined_minus": undefined_minus,
        }


class MaterializedView:
    """One registered program's resident, update-maintained model.

    ``budget_factory`` (optional) supplies a fresh
    :class:`~repro.robustness.EvaluationBudget` per expensive operation
    (initial evaluation, update batch) — the hook the service layer
    uses to impose per-request deadlines.

    Writes enter through :meth:`apply_stream` (:meth:`apply` is a burst
    of one); every :data:`COMPACT_INTERVAL`-th publish runs
    :meth:`maybe_compact`.
    """

    def __init__(
        self,
        prepared: PreparedProgram,
        database: Optional[Database] = None,
        semantics: str = "stratified",
        registry: Optional[FunctionRegistry] = None,
        metrics: Optional[ViewMetrics] = None,
        max_rounds: int = 10_000,
        max_atoms: int = 1_000_000,
        budget_factory: Optional[Callable[[], EvaluationBudget]] = None,
        recovery_attempts: int = 3,
        queue_capacity: int = 256,
        semiring: str = "bool",
    ):
        if semantics not in SEMANTICS:
            raise ValueError(
                f"unknown semantics {semantics!r}; pick from {SEMANTICS}"
            )
        if semantics == "stratified" and not prepared.stratified:
            raise NotStratifiedError(
                f"program {prepared.name!r} is not stratified; register it "
                "under the valid or wellfounded semantics instead"
            )
        # The annotation algebra.  ``"bool"`` keeps no annotation: the
        # support is the model, and snapshots carry none (byte-identical
        # answers).  Anything else keeps the engine's annotation maps
        # and serves per-row annotations from its snapshots.
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
        self.registry = registry
        self.metrics = metrics if metrics is not None else ViewMetrics()
        # Held by writers (updates, recovery);
        # acquisitions report to the service metrics, when there are any.
        sink = self.metrics.sink
        self.lock = InstrumentedLock(
            prepared.name, sink.record_lock if sink is not None else None
        )
        self.max_rounds = max_rounds
        self.max_atoms = max_atoms
        self.budget_factory = budget_factory
        self.recovery_attempts = recovery_attempts
        self._publish_count = 0
        # Degraded-mode state: when ``stale`` is True, the published
        # snapshot is the last consistent model (both truth statuses),
        # not the (unavailable or rebuilding) live one.
        self.stale = False
        self._last_error: Optional[str] = None
        # The published snapshot: readers load it with no lock, writers
        # swap its successor in under the view lock.
        self._published: AtomicReference = AtomicReference(None)
        self._generation = 0
        # Only the inflationary semantics has no maintained engine.
        self.mode = "recompute" if semantics == "inflationary" else "incremental"
        # The bounded group-commit queue: the server's update verb
        # submits batches here and the view-lock leader drains them
        # into one apply_stream pass (write pipelining for free on both
        # the single-process and cluster worker tiers).
        self.pending = UpdateQueue(queue_capacity)
        with self.metrics.phase("initialize"):
            # The initial materialization runs under a request budget
            # too — a divergent program must hit its deadline at
            # registration, not loop forever.
            self.engine = self._engine(database)
        self.engine.budget = None
        self.database = self.engine.edb
        # The engine again when its models have undefined rows.
        self._three_valued = (
            self.engine if self.maintenance in (None, "alternating") else None
        )
        self._publish_model()

    def _engine(self, database: Optional[Database]):
        """The engine this view's semantics, program and semiring call
        for, its kind recorded as :attr:`maintenance` (``None`` for the
        rebuild engine).  Every engine but the circuit is imported
        here, by the first view that needs it."""
        budget = self._budget()
        if self.mode == "recompute":
            self.maintenance = None
            return _RebuildEngine(
                self.prepared,
                database,
                # Looked up per call, so a wrapper installed on the
                # class later still sees every evaluation.
                lambda edb, budget: self._ensure_result(edb, budget),
                self.metrics,
                budget,
            )
        if self.semiring != "bool":
            from .annotated import AnnotatedEngine  # the one engine, by that name

            self.maintenance = "annotated"
            return AnnotatedEngine(
                self.prepared,
                database=database,
                registry=self.registry,
                metrics=self.metrics,
                budget=budget,
                semiring=self.semiring_obj,
            )
        # Valid and well-founded are the stratified model on a
        # stratified program; only negation through recursion needs the
        # alternating chain.
        if self.prepared.stratified:
            self.maintenance, engine_cls = "dbsp", DBSPEngine
        else:
            from .dbsp.alternating import AlternatingEngine

            self.maintenance, engine_cls = "alternating", AlternatingEngine
        return engine_cls(
            self.prepared,
            database=database,
            registry=self.registry,
            metrics=self.metrics,
            budget=budget,
        )

    def _ensure_result(
        self, database: Database, budget: Optional[EvaluationBudget]
    ) -> QueryResult:
        """The model of ``database`` from scratch, by :func:`run`: the
        rebuild engine's one evaluation per burst (and per rebuild)."""
        from ..datalog.engine import run

        fault_point("view.recompute")
        return run(
            self.prepared.program,
            database,
            semantics=self.semantics,
            registry=self.registry,
            max_rounds=self.max_rounds,
            max_atoms=self.max_atoms,
            budget=budget,
        )

    def _budget(self) -> Optional[EvaluationBudget]:
        return self.budget_factory() if self.budget_factory is not None else None

    # -- snapshot publication -------------------------------------------------

    def _publish(self, snapshot: ModelSnapshot) -> None:
        """Swap a new snapshot in (writers only, under the view lock)."""
        self._generation = snapshot.generation
        self._published.set(snapshot)
        self.metrics.bump("snapshot_swaps")
        # Compact-on-Nth-publish: bound the chain walk a write-heavy /
        # read-light burst would otherwise leave for the first reader.
        self._publish_count += 1
        if self._publish_count % COMPACT_INTERVAL == 0:
            self.maybe_compact()

    def maybe_compact(self) -> int:
        """Flatten the published snapshot's delta chains past the cap.

        Safe from any thread at any time: compaction only forces the
        same lazy materialization a reader performs, so the snapshot's
        visible contents (rows, fingerprint) never change.  Returns
        the number of cells compacted (0 when the chains are already
        within :data:`COMPACT_DEPTH`).
        """
        snapshot = self._published.get()
        if snapshot.max_chain_depth() <= COMPACT_DEPTH:
            return 0
        with self.metrics.phase("compact"):
            cells, rows = snapshot.compact(COMPACT_DEPTH)
        if cells:
            self.metrics.bump_many({"compactions": 1, "compaction_rows": rows})
        return cells

    def chain_depth(self) -> int:
        """The published snapshot's deepest delta chain (the gauge)."""
        return self._published.get().max_chain_depth()

    def alternation_levels(self) -> int:
        """Levels ``U₀ … T_n`` of the view's alternating fixpoint (the
        gauge; a write pays for the rows whose level status it changes,
        not for this depth).  0 when the view is not maintained by a
        chain."""
        return self.engine.levels if self.maintenance == "alternating" else 0

    def _annotations(self) -> Optional[Dict[str, Dict[Row, str]]]:
        """The engine's wire-text annotation maps (None on the boolean
        fast path — boolean snapshots never carry annotations)."""
        if self.semiring == "bool":
            return None
        return self.engine.wire_annotations()

    def _publish_model(self) -> None:
        """Publish the engine's whole model, both truth statuses."""
        three_valued = self._three_valued
        self._publish(
            ModelSnapshot.full(
                self.engine.model(),
                three_valued.undefined_model() if three_valued is not None else None,
                generation=self._generation + 1,
                annotations=self._annotations(),
            )
        )

    def _publish_maintained(self, summary: Dict[str, object]) -> None:
        """Publish what one engine pass left, given its summary.

        Incremental snapshot maintenance: the engine's net plus/minus
        delta — of the true rows and, from a chain or a rebuild, the
        undefined rows, from an annotated engine the annotation texts —
        is applied to the previous snapshot, O(|delta|), not a full
        model copy.
        """
        with self.metrics.phase("snapshot"):
            self._publish(
                self._published.get().apply_delta(
                    summary["plus"],
                    summary["minus"],
                    self._generation + 1,
                    summary.get("undefined_plus"),
                    summary.get("undefined_minus"),
                    summary.get("annotated_plus"),
                    summary.get("annotated_minus"),
                )
            )

    def read_snapshot(self) -> ModelSnapshot:
        """The currently served model snapshot.

        Lock-free: safe to call from any thread at any time.  Every
        state the view reaches is published, so this is always the
        current model (flagged ``stale`` in degraded mode).  The
        returned snapshot is immutable — holding it across later
        updates keeps serving the same consistent version.
        """
        return self._published.get()

    # -- queries --------------------------------------------------------------

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """Rows of a predicate that are certainly true.

        In degraded mode this serves the last consistent snapshot —
        check :attr:`stale` (the server surfaces it on the wire)."""
        self.metrics.bump("queries")
        if self.stale:
            self.metrics.bump("stale_queries")
            return self.read_snapshot().rows(predicate)
        return self.engine.rows(predicate)

    def undefined_rows(self, predicate: str) -> FrozenSet[Row]:
        """Rows with undefined status (stratified models are total).

        Degraded service preserves the three-valued answer: the stale
        snapshot carries both truth statuses, so a valid/well-founded
        view keeps distinguishing true from undefined while stale."""
        if self.stale:
            return self.read_snapshot().undefined_rows(predicate)
        if self._three_valued is not None:
            return self._three_valued.undefined_rows(predicate)
        return _EMPTY

    def predicates(self) -> FrozenSet[str]:
        """Every predicate the view can answer about."""
        return (
            self.prepared.program.predicates() | self.database.predicates()
        )

    def _enter_degraded(self, exc: BaseException) -> None:
        self.stale = True
        self._last_error = f"{type(exc).__name__}: {exc}"
        self.metrics.bump("degraded_entries")
        self.metrics.mark_degraded()
        # Copy-on-degrade: re-publish the last consistent snapshot
        # flagged stale, so lock-free readers keep serving it (both
        # truth statuses) without ever touching the broken live model.
        snapshot = self._published.get()
        if not snapshot.stale:
            self._publish(snapshot.as_stale(self._generation + 1))

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
        annotations: Optional[Annotations] = None,
    ) -> Dict[str, object]:
        """Apply one update batch: :meth:`apply_stream` of one."""
        return self.apply_stream([(inserts, deletes)], [annotations])

    def apply_stream(
        self,
        batches: Iterable[Tuple[Iterable[Tuple[str, Row]], Iterable[Tuple[str, Row]]]],
        annotations: Optional[List[Optional[Annotations]]] = None,
    ) -> Dict[str, object]:
        """Apply a burst of update batches as **one** engine pass.

        The delta-stream engine differentiates the burst into a single
        net EDB delta and absorbs it in one circuit pass, a rebuild
        view evaluates once — and either way the burst costs one
        snapshot publish, never N.

        ``annotations`` (annotated views only) is aligned with
        ``batches``: per batch, ``None`` or its inserts' explicit
        semiring carrier values, keyed ``(predicate, row)``.

        Atomic under failure: either the whole burst lands (and the
        model reflects it), or the EDB is rolled back to the pre-burst
        state and the resident model rebuilt — with the view degrading
        to stale service of the last consistent model as the final
        fallback.
        """
        batches = [
            (self._checked(inserts), self._checked(deletes))
            for inserts, deletes in batches
        ]
        if annotations is None or not any(annotations):
            annotations = None
        elif self.semiring == "bool":
            raise ValueError(
                "explicit fact annotations require a view registered "
                "with a non-boolean --semiring"
            )
        else:
            annotations = [
                {(p, tuple(row)): value for (p, row), value in each.items()}
                if each
                else None
                for each in annotations
            ]
        if not batches:
            return {"mode": "noop", "batches": 0}
        # The pass's phase timings reach the service in one filing.
        with self.metrics.held_phases():
            summary = self._maintain(batches, annotations)
        summary.setdefault("batches", len(batches))
        return summary

    def _maintain(
        self,
        batches: List[Batch],
        annotations: Optional[List[Optional[Annotations]]] = None,
    ) -> Dict[str, object]:
        """One engine pass over ``batches`` under the failure discipline."""
        engine = self.engine
        # A degraded view's resident state is untrustworthy; rebuild it
        # before layering a new batch on top (or refuse the batch).
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
            for key in deletes + inserts:
                if key not in presence:
                    presence[key] = engine.edb.holds(key[0], *key[1])
        engine.budget = self._budget()
        try:
            with self.metrics.phase("maintain"):
                if annotations:
                    summary = engine.apply_stream(batches, annotations)
                else:
                    summary = engine.apply_stream(batches)
        except Cancelled:
            # Rebuild too: the burst may have maintained several
            # components — or re-ranked part of a chain above its store
            # — before the budget tripped, and the queue's per-batch
            # retry must start from a consistent state.
            self._rollback(presence)
            self._reinitialize()
            raise
        except ReproError as exc:
            # The burst failed mid-flight: roll the EDB back to the
            # pre-burst state, then rebuild the model so it matches.
            self._rollback(presence)
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
        return {"mode": self.mode, **summary}

    def _rollback(self, presence: Dict[Tuple[str, Row], bool]) -> None:
        edb = self.engine.edb
        for (predicate, row), present in presence.items():
            if present:
                if not edb.holds(predicate, *row):
                    edb.add(predicate, *row)
            else:
                edb.discard(predicate, *row)

    def _reinitialize(self) -> bool:
        """Rebuild the resident model from the EDB; True on success."""
        engine = self.engine
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

    def recover(self) -> bool:
        """Try to leave degraded mode by rebuilding the model.

        Returns True when the view is healthy again.  The view reports
        healthy — and the time-in-degraded clock stops — only once the
        rebuild has actually succeeded; a failed recovery leaves the
        degraded flag and clock untouched.
        """
        return not self.stale or self._reinitialize()

    def _checked(self, updates) -> List[Tuple[str, Row]]:
        """``updates`` with every row a tuple of its predicate's arity —
        the one place a write's rows are normalized and checked."""
        arities = self.prepared.arities
        checked = []
        for predicate, row in updates:
            row = tuple(row)
            expected = arities.get(predicate)
            if expected is not None and expected != len(row):
                raise ValueError(
                    f"predicate {predicate} has arity {expected}, "
                    f"got fact with {len(row)} arguments"
                )
            checked.append((predicate, row))
        return checked

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
                "maintenance": self.maintenance,
                "queue_depth": self.pending.depth(),
                "facts": self.database.fact_count(),
                "stale": self.stale,
            }
        )
        published = self._published.get()
        snapshot["snapshot_generation"] = self._generation
        snapshot["chain_depth"] = published.max_chain_depth()
        snapshot["alternation_levels"] = self.alternation_levels()
        snapshot["snapshot_age_seconds"] = round(
            time.monotonic() - published.published_at, 6
        )
        if self._last_error is not None:
            snapshot["last_error"] = self._last_error
        snapshot["model_rows"] = self.engine.model_rows()
        return snapshot
