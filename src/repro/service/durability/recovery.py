"""Cold-start recovery of a :class:`~repro.service.server.QueryService`.

:func:`recover_service` rebuilds a freshly-constructed service from its
data directory, in three steps:

1. **Checkpoint restore** — every view in the newest valid checkpoint
   is re-registered from its journaled program source (the same text
   the original ``register`` saw), then its database is *reconciled*
   to the checkpointed fact set through the normal update path: the
   checkpoint stores the facts as canonical text and the declared
   predicate set, the restore re-registers (seed facts and all),
   diffs, and applies the difference as one insert/delete batch.  The
   restored database's fingerprint must then equal the one recorded at
   capture time (or, for a checkpoint written before the fact codec,
   the digest under the spelling it hashed) — a mismatch means the serialize/parse roundtrip or
   the restore path is broken, and recovery refuses to serve
   (:class:`~repro.robustness.RecoveryError`) rather than hand out a
   silently different model.

2. **WAL replay** — every journaled operation past the checkpoint
   boundary is re-driven through the service, per view in lsn order.
   Views are independent state machines, so replay keeps one pending
   *run* per view: consecutive ``update`` records of a view, annotated
   or bare, pile up and are handed to the service as **one group
   commit** (:meth:`QueryService._commit`, the path a burst of live
   writers takes) — ``coalesce`` batches per engine pass and snapshot
   publish instead of one per record, with the burst's budget, fault
   points, rollback and per-batch retry.  A view's own ``register`` /
   ``unregister`` record, a full update queue and the end of the log
   flush its run.  With ``coalesce=1`` the same code applies the run's
   records one by one.  The checkpoint may already contain the effects
   of a few records past its boundary (capture races tail appends by
   design); replay is convergent — fact-level inserts/deletes are
   last-writer-wins and a re-register resets then rebuilds — so
   re-applying them is harmless.  A record that fails to apply (e.g.
   an update for a view a later record unregisters anyway) is skipped
   with a warning, not fatal: the log is a history, and history can
   reference state that no longer matters.

3. **Generation bump** — the data directory's recovered-generation
   marker advances, and the checkpoint's persisted service-counter
   rollup is absorbed into the retired totals so service metrics stay
   monotone across the crash (replayed operations bump live counters
   again, so totals may over-count — never under-count or regress).

The manager's ``replaying`` flag is held high throughout so the
service's own journaling hooks stay quiet — recovery must not re-log
the log.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ...datalog.facts import parse_annotated_fact, parse_fact
from ...relations.values import FSet, Tup, Value
from ...robustness import RecoveryError, ReproError, fault_point
from ..metrics import SERVICE, zeroed
from .manager import DurabilityManager
from .wal import WalRecord

__all__ = ["RecoveryReport", "recover_service"]

logger = logging.getLogger(__name__)


@dataclass
class RecoveryReport:
    """What one cold-start recovery did (returned and kept on the
    service as ``service.last_recovery``)."""

    generation: int = 0
    checkpoint_lsn: int = 0
    views_restored: int = 0
    facts_restored: int = 0
    replayed_records: int = 0
    skipped_records: int = 0
    torn_records_dropped: int = 0
    errors: List[str] = field(default_factory=list)

    def describe(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "checkpoint_lsn": self.checkpoint_lsn,
            "views_restored": self.views_restored,
            "facts_restored": self.facts_restored,
            "replayed_records": self.replayed_records,
            "skipped_records": self.skipped_records,
            "torn_records_dropped": self.torn_records_dropped,
            "errors": list(self.errors),
        }


def _annotated_fact_set(texts):
    """Parse ``fact[ @ annotation]`` texts into ``(facts, annotations)``.

    ``annotations`` keeps the wire text verbatim (keyed by fact); the
    service's update path parses it with the target view's semiring.
    Checkpoint and WAL records from boolean views never carry the
    suffix, so this degrades to a set of facts with an empty map.
    """
    facts: Set[Tuple[str, tuple]] = set()
    annotations: Dict[Tuple[str, tuple], str] = {}
    for text in texts:
        predicate, row, annotation = parse_annotated_fact(text)
        facts.add((predicate, row))
        if annotation is not None:
            annotations[(predicate, row)] = annotation
    return facts, annotations


def _fact_order(fact: Tuple[str, tuple]):
    """A total order over facts that never compares row values
    directly: rows hold arbitrary ``Value`` types (``Atom`` defines no
    ``<``), so sorting raw tuples crashes on the first same-predicate
    pair.  repr is canonical per value and deterministic across runs,
    which is all replay determinism needs."""
    predicate, row = fact
    return (predicate, tuple(repr(value) for value in row))


def _restore_view(service, name: str, info: Dict[str, object]) -> int:
    """Re-register one checkpointed view and reconcile its database.

    An ``"incremental"`` key, which older checkpoints and ``register``
    records carry, is ignored: the semantics and the semiring pick the
    engine, and every engine reaches the same model."""
    service.register(
        name,
        info["source"],
        semantics=info.get("semantics", "stratified"),
        # Explicit, not the service default: an operator who changes
        # ``--semiring`` must not silently re-interpret old state.
        semiring=info.get("semiring", "bool"),
    )
    view = service.view(name)
    target, target_annotations = _annotated_fact_set(info.get("facts", ()))
    current = {(predicate, row) for predicate, row in view.database}
    inserts = set(target - current)
    deletes = sorted(current - target, key=_fact_order)
    if target_annotations:
        # A fresh registration carries no explicit annotations, so
        # every explicitly annotated checkpoint fact is re-inserted
        # with its annotation — insert-with-annotation is absolute
        # (replace), so this converges even for facts the seed pass
        # already created.
        inserts |= set(target_annotations)
    inserts = sorted(inserts, key=_fact_order)
    if inserts or deletes:
        service.update(
            name,
            inserts=inserts,
            deletes=deletes,
            annotations=target_annotations or None,
        )
    # Reconciling through update cannot re-declare a predicate that
    # ended the pre-crash epoch declared-but-empty (an insert-then-
    # delete history), and the database fingerprint covers declared
    # predicates — so restore the declarations explicitly before
    # checking it.
    for predicate in info.get("declared", ()):
        if predicate not in view.database:
            view.database.declare(predicate)
    recorded = info.get("fingerprint")
    if (
        recorded
        and view.database.fingerprint() != recorded
        and view.database.fingerprint(_spelled_before_codec) != recorded
    ):
        raise RecoveryError(
            f"restored view {name!r} disagrees with its checkpoint: "
            f"fingerprint {view.database.fingerprint()[:12]}… != "
            f"recorded {str(recorded)[:12]}…"
        )
    return len(target)


def _spelled_before_codec(value: Value, nested: bool = False) -> str:
    """A value as checkpoints written before the fact codec hashed it:
    inside a tuple or a set, a boolean ``True`` / ``False`` and a string
    quoted unescaped (elsewhere ``repr``, as now)."""
    if isinstance(value, (Tup, FSet)):
        items = ", ".join(_spelled_before_codec(item, True) for item in value)
        return f"[{items}]" if isinstance(value, Tup) else "{" + items + "}"
    return f"'{value}'" if nested and isinstance(value, str) else repr(value)


def _apply_registration(service, record: WalRecord) -> None:
    """Re-drive one journaled ``register`` / ``unregister``."""
    operation = record.operation
    op = operation.get("op")
    name = operation.get("view")
    if op == "register":
        service.register(
            name,
            operation["source"],
            semantics=operation.get("semantics", "stratified"),
            # Old (pre-semiring) records carry no key and replay as
            # boolean regardless of the service's current default.
            semiring=operation.get("semiring", "bool"),
        )
    elif op == "unregister":
        service.unregister(name)
    else:
        raise RecoveryError(f"unknown WAL operation {op!r} at lsn {record.lsn}")


def _update_batch(operation: Dict[str, object]):
    """A journaled ``update`` as ``(inserts, deletes, annotations)``."""
    inserts, annotations = _annotated_fact_set(operation.get("inserts", ()))
    return (
        sorted(inserts, key=_fact_order),
        sorted(set(map(parse_fact, operation.get("deletes", ()))), key=_fact_order),
        annotations or None,
    )


def _replay(service, records, report: RecoveryReport) -> None:
    """Step 2: re-drive ``records``, each view's updates in runs."""
    runs: Dict[str, List[Tuple[int, tuple]]] = {}  # view → [(lsn, batch)]
    failures: List[Tuple[int, str]] = []

    def settle(lsn: int, outcome: object) -> None:
        if not isinstance(outcome, BaseException):
            report.replayed_records += 1
        elif isinstance(outcome, RecoveryError) or not isinstance(
            outcome, (ReproError, KeyError, ValueError)
        ):
            raise outcome
        else:
            message = f"lsn {lsn}: {type(outcome).__name__}: {outcome}"
            failures.append((lsn, message))
            logger.warning("skipping unreplayable WAL record (%s)", message)

    def flush(name) -> None:
        run = runs.pop(name, None)
        if run:
            outcomes = service._commit(name, [batch for _lsn, batch in run])
            for (lsn, _batch), outcome in zip(run, outcomes):
                settle(lsn, outcome)

    for record in records:
        operation = record.operation
        name = operation.get("view")
        outcome = None
        try:
            if operation.get("op") == "update":
                run = runs.setdefault(name, [])
                run.append((record.lsn, _update_batch(operation)))
                if len(run) >= service.queue_capacity:
                    flush(name)
                continue
            flush(name)
            _apply_registration(service, record)
        except (ReproError, KeyError, ValueError) as exc:
            outcome = exc
        settle(record.lsn, outcome)
    for name in list(runs):
        flush(name)
    # Runs settle when they flush, not where their records sat in the log.
    report.skipped_records = len(failures)
    report.errors.extend(message for _lsn, message in sorted(failures))


def recover_service(service, manager: DurabilityManager) -> RecoveryReport:
    """Rebuild ``service`` from ``manager``'s data directory.

    ``service`` must be freshly constructed (no views registered).
    Raises :class:`~repro.robustness.RecoveryError` on a fingerprint
    mismatch or an unreadable checkpointed view; tolerates individual
    WAL records that no longer apply.
    """
    fault_point("durability.recover")
    state, records = manager.scan()
    report = RecoveryReport(
        checkpoint_lsn=manager.last_checkpoint_lsn,
        torn_records_dropped=manager.torn_records_dropped,
    )
    manager.replaying = True
    try:
        if state:
            views = state.get("views", {})
            for name in sorted(views):
                report.facts_restored += _restore_view(service, name, views[name])
                report.views_restored += 1
            rollup = state.get("rollup")
            if rollup:
                # Absorbed into the retired totals: the rollup stays
                # monotone across the restart even though the live
                # views start from zero.
                service.metrics.absorb_counters(
                    {name: int(value) for name, value in rollup.items()}
                )
            # Service-level counters are re-seated directly, so
            # requests_total & co. are monotone across the restart too
            # (replay bumps some of them again — totals may over-count
            # the crash window, never regress).
            # Only declared ones: an older release's checkpoint may
            # carry counters that no longer exist (the demand_* ones).
            declared = zeroed(SERVICE)
            for name, value in state.get("service_counters", {}).items():
                if value and name in declared:
                    service.metrics.bump(name, int(value))
        _replay(service, records, report)
    finally:
        manager.replaying = False
    report.generation = manager.bump_generation()
    service.metrics.bump("recoveries")
    if report.replayed_records:
        service.metrics.bump("recovery_replay_records", report.replayed_records)
    logger.info(
        "recovered generation %d: %d views, %d facts from checkpoint lsn %d, "
        "%d WAL records replayed (%d skipped, %d torn dropped)",
        report.generation,
        report.views_restored,
        report.facts_restored,
        report.checkpoint_lsn,
        report.replayed_records,
        report.skipped_records,
        report.torn_records_dropped,
    )
    return report
