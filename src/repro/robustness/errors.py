"""The structured error hierarchy for resource-governed evaluation.

The paper's constructions are only semi-computable in general:
``SUCC``-style generators enumerate infinite sets, valid-model
evaluation may iterate transfinitely, and stable-model search is
exponential.  Every evaluation entry point in this reproduction
therefore runs under an :class:`~repro.robustness.budget.
EvaluationBudget`, and every way a bounded evaluation can stop short
is a subtype of :class:`ReproError`:

``ReproError``
    base class; carries the budget's partial-progress diagnostics and
    a stable wire ``code`` the service maps to protocol error replies.

``BudgetExceeded``
    a step/fact/iteration bound was hit.  The legacy limit exceptions
    (``NonTerminating``, ``RewriteLimit``, ``TooManyChoiceAtoms``,
    ``GroundingBudgetExceeded``) are all subtypes, so existing callers
    keep working while new callers can catch the whole family here.

``DeadlineExceeded``
    the wall-clock deadline passed.

``Cancelled``
    the cooperative cancellation token was triggered.

``NonTerminating``
    an iteration cap was hit on a possibly-divergent fixpoint (the
    historical name, kept as a :class:`BudgetExceeded` subtype).

All classes subclass :class:`RuntimeError` so pre-existing ``except
RuntimeError`` guards continue to catch them.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "error_line",
    "ReproError",
    "BudgetExceeded",
    "DeadlineExceeded",
    "Cancelled",
    "NonTerminating",
    "ViewDegraded",
    "UpdateTimeout",
    "RequestTooLarge",
    "ClusterError",
    "WorkerUnavailable",
    "RecoveryError",
    "DataDirLocked",
]


class ReproError(RuntimeError):
    """Base class of every structured evaluation/service error.

    ``progress`` (when present) is an :class:`~repro.robustness.budget.
    EvaluationProgress` snapshot describing how far the evaluation got
    before stopping — iterations done, facts derived, last stratum.
    ``code`` is the stable wire identifier the line protocol reports.
    """

    code = "error"

    def __init__(self, message: str, *, progress: Optional[object] = None):
        super().__init__(message)
        self.progress = progress

    def diagnostics(self) -> dict:
        """A JSON-friendly description (code, message, progress)."""
        payload: dict = {"code": self.code, "message": str(self)}
        snapshot = getattr(self.progress, "snapshot", None)
        if callable(snapshot):
            payload["progress"] = snapshot()
        return payload


def error_line(exc: BaseException) -> str:
    """One structured ``error`` line for an exception, as the service
    protocol and the CLI print it.

    :class:`ReproError` subtypes carry a stable machine-readable code
    (``error <code> <Type>: <message>``); other exceptions keep the
    legacy ``error <Type>: <message>`` shape.
    """
    message = str(exc).replace("\n", " ")
    if isinstance(exc, ReproError):
        return f"error {exc.code} {type(exc).__name__}: {message}"
    return f"error {type(exc).__name__}: {message}"


class BudgetExceeded(ReproError):
    """A step, fact, or iteration bound of the budget was exhausted."""

    code = "budget-exceeded"


class DeadlineExceeded(ReproError):
    """The wall-clock deadline of the budget passed."""

    code = "deadline-exceeded"


class Cancelled(ReproError):
    """The evaluation's cooperative cancellation token was triggered."""

    code = "cancelled"


class NonTerminating(BudgetExceeded):
    """An iteration cap was hit on a possibly-divergent fixpoint.

    The historical name of this condition (IFP iteration, valid-model
    candidate closure); kept as a :class:`BudgetExceeded` subtype so
    both old and new call sites catch it.
    """

    code = "non-terminating"


class ViewDegraded(ReproError):
    """A materialized view is serving its last consistent model.

    Raised by the update path when a view could not be healed after a
    maintenance failure: queries still work (flagged stale), but
    updates are refused until a recompute succeeds.
    """

    code = "view-degraded"


class UpdateTimeout(ReproError, TimeoutError):
    """A write waited out its deadline in the group-commit queue.

    Raised when a submitted update batch could not even be *enqueued*
    before the request deadline (the bounded queue stayed full), or was
    enqueued but never drained in time — e.g. because the drain leader
    died on an injected fault.  The batch is withdrawn before this is
    raised, so a timed-out write is guaranteed not to apply later.

    Also a :class:`TimeoutError` so pre-existing ``except TimeoutError``
    guards around :meth:`~repro.service.dbsp.queue.Ticket.outcome`
    continue to catch it.
    """

    code = "update-timeout"


class RequestTooLarge(ReproError):
    """A protocol request exceeded the configured size limit."""

    code = "request-too-large"


class ClusterError(ReproError):
    """A sharded-serving-tier operation could not be carried out.

    Raised by the cluster router for topology mistakes — draining an
    unknown or already-drained shard, registering when no shard is
    available to take the view.
    """

    code = "cluster-error"


class WorkerUnavailable(ClusterError):
    """A shard's worker process could not serve the request.

    The router raises this when the connection to a worker dies
    mid-request or cannot be established: the client sees a wire-coded
    error instead of a hang, and may retry once the supervisor has
    respawned the worker.
    """

    code = "worker-unavailable"


class RecoveryError(ReproError):
    """Cold-start recovery from a data directory could not complete.

    Torn WAL tails are *not* errors — they are truncated silently (and
    counted); this is raised for genuine contract violations, e.g. a
    restored view whose database fingerprint disagrees with the
    checkpoint that claims to describe it.
    """

    code = "recovery-failed"


class DataDirLocked(RecoveryError):
    """Another live process holds the data directory's writer lock.

    Two servers journaling into one directory would interleave their
    logs into nonsense, so the second opener is refused up front.
    """

    code = "data-dir-locked"
