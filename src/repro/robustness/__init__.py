"""Resource-governed evaluation: budgets, deadlines, faults, retries.

The paper's constructions are only semi-computable in general, so every
evaluation entry point in this reproduction — grounding, semi-naive
evaluation, all five declarative semantics, IFP iteration, term
rewriting, and the service layer — runs under an
:class:`EvaluationBudget` and stops with a structured
:class:`ReproError` subtype instead of hanging or dying:

* :mod:`~repro.robustness.budget` — :class:`EvaluationBudget`,
  :class:`EvaluationProgress`, :class:`CancellationToken`;
* :mod:`~repro.robustness.errors` — ``ReproError`` →
  ``BudgetExceeded`` / ``DeadlineExceeded`` / ``Cancelled`` /
  ``NonTerminating`` (+ service-side ``ViewDegraded``,
  ``RequestTooLarge``);
* :mod:`~repro.robustness.faults` — deterministic fault injection at
  named points, for the chaos property suite;
* :mod:`~repro.robustness.retry` — exponential-backoff retry for
  transient failures.

See ``docs/ROBUSTNESS.md`` for the budget contract and the degraded-
mode semantics of the service layer.
"""

from .budget import CancellationToken, EvaluationBudget, EvaluationProgress
from .errors import (
    BudgetExceeded,
    Cancelled,
    ClusterError,
    DataDirLocked,
    DeadlineExceeded,
    NonTerminating,
    RecoveryError,
    ReproError,
    RequestTooLarge,
    UpdateTimeout,
    ViewDegraded,
    WorkerUnavailable,
    error_line,
)
from .faults import (
    ALL_POINTS,
    FaultInjector,
    FaultRule,
    InjectedFault,
    fault_point,
    inject_faults,
)
from .retry import retry_with_backoff

__all__ = [
    "ALL_POINTS",
    "BudgetExceeded",
    "Cancelled",
    "CancellationToken",
    "ClusterError",
    "DataDirLocked",
    "DeadlineExceeded",
    "EvaluationBudget",
    "EvaluationProgress",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "NonTerminating",
    "RecoveryError",
    "ReproError",
    "RequestTooLarge",
    "UpdateTimeout",
    "ViewDegraded",
    "WorkerUnavailable",
    "error_line",
    "fault_point",
    "inject_faults",
    "retry_with_backoff",
]
