"""DBSP-style delta-stream maintenance.

The maintenance core of the service: materialized views are maintained
as the integral of a *stream* of update batches by an incrementalized
circuit built from Z-sets (:mod:`.zset`), the integrate/differentiate
pair and incremental distinct (:mod:`.circuit`), a weighted delta
engine over the prepared rule plans (:mod:`.engine`), and the bounded
group-commit queue that lets the server coalesce write bursts into
single circuit passes (:mod:`.queue`); the valid / well-founded
semantics run as an alternating chain of those engines
(:mod:`.alternating`).  See ``docs/DBSP.md``.
"""

from .circuit import (
    IncrementalDistinct,
    NegativeWeightError,
    differentiate,
    integrate,
    running_integral,
)
from .alternating import AlternatingEngine
from .engine import DBSPEngine
from .queue import Ticket, UpdateQueue
from .zset import ZSet

__all__ = [
    "ZSet",
    "integrate",
    "running_integral",
    "differentiate",
    "IncrementalDistinct",
    "NegativeWeightError",
    "DBSPEngine",
    "AlternatingEngine",
    "UpdateQueue",
    "Ticket",
]
