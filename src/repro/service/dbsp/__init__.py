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

The names below resolve on first use (PEP 562): the alternating chain
loads with the first view of a non-stratified program.
"""

from ..._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "zset": ("ZSet",),
        "circuit": (
            "integrate", "running_integral", "differentiate",
            "IncrementalDistinct", "NegativeWeightError",
        ),
        "engine": ("DBSPEngine",),
        "alternating": ("AlternatingEngine",),
        "queue": ("UpdateQueue", "Ticket"),
    },
)
