"""DBSP-style delta-stream maintenance.

The maintenance core of the service: materialized views are maintained
over a *stream* of update batches by an incrementalized circuit over
the prepared rule plans (:mod:`.engine`: every component by
over-delete and re-derive, on plain row sets), and the bounded
group-commit queue that lets the server coalesce write bursts into
single circuit passes (:mod:`.queue`); the valid / well-founded
semantics run as an alternating chain kept as ranked rows over one
of those engines (:mod:`.alternating`).  See ``docs/DBSP.md``.

The names below resolve on first use (PEP 562): the alternating chain
loads with the first view of a non-stratified program.
"""

from ..._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "engine": ("DBSPEngine",),
        "alternating": ("AlternatingEngine",),
        "queue": ("UpdateQueue", "Ticket"),
    },
)
