"""The multi-process sharded serving tier (``repro serve --shards N``).

Everything below :mod:`repro.service` scales within one process; the
GIL caps true parallel write throughput there.  This package crosses
the process boundary: N worker processes each host a full
single-process :class:`~repro.service.server.QueryService` behind the
existing line protocol on a per-worker unix socket, fronted by one
asyncio router speaking a pipelined length-prefixed binary framing.

* :mod:`.framing` — the client ↔ router wire format;
* :mod:`.hashring` — consistent-hash view placement;
* :mod:`.worker` — worker process entry points;
* :mod:`.router` — the asyncio front door: routing, fan-out,
  heartbeats, respawn, drain;
* :mod:`.client` — a blocking framed client for tests, benchmarks,
  and scripting.

See the "Sharded serving" section of ``docs/SERVICE.md`` for the
topology and drain semantics; the metrics rollup rules are in
:mod:`repro.service.metrics`.

The names below resolve on first use (PEP 562): a spawned worker loads
:mod:`.worker` through this package, and neither the router nor asyncio.
"""

from ..._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "client": ("ClusterClient", "ClusterReplyError"),
        "framing": (
            "MAX_FRAME_BYTES", "FrameError", "encode_frame", "read_frame",
            "read_frame_async", "write_frame", "write_frame_async",
        ),
        "hashring": ("HashRing",),
        ".metrics": ("merge_counters", "merge_histograms", "rollup_metrics"),
        "router": (
            "ClusterRouter", "ViewRecord", "WorkerHandle", "cluster",
        ),
        "worker": ("DEFAULT_START_METHOD", "spawn_worker", "worker_main"),
    },
)
