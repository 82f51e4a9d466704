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
* :mod:`.rollup` — per-shard ``ServiceMetrics`` → one aggregate;
* :mod:`.client` — a blocking framed client for tests, benchmarks,
  and scripting.

See the "Sharded serving" section of ``docs/SERVICE.md`` for the
topology, drain semantics, and metrics rollup rules.

The names below resolve on first use (PEP 562): a spawned worker loads
:mod:`.worker` through this package, and neither the router nor asyncio.
"""

import importlib

#: Public name → the submodule that defines it.
_EXPORTS = {
    "ClusterClient": "client",
    "ClusterReplyError": "client",
    "MAX_FRAME_BYTES": "framing",
    "FrameError": "framing",
    "encode_frame": "framing",
    "read_frame": "framing",
    "read_frame_async": "framing",
    "write_frame": "framing",
    "write_frame_async": "framing",
    "HashRing": "hashring",
    "merge_counters": "rollup",
    "merge_histograms": "rollup",
    "rollup_metrics": "rollup",
    "ClusterRouter": "router",
    "ViewRecord": "router",
    "WorkerHandle": "router",
    "canonical_fact_text": "router",
    "cluster": "router",
    "DEFAULT_START_METHOD": "worker",
    "spawn_worker": "worker",
    "worker_main": "worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # resolved once
    return value


def __dir__():
    return sorted({*globals(), *__all__})
