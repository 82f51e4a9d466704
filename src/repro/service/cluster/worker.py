"""Worker processes of the sharded serving tier.

Each shard is one OS process hosting a full single-process
:class:`~repro.service.server.QueryService` behind the existing
newline protocol on its own unix socket — the worker needs **no**
protocol change to live under the router; the binary framing exists
only on the client ↔ router hop.  Running the service in a separate
process is what buys true write parallelism: each worker owns its own
GIL, so update batches on views living on different shards run on
different cores.

``worker_main`` is a module-level function with picklable arguments so
the ``spawn`` start method works everywhere (no reliance on ``fork``
inheriting an importable closure); the router terminates workers with
``Process.terminate()`` and respawns crashed ones from its own records.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, Optional

__all__ = ["worker_main", "spawn_worker", "DEFAULT_START_METHOD"]

#: ``spawn`` is the safe default: the router runs threads (the asyncio
#: loop, test harnesses), and forking a multi-threaded process can
#: inherit held locks.  Override with REPRO_CLUSTER_START_METHOD=fork
#: for faster startup where that risk is acceptable.
DEFAULT_START_METHOD = os.environ.get("REPRO_CLUSTER_START_METHOD", "spawn")

#: Seconds after SIGTERM at which a worker still shutting down writes
#: every thread's stack to stderr: after its socket server's drain
#: budget, before the router's 5 s join gives up and kills it.
STACK_DUMP_SECONDS = 4.0


def worker_main(socket_path: str, options: Optional[Dict] = None) -> None:
    """Run one shard: a QueryService on a unix socket, until terminated.

    ``options`` are :class:`~repro.service.server.QueryService` keyword
    arguments (``deadline_ms``, ``cache_capacity``, ``coalesce``, ...)
    plus the socket-server knobs ``max_concurrent`` and
    ``max_request_bytes``.
    """
    # Imports happen inside the function so a ``spawn``-ed child pays
    # them once, after the interpreter boots with a clean slate.
    import faulthandler
    import signal
    import threading

    from ...relations.universe import translation_registry
    from ..server import QueryService, serve_unix_socket

    options = dict(options or {})
    max_concurrent = options.pop("max_concurrent", 8)
    max_request_bytes = options.pop("max_request_bytes", None)
    service = QueryService(
        function_registry=translation_registry(), **options
    )
    # ``Process.terminate()`` is SIGTERM: drain in-flight requests and
    # close the service (flushing any durability plane) instead of
    # dying mid-reply.  The router tolerates either way — this just
    # makes the common shutdown graceful.  A shutdown that overruns
    # names its cause: the stacks of every thread, on stderr.
    stop_event = threading.Event()

    def on_sigterm(_signum, _frame) -> None:
        faulthandler.dump_traceback_later(STACK_DUMP_SECONDS)
        stop_event.set()

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        serve_unix_socket(
            service,
            socket_path,
            max_concurrent=max_concurrent,
            max_request_bytes=max_request_bytes,
            stop_event=stop_event,
        )
    finally:
        service.close()
        faulthandler.cancel_dump_traceback_later()


def spawn_worker(
    socket_path: str,
    options: Optional[Dict] = None,
    start_method: str = DEFAULT_START_METHOD,
) -> multiprocessing.Process:
    """Start one worker process serving ``socket_path``.

    The process is a daemon, so an abandoned router cannot leak workers
    past its own lifetime; the caller is responsible for waiting until
    the socket accepts connections (the router probes with
    :func:`~repro.robustness.retry_with_backoff`).
    """
    context = multiprocessing.get_context(start_method)
    process = context.Process(
        target=worker_main,
        args=(socket_path, dict(options or {})),
        name=f"repro-worker-{os.path.basename(socket_path)}",
        daemon=True,
    )
    process.start()
    return process
