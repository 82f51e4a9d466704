"""The background snapshot compactor (``serve --compactor=thread``).

Under a write-heavy / read-light workload, each publish stacks another
copy-on-write delta cell on the hot predicates' chains; the first
reader after the burst pays the whole chain walk.  The default defence
is compact-on-Nth-publish (see :meth:`~repro.service.views.
MaterializedView.maybe_compact`), which amortizes the flattening into
the write path.  :class:`SnapshotCompactor` is the alternative for
deployments that want the write path untouched: a daemon thread sweeps
every registered view on a fixed cadence and flattens any published
snapshot whose chains exceed the view's depth cap.

The sweep is wait-free with respect to the service: it walks the
copy-on-write name table (the same lock-free structure queries resolve
against), and compaction itself only forces the lazy materialization a
reader would perform anyway — no lock is taken, no visible value
changes, and a view unregistered mid-sweep is simply compacted one
last time in vain.
"""

from __future__ import annotations

import logging
import threading

__all__ = ["SnapshotCompactor"]

logger = logging.getLogger(__name__)


class SnapshotCompactor:
    """A daemon thread that periodically flattens deep snapshot chains.

    ``sweep_interval`` is the pause between sweeps, in seconds.  The
    thread starts on :meth:`start` and stops — promptly, mid-pause —
    on :meth:`stop`; both are idempotent.  ``sweeps`` counts completed
    passes (test hooks wait on it instead of sleeping blindly).
    """

    def __init__(self, service, sweep_interval: float = 0.05):
        self.service = service
        self.sweep_interval = sweep_interval
        self.sweeps = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Start the sweeper thread (no-op when already running)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="snapshot-compactor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the sweeper to exit and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def sweep(self) -> int:
        """One pass over every registered view; cells compacted total.

        Public so tests (and the ``thread`` mode's loop) share one code
        path.  Resolution is lock-free: the name table read is one
        atomic reference load, and a racing register/unregister just
        means this sweep sees the table published before or after it.
        """
        compacted = 0
        for view, _generation in self.service.name_table().values():
            try:
                compacted += view.maybe_compact()
            except Exception:  # a broken view must not kill the sweeper
                logger.exception(
                    "compaction sweep failed for a view; continuing"
                )
        self.sweeps += 1
        return compacted

    def _run(self) -> None:
        while not self._stop.wait(self.sweep_interval):
            self.sweep()

    def __repr__(self) -> str:
        alive = self._thread is not None and self._thread.is_alive()
        return f"<SnapshotCompactor sweeps={self.sweeps} alive={alive}>"
