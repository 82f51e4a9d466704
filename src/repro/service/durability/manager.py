"""The :class:`DurabilityManager`: one data directory, journaled.

A serving tier that wants durability owns exactly one manager.  The
manager owns the data directory — the single-writer ``LOCK`` file, the
WAL segments, the checkpoint files, and the ``GENERATION`` marker —
and exposes the small surface the tier needs:

* :meth:`scan` — everything on disk at cold start: the newest valid
  checkpoint, the torn-tail-truncated WAL suffix past it, and the
  truncation count (how many records the crash tore off the tail);
* :meth:`append` — journal one operation (the tier calls this *after*
  the operation succeeded and *before* acknowledging it, so a logged
  record is always a real state transition and an acked one is always
  logged);
* :meth:`maybe_checkpoint` / :meth:`checkpoint` — the every-N-records
  cadence.  Checkpointing rotates the WAL first, so the checkpoint's
  boundary lsn cleanly separates covered segments (pruned) from the
  fresh one appends continue into.  The state captured *may* already
  include a few operations past the boundary — replaying a contiguous
  suffix of insert/delete/register operations onto a state that
  already contains its effects reconverges to the same fixpoint, so
  recovery is correct either way (docs/DURABILITY.md spells out the
  argument);
* :meth:`close` — final checkpoint (graceful shutdown), log close,
  lock release.

The manager is deliberately tier-agnostic: it never interprets the
operation dicts it journals.  What to journal and how to replay live
with the tier — :mod:`.recovery` for the single-process
:class:`~repro.service.server.QueryService`, the router's own loader
for the cluster control plane.
"""

from __future__ import annotations

import logging
import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ...robustness import DataDirLocked, RecoveryError, fault_point
from .checkpoint import CheckpointStore, fsync_directory
from .wal import (
    FSYNC_MODES,
    WalRecord,
    WriteAheadLog,
    scan_segment,
    segment_files,
    truncate_segment,
)

__all__ = ["DurabilityManager", "DataDirLocked", "RecoveryError"]

logger = logging.getLogger(__name__)

try:  # pragma: no cover - fcntl is always present on the target platform
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None


class DurabilityManager:
    """Journaling, checkpoint cadence, and recovery plumbing for one tier.

    ``capture`` (set after construction via :meth:`attach`, or passed
    here) is the zero-argument callable producing the tier's complete
    JSON-friendly state for a checkpoint.  ``on_event(name, amount)``
    receives counter bumps (``wal_appends``, ``wal_fsyncs``,
    ``wal_checkpoints``, ``wal_torn_records_dropped``,
    ``recovery_replay_records``, ``recoveries``) — the tier points it
    at its metrics plane.
    """

    def __init__(
        self,
        data_dir,
        fsync: str = "batch",
        checkpoint_every: int = 256,
        fsync_every: int = 16,
        capture: Optional[Callable[[], Dict[str, object]]] = None,
        on_event: Optional[Callable[[str, int], None]] = None,
    ):
        if fsync not in FSYNC_MODES:
            raise ValueError(f"unknown fsync mode {fsync!r}; pick from {FSYNC_MODES}")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.checkpoint_every = max(1, checkpoint_every)
        self.capture = capture
        self.on_event = on_event
        #: True while recovery replays the log through the tier's normal
        #: operation paths — those paths consult it to skip re-journaling.
        self.replaying = False
        self._lock_handle = self._acquire_lock()
        self._checkpoint_lock = threading.Lock()
        self._appends_since_checkpoint = 0
        self._last_checkpoint_lsn = 0
        self._closed = False
        self.generation = self._read_generation()
        # Cold-start disk scan happens before the WAL reopens, so the
        # new active segment starts past everything recovery saw.
        self._store = CheckpointStore(self.data_dir)
        (
            self._scanned_checkpoint_lsn,
            self._scanned_state,
            self._scanned_records,
            self.torn_records_dropped,
        ) = self._scan_disk()
        highest = (
            self._scanned_records[-1].lsn
            if self._scanned_records
            else self._scanned_checkpoint_lsn
        )
        self._wal = WriteAheadLog(
            self.data_dir,
            fsync=fsync,
            fsync_every=fsync_every,
            next_lsn=highest + 1,
            on_event=on_event,
        )
        self._last_checkpoint_lsn = self._scanned_checkpoint_lsn
        if self.torn_records_dropped:
            self._event("wal_torn_records_dropped", self.torn_records_dropped)

    # -- locking -------------------------------------------------------------

    def _acquire_lock(self):
        path = self.data_dir / "LOCK"
        handle = open(path, "a+")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise DataDirLocked(
                    f"data directory {self.data_dir} is locked by another "
                    "live server process"
                ) from None
        handle.seek(0)
        handle.truncate()
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        return handle

    # -- the generation marker ----------------------------------------------

    def _generation_path(self) -> Path:
        return self.data_dir / "GENERATION"

    def _read_generation(self) -> int:
        try:
            return int(self._generation_path().read_text().strip())
        except (OSError, ValueError):
            return 0

    def bump_generation(self) -> int:
        """Advance the recovered-generation marker (tmp + rename)."""
        self.generation += 1
        tmp = self._generation_path().with_suffix(".tmp")
        tmp.write_text(f"{self.generation}\n")
        os.replace(tmp, self._generation_path())
        if self.fsync != "off":
            fsync_directory(self.data_dir)
        return self.generation

    # -- cold-start scan -----------------------------------------------------

    def _scan_disk(self) -> Tuple[int, Optional[Dict], List[WalRecord], int]:
        """Newest checkpoint + truncated, deduplicated WAL suffix."""
        checkpoint_lsn, state = self._store.load_newest()
        records: List[WalRecord] = []
        torn_total = 0
        stop = False
        for path in segment_files(self.data_dir):
            if stop:
                # A torn record in a *non-final* segment means every
                # later segment is unreachable from a consistent
                # prefix; count and drop them rather than replay a
                # stream with a hole in the middle.
                segment_records, _end, torn = scan_segment(path)
                torn_total += len(segment_records) + torn
                path.unlink()
                continue
            segment_records, clean_end, torn = scan_segment(path)
            if torn:
                torn_total += torn
                truncate_segment(path, clean_end)
                stop = True
            records.extend(
                record
                for record in segment_records
                if record.lsn > checkpoint_lsn
            )
        records.sort(key=lambda record: record.lsn)
        return checkpoint_lsn, state, records, torn_total

    def scan(self) -> Tuple[Optional[Dict], List[WalRecord]]:
        """What recovery must restore: ``(checkpoint_state, wal_suffix)``.

        The suffix is already torn-tail-truncated and contains only
        records past the checkpoint, in lsn order.
        """
        return self._scanned_state, self._scanned_records

    @property
    def last_checkpoint_lsn(self) -> int:
        return self._last_checkpoint_lsn

    def attach(
        self,
        capture: Optional[Callable[[], Dict[str, object]]] = None,
        on_event: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Late-bind the capture/metrics hooks (after tier construction)."""
        if capture is not None:
            self.capture = capture
        if on_event is not None:
            self.on_event = on_event
            self._wal.on_event = on_event

    def _event(self, name: str, amount: int = 1) -> None:
        if self.on_event is not None:
            self.on_event(name, amount)

    # -- journaling ----------------------------------------------------------

    def append(self, operation: Dict[str, object]) -> int:
        """Journal one completed operation; its lsn.

        Call *after* the operation succeeded, *before* acknowledging it
        to the client — and, for ordering, inside whatever hold
        serialises operations on the touched entity (the view lock, the
        registry lock), so replay order matches apply order
        per entity.
        """
        lsn = self._wal.append(operation)
        self._appends_since_checkpoint += 1
        return lsn

    def should_checkpoint(self) -> bool:
        return self._appends_since_checkpoint >= self.checkpoint_every

    def maybe_checkpoint(self) -> bool:
        """Checkpoint when the cadence says so.

        Call **outside** any entity lock: the capture callback walks
        the tier's state and may take those locks itself.
        """
        if not self.should_checkpoint():
            return False
        return self.checkpoint()

    def checkpoint(self) -> bool:
        """Take one checkpoint now (False when one is already running)."""
        if self.capture is None:
            return False
        if not self._checkpoint_lock.acquire(blocking=False):
            return False
        try:
            fault_point("durability.checkpoint")
            # Rotate first: the boundary lsn separates segments the
            # checkpoint covers (pruned below) from the one appends
            # keep landing in while we capture.
            boundary = self._wal.rotate()
            self._appends_since_checkpoint = 0
            state = self.capture()
            self._store.save(state, boundary, durable=self.fsync != "off")
            self._wal.prune(boundary)
            self._last_checkpoint_lsn = boundary
            self._event("wal_checkpoints")
            return True
        finally:
            self._checkpoint_lock.release()

    # -- observability -------------------------------------------------------

    def wal_size_bytes(self) -> int:
        return self._wal.size_bytes()

    def last_lsn(self) -> int:
        return self._wal.last_lsn()

    def describe(self) -> Dict[str, object]:
        """The JSON block ``metrics`` snapshots embed."""
        return {
            "data_dir": str(self.data_dir),
            "fsync": self.fsync,
            "checkpoint_every": self.checkpoint_every,
            "generation": self.generation,
            "last_lsn": self._wal.last_lsn(),
            "last_checkpoint_lsn": self._last_checkpoint_lsn,
            "wal_size": self._wal.size_bytes(),
        }

    # -- shutdown ------------------------------------------------------------

    def close(self, final_checkpoint: bool = True) -> None:
        """Graceful shutdown: final checkpoint, close the log, unlock."""
        if self._closed:
            return
        self._closed = True
        try:
            if final_checkpoint and self.capture is not None:
                try:
                    self.checkpoint()
                except Exception:  # keep shutting down on a failed flush
                    logger.exception("final checkpoint failed; WAL remains")
            self._wal.close()
        finally:
            if fcntl is not None:
                try:
                    fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
            self._lock_handle.close()
