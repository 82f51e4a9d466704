"""The write-ahead log: CRC32-framed, length-prefixed, append-only.

Frame layout, one per record::

    +----------------+----------------+------------------------+
    | length (4B BE) | crc32 (4B BE)  | payload (JSON, utf-8)  |
    +----------------+----------------+------------------------+

The CRC covers the payload bytes; the payload is one JSON object
carrying the operation plus its ``lsn`` (log sequence number, assigned
monotonically by the writer).  A reader that hits a short header, a
short payload, a CRC mismatch, or unparsable JSON treats everything
from that offset on as a **torn tail** — the bytes a crash mid-write
left behind — and recovery truncates the file back to the last whole
record (:func:`truncate_segment`).

The log is a directory of **segments** (``wal-<first-lsn>.log``): the
writer appends to the newest one and :meth:`WriteAheadLog.rotate`
starts a fresh one at a checkpoint boundary, after which
:meth:`WriteAheadLog.prune` deletes segments wholly covered by the
checkpoint.  Opening a directory always starts a new segment after the
highest existing lsn — old segments are never appended to, so a
recovered tail can never interleave with new writes.

``fsync`` policies:

``always``
    ``os.fsync`` after every append — an acknowledged operation
    survives power loss (the crash-matrix guarantee);
``batch``
    fsync every ``fsync_every``-th append and on :meth:`sync` /
    :meth:`rotate` / :meth:`close` — bounded loss window, much cheaper.
    The every-``fsync_every``-th fsync runs on the log's one syncer
    thread (``wal-syncer``), not the appender's: the append that
    triggers it hands it over and returns, and the next append waits
    only while that fsync is still in flight, so at most
    ``fsync_every`` appended records are ever unsynced.  A failed
    background fsync is latched: the next :meth:`append` /
    :meth:`sync` / :meth:`rotate` / :meth:`close` raises it once its
    own work is done, and its records stay unsynced, so the next
    fsync covers them again;
``off``
    never fsync; every append still reaches the OS page cache (one
    unbuffered ``write``), so a process crash (``kill -9``) loses
    nothing — only the machine dying can.

Whoever runs an fsync, the fault point ``durability.fsync`` and the
``wal_fsyncs`` count belong to the call that asked for it, so both are
a function of the append / sync / rotate / close sequence.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ...robustness import fault_point

__all__ = [
    "FSYNC_MODES",
    "MAX_RECORD_BYTES",
    "WalRecord",
    "WriteAheadLog",
    "scan_segment",
    "truncate_segment",
]

FSYNC_MODES = ("always", "batch", "off")

_HEADER = struct.Struct(">II")

#: Sanity cap on one record's payload — a corrupt length field must not
#: make the scanner try to allocate gigabytes.
MAX_RECORD_BYTES = 64 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def _segment_name(first_lsn: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_lsn:020d}{_SEGMENT_SUFFIX}"


def segment_files(directory: Path) -> List[Path]:
    """The directory's WAL segments, oldest first (by first lsn)."""
    return sorted(
        path
        for path in directory.iterdir()
        if path.name.startswith(_SEGMENT_PREFIX)
        and path.name.endswith(_SEGMENT_SUFFIX)
    )


#: A record's JSON text: sorted keys, no spaces.  One encoder for every
#: append.
_to_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_record(payload: bytes) -> bytes:
    """Frame one payload: length + CRC32 header, then the bytes."""
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record: its lsn and the operation dict."""

    lsn: int
    operation: Dict[str, object]


def scan_segment(path: Path) -> Tuple[List[WalRecord], int, int]:
    """Decode one segment: ``(records, clean_end_offset, torn_records)``.

    ``clean_end_offset`` is the byte offset of the last whole record's
    end — equal to the file size when the segment is clean.  Anything
    past it is a torn tail: at most one physically torn frame plus any
    frames queued behind it, reported in ``torn_records`` (counted as 1
    when trailing garbage exists but no whole header is readable).
    """
    data = path.read_bytes()
    records: List[WalRecord] = []
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            break
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES or offset + _HEADER.size + length > len(data):
            break
        payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break
        try:
            decoded = json.loads(payload.decode("utf-8"))
            lsn = int(decoded.pop("lsn"))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            break
        records.append(WalRecord(lsn, decoded))
        offset += _HEADER.size + length
    torn = 0
    if offset < len(data):
        # Count the whole frames drowned behind the torn one, so the
        # truncation metric reflects every record the tail cost us.
        torn = 1 + _count_frames(data, offset)
    return records, offset, torn


def _count_frames(data: bytes, offset: int) -> int:
    """Whole well-formed frames *after* the first torn byte (best effort)."""
    count = 0
    # Skip the torn frame itself: we cannot know its length, so walk
    # forward byte-by-byte until a valid frame parses.  Bounded scan —
    # torn tails are small (one interrupted write).
    probe = offset + 1
    while probe + _HEADER.size <= len(data) and probe - offset < 4096:
        length, crc = _HEADER.unpack_from(data, probe)
        end = probe + _HEADER.size + length
        if length <= MAX_RECORD_BYTES and end <= len(data):
            if zlib.crc32(data[probe + _HEADER.size : end]) & 0xFFFFFFFF == crc:
                count += 1
                probe = end
                continue
        probe += 1
    return count


def truncate_segment(path: Path, clean_end: int) -> int:
    """Cut a segment back to its clean prefix; bytes dropped returned."""
    size = path.stat().st_size
    if clean_end >= size:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(clean_end)
        handle.flush()
        os.fsync(handle.fileno())
    return size - clean_end


class WriteAheadLog:
    """The append side of the log: one active segment, thread-safe.

    ``next_lsn`` is seeded by the caller (recovery hands in the highest
    lsn it saw, plus one) so a reopened log continues the sequence.
    Under ``fsync="batch"`` the log owns one daemon syncer thread,
    joined by :meth:`close`.
    """

    def __init__(
        self,
        directory: Path,
        fsync: str = "batch",
        fsync_every: int = 16,
        next_lsn: int = 1,
        on_event=None,
    ):
        if fsync not in FSYNC_MODES:
            raise ValueError(f"unknown fsync mode {fsync!r}; pick from {FSYNC_MODES}")
        self.directory = Path(directory)
        self.fsync = fsync
        self.fsync_every = max(1, fsync_every)
        self.next_lsn = next_lsn
        self.on_event = on_event
        self._lock = threading.Lock()
        self._handle = None
        self._segment_path: Optional[Path] = None
        self._segment_bytes = 0
        self._older_bytes = sum(
            path.stat().st_size for path in segment_files(self.directory)
        )
        self._unsynced = 0
        self._open_segment()
        # The syncer's hand-off: ``_in_flight`` while it fsyncs, the
        # error it hit until a caller raises it, ``_closing`` to stop it.
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._in_flight = False
        self._failure: Optional[BaseException] = None
        self._closing = False
        self._syncer: Optional[threading.Thread] = None
        if fsync == "batch":
            self._syncer = threading.Thread(
                target=self._sync_in_background, name="wal-syncer", daemon=True
            )
            self._syncer.start()

    # -- internals (call with the lock held) --------------------------------

    def _open_segment(self) -> None:
        path = self.directory / _segment_name(self.next_lsn)
        # O_APPEND + buffering=0: every append is one whole-frame write
        # syscall, so a crash can tear at most the frame being written.
        self._handle = open(path, "ab", buffering=0)
        self._segment_path = path
        self._segment_bytes = 0

    def _event(self, name: str, amount: int = 1) -> None:
        if self.on_event is not None:
            self.on_event(name, amount)

    def _fsync_now(self) -> None:
        """fsync the active segment — the only place that does, on the
        lock holder's thread or on the syncer's while it is in flight
        (nothing writes or swaps the segment until it lands)."""
        os.fsync(self._handle.fileno())

    def _flush(self) -> None:
        """fsync every unsynced record on the caller's thread."""
        fault_point("durability.fsync")
        self._fsync_now()
        self._unsynced = 0
        self._event("wal_fsyncs")

    def _hand_off(self) -> None:
        """Give the fsync of every unsynced record to the syncer.

        Counted here, at the trigger; a failure is taken back from the
        count when a caller raises it (:meth:`_raise_failure`)."""
        fault_point("durability.fsync")
        self._in_flight = True
        self._event("wal_fsyncs")
        self._work.notify()

    def _settle(self) -> None:
        """Wait until no background fsync is in flight."""
        while self._in_flight:
            self._idle.wait()

    def _raise_failure(self) -> None:
        """Raise the error a background fsync hit, once."""
        failure, self._failure = self._failure, None
        if failure is not None:
            self._event("wal_fsyncs", -1)
            raise failure

    # -- the syncer thread (takes the lock itself) ---------------------------

    def _sync_in_background(self) -> None:
        """The syncer: one fsync per hand-off, until :meth:`close`."""
        while True:
            with self._lock:
                while not self._in_flight:
                    if self._closing:
                        return
                    self._work.wait()
            try:
                self._fsync_now()
            except Exception as exc:
                failure = exc
            else:
                failure = None
            with self._lock:
                # No append runs while the fsync is in flight, so it
                # covered every unsynced record; a failed one leaves
                # them all unsynced for the next fsync.
                if failure is None:
                    self._unsynced = 0
                else:
                    self._failure = failure
                self._in_flight = False
                self._idle.notify_all()

    # -- the write path ------------------------------------------------------

    def append(self, operation: Dict[str, object]) -> int:
        """Frame, write, and (per policy) fsync one operation; its lsn."""
        with self._lock:
            self._settle()
            fault_point("durability.append")
            lsn = self.next_lsn
            payload = _to_json({"lsn": lsn, **operation}).encode("utf-8")
            frame = encode_record(payload)
            self._handle.write(frame)
            self.next_lsn = lsn + 1
            self._segment_bytes += len(frame)
            self._unsynced += 1
            self._event("wal_appends")
            if self.fsync == "always":
                self._flush()
            elif self.fsync == "batch" and self._unsynced >= self.fsync_every:
                self._hand_off()
            self._raise_failure()
            return lsn

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        with self._lock:
            self._settle()
            if self.fsync != "off" and self._unsynced:
                self._flush()
            self._raise_failure()

    def rotate(self) -> int:
        """Close the active segment, start a fresh one; the boundary lsn.

        Every record with ``lsn <=`` the returned boundary lives in the
        closed (or older) segments — the position a checkpoint covers.
        """
        with self._lock:
            self._settle()
            if self.fsync != "off":
                self._flush()
            self._handle.close()
            self._older_bytes += self._segment_bytes
            boundary = self.next_lsn - 1
            self._open_segment()
            self._raise_failure()
            return boundary
    def prune(self, upto_lsn: int) -> int:
        """Delete segments whose records are all ``<= upto_lsn``.

        A segment is prunable when the *next* segment starts at or
        below ``upto_lsn + 1`` (its own records all precede that
        start).  The active segment is never deleted.  Returns the
        number of segments removed.
        """
        with self._lock:
            segments = segment_files(self.directory)
            removed = 0
            for path, following in zip(segments, segments[1:]):
                if path == self._segment_path:
                    continue
                next_first = int(
                    following.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
                )
                if next_first <= upto_lsn + 1:
                    self._older_bytes -= path.stat().st_size
                    path.unlink()
                    removed += 1
            return removed

    def size_bytes(self) -> int:
        """Total on-disk bytes across all live segments (the gauge)."""
        with self._lock:
            return self._older_bytes + self._segment_bytes

    def last_lsn(self) -> int:
        """The highest lsn appended so far (0 when empty)."""
        with self._lock:
            return self.next_lsn - 1

    def close(self) -> None:
        """Stop the syncer, fsync (unless ``off``), close the segment."""
        try:
            with self._lock:
                if self._handle is None:
                    return
                self._closing = True
                self._work.notify()
                self._settle()
                try:
                    if self.fsync != "off" and self._unsynced:
                        self._flush()
                finally:
                    self._handle.close()
                    self._handle = None
        finally:
            if self._syncer is not None:
                self._syncer.join()
        self._raise_failure()
