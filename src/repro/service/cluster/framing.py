"""The length-prefixed binary framing of the cluster front door.

The sharded serving tier keeps the workers on the existing newline
protocol (:mod:`repro.service.server`) and puts the framing only on
the client ↔ router hop, where pipelining matters:

* a **frame** is a 4-byte big-endian unsigned length followed by that
  many bytes of UTF-8 payload;
* a **request payload** is exactly one line-protocol request (no
  trailing newline, no embedded newlines — the router rejects those
  with a structured error rather than forwarding a torn request);
* a **response payload** is the full multi-line reply of that request,
  lines joined with ``\\n`` (``row ...`` lines, then the terminal
  ``ok ...`` / ``error ...`` line — the same grammar the line protocol
  emits, just delivered as one atomic unit);
* frames are **pipelined**: a client may write any number of request
  frames before reading; the router executes a connection's requests
  strictly serially in arrival order (so a pipelined query always sees
  the pipelined inserts before it) and writes one response frame per
  request, in order.  Requests on *different* connections run
  concurrently on the event loop.

Both ends cut frames with one :class:`FrameDecoder`, which owns the
connection's receive buffer: the router's front door fills it from an
``asyncio.BufferedProtocol``, the blocking :class:`~.client.ClusterClient`
with ``recv_into``.  Bytes that belong to the next frame stay in the
buffer for the next call, so a reply costs one ``recv`` however its
header and payload were split, and a pipelined burst needs no more
reads than the socket delivers it in.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "FrameError",
    "encode_frame",
    "read_frame",
    "write_frame",
]

_HEADER = struct.Struct(">I")

#: Refuse absurd frames before allocating for them (16 MiB default).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: What a connection's receive buffer starts at; it grows only to hold
#: a frame that does not fit (see :class:`FrameDecoder`).
BUFFER_BYTES = 64 * 1024


class FrameError(ValueError):
    """A malformed or oversized frame on the cluster wire."""


def encode_frame(payload: bytes) -> bytes:
    """``payload`` with its 4-byte big-endian length prefix."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Cuts frames out of one connection's bytes, in a buffer it owns.

    A reader receives into :meth:`get_buffer` (``recv_into``, or the
    ``get_buffer`` of an ``asyncio.BufferedProtocol``), reports the
    count to :meth:`buffer_updated`, and takes payloads from
    :meth:`next_frame` until it answers ``None``.  Only then may it ask
    for a buffer again, so the bytes held across reads are at most one
    partial frame: :meth:`get_buffer` moves them to the front and, if
    the frame's header says it will not fit, replaces the buffer with
    one of exactly the frame's size.  The buffer starts at
    :data:`BUFFER_BYTES` and is never larger than that or than the
    largest frame the connection has carried; nothing is allocated per
    read but the payloads handed out.
    """

    __slots__ = ("max_bytes", "_buffer", "_view", "_start", "_end")

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES):
        self.max_bytes = max_bytes
        self._buffer = bytearray(BUFFER_BYTES)
        self._view = memoryview(self._buffer)
        self._start = 0  # first byte not yet handed out
        self._end = 0  # one past the last byte received

    def _length(self, start: int) -> int:
        (length,) = _HEADER.unpack_from(self._buffer, start)
        if length > self.max_bytes:
            raise FrameError(
                f"frame of {length} bytes exceeds {self.max_bytes}"
            )
        return length

    def _frame_size(self) -> int:
        """The size of the frame at the front of the buffer, as far as
        it is known: the header's alone until the header has arrived."""
        if self._end - self._start < _HEADER.size:
            return _HEADER.size
        return _HEADER.size + self._length(self._start)

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        """The free space to receive into (never empty)."""
        start, end = self._start, self._end
        if start:
            # What is left is the start of one frame: move it forward.
            end -= start
            self._view[:end] = self._view[start : self._end]
            self._start, self._end = 0, end
        needed = self._frame_size()
        if needed > len(self._buffer):
            grown = bytearray(needed)
            grown[:end] = self._view[:end]
            self._buffer, self._view = grown, memoryview(grown)
        return self._view[end:]

    def buffer_updated(self, nbytes: int) -> None:
        """``nbytes`` more bytes landed in the last :meth:`get_buffer`."""
        self._end += nbytes

    def next_frame(self) -> Optional[bytes]:
        """The next complete frame's payload, or ``None`` if the bytes
        received so far do not hold one."""
        start, end = self._start, self._end
        if end - start < _HEADER.size:
            return None
        stop = start + _HEADER.size + self._length(start)
        if stop > end:
            return None
        payload = self._view[start + _HEADER.size : stop].tobytes()
        if stop == end:
            self._start = self._end = 0
        else:
            self._start = stop
        return payload

    def eof(self) -> None:
        """The peer closed: fine between frames, not inside one."""
        if self._end > self._start:
            raise FrameError("connection closed mid-frame")

    def read(self, sock: socket.socket) -> Optional[bytes]:
        """The next frame off a blocking socket, reading whatever the
        socket holds (``None`` on EOF at a frame boundary)."""
        while (payload := self.next_frame()) is None:
            nbytes = sock.recv_into(self.get_buffer())
            if not nbytes:
                return self.eof()
            self.buffer_updated(nbytes)
        return payload


def read_frame(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[bytes]:
    """One frame payload off a blocking socket, reading no byte past it
    (``None`` on EOF).  A connection read more than once keeps one
    :class:`FrameDecoder` and calls its :meth:`~FrameDecoder.read`."""
    decoder = FrameDecoder(max_bytes)
    while (payload := decoder.next_frame()) is None:
        missing = decoder._frame_size() - (decoder._end - decoder._start)
        nbytes = sock.recv_into(decoder.get_buffer()[:missing])
        if not nbytes:
            return decoder.eof()
        decoder.buffer_updated(nbytes)
    return payload


def write_frame(sock: socket.socket, payload: bytes) -> None:
    """Send one frame on a blocking socket."""
    sock.sendall(encode_frame(payload))
