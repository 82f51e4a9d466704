"""A blocking client for the cluster front door.

Speaks the length-prefixed framing of :mod:`.framing` over a unix
socket.  One request frame carries one line-protocol request; the
matching response frame carries the full multi-line reply.  The client
supports **pipelining** (:meth:`ClusterClient.pipeline`): write many
request frames back-to-back, then collect the responses, which the
router guarantees arrive in request order.

Replies are read through the connection's own
:class:`~.framing.FrameDecoder`: one ``recv_into`` its buffer takes a
reply's header and payload together, and whatever arrives past a reply
(the next pipelined one) waits there for the next :meth:`receive`.

This is the surface the CLI smoke tests, the failure-path suites, and
bench P10 drive; application code embedding the cluster would speak
the same few dozen lines of framing.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, List, Optional, Sequence, Tuple

from ...robustness import ClusterError, retry_with_backoff
from .framing import MAX_FRAME_BYTES, FrameDecoder, write_frame

__all__ = ["ClusterClient", "ClusterReplyError"]


class ClusterReplyError(RuntimeError):
    """A request resolved to an ``error ...`` reply line.

    ``code`` is the wire code when the reply carried one (the
    structured :class:`~repro.robustness.ReproError` shape
    ``error <code> <Type>: <message>``), else ``"error"``.
    """

    def __init__(self, reply: str):
        super().__init__(reply)
        self.reply = reply
        parts = reply.split(None, 2)
        self.code = (
            parts[1]
            if len(parts) > 2 and not parts[1].endswith(":")
            else "error"
        )


class ClusterClient:
    """One framed connection to a :class:`~.router.ClusterRouter`.

    Connecting retries transient failures — ``ConnectionRefusedError``
    while the router (re)binds its front door, ``FileNotFoundError``
    while the socket file does not exist yet (a router still starting,
    or mid-restart after a crash) — with exponential backoff, up to
    ``connect_attempts`` tries.  Exhaustion raises the wire-coded
    :class:`~repro.robustness.ClusterError` instead of a raw OSError,
    so supervising scripts see the same structured shape as protocol
    errors.  Each attempt opens a *fresh* socket: a socket that failed
    ``connect`` is dead, not retryable.
    """

    def __init__(
        self,
        socket_path: str,
        timeout: Optional[float] = 60.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        connect_attempts: int = 8,
    ):
        self.socket_path = socket_path
        self._sock: Optional[socket.socket] = None
        self._frames = FrameDecoder(max_frame_bytes)

        def attempt() -> socket.socket:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(socket_path)
            except BaseException:
                sock.close()
                raise
            return sock

        try:
            self._sock = retry_with_backoff(
                attempt,
                attempts=max(1, connect_attempts),
                base_delay=0.02,
                max_delay=0.5,
                retry_on=(ConnectionRefusedError, FileNotFoundError),
            )
        except (ConnectionRefusedError, FileNotFoundError) as exc:
            raise ClusterError(
                f"cluster front door {socket_path} unavailable after "
                f"{max(1, connect_attempts)} connect attempts: {exc}"
            ) from exc

    # -- transport ----------------------------------------------------------

    def send(self, line: str) -> None:
        """Write one request frame without waiting for the response."""
        write_frame(self._sock, line.encode("utf-8"))

    def receive(self) -> List[str]:
        """Read one response frame as its reply lines."""
        payload = self._frames.read(self._sock)
        if payload is None:
            raise ConnectionError("router closed the connection")
        return payload.decode("utf-8").split("\n")

    def request(self, line: str) -> List[str]:
        """One round trip: the reply lines, terminator last."""
        self.send(line)
        return self.receive()

    def request_ok(self, line: str) -> List[str]:
        """Like :meth:`request`, raising on an ``error`` reply."""
        replies = self.request(line)
        if replies[-1].startswith("error"):
            raise ClusterReplyError(replies[-1])
        return replies

    def pipeline(self, lines: Sequence[str]) -> List[List[str]]:
        """Send every request before reading any response (pipelined)."""
        for line in lines:
            self.send(line)
        return [self.receive() for _ in lines]

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- verbs --------------------------------------------------------------

    @staticmethod
    def _json_of(replies: List[str]):
        return json.loads(replies[-1][3:])

    def register(
        self, name: str, source: str, semantics: str = "stratified"
    ) -> Dict:
        """Register a program.  A multi-line ``source`` goes on the wire
        as the router forwards one: its tokens joined by spaces."""
        from ..protocol import Request

        program = Request("register", text=source).program_line()
        return self._json_of(
            self.request_ok(f"register {name} {semantics} {program}")
        )

    def unregister(self, name: str) -> Dict:
        return self._json_of(self.request_ok(f"unregister {name}"))

    def insert(self, view: str, fact: str) -> Dict:
        return self._json_of(self.request_ok(f"+{view} {fact}"))

    def delete(self, view: str, fact: str) -> Dict:
        return self._json_of(self.request_ok(f"-{view} {fact}"))

    def query(self, view: str, predicate: str) -> Tuple[List[str], List[str]]:
        """``(true_rows, undefined_rows)`` as their wire renderings."""
        replies = self.request_ok(f"query {view} {predicate}")
        rows = [r[4:] for r in replies if r.startswith("row ")]
        undefined = [r[6:] for r in replies if r.startswith("undef ")]
        return rows, undefined

    def query_pattern(
        self, view: str, pattern: str
    ) -> Tuple[List[str], List[str]]:
        """A bound-pattern query — ``pattern`` is the
        wire form, e.g. ``"tc(a, _)"``.  Same reply shape as
        :meth:`query`; the router routes it to the view's home shard."""
        return self.query(view, pattern)

    def views(self) -> List[str]:
        return self._json_of(self.request_ok("views"))

    def metrics(self) -> Dict:
        return self._json_of(self.request_ok("metrics"))

    def metrics_prometheus(self) -> str:
        replies = self.request_ok("metrics --format=prometheus")
        return "\n".join(replies[:-1])

    def stats(self, view: Optional[str] = None) -> Dict:
        verb = f"stats {view}" if view else "stats"
        return self._json_of(self.request_ok(verb))

    def drain(self, shard_id: str) -> Dict:
        return self._json_of(self.request_ok(f"drain {shard_id}"))

    def shards(self) -> Dict:
        return self._json_of(self.request_ok("shards"))
