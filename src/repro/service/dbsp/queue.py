"""The bounded update queue behind write coalescing.

Writers submit their batch as a :class:`Ticket` and then race for the
view lock.  Whoever wins becomes the **leader**: it drains every queued
ticket (up to the coalescing limit), pushes the whole burst through one
circuit pass and one snapshot publish, journals the batches, and
completes the tickets.  The losers find their ticket already completed
when they get the lock — group commit, in the classic WAL sense, for
maintenance work.

The queue is bounded: :meth:`UpdateQueue.submit` blocks while the queue
is full, which backpressures writers instead of letting a slow view
accumulate unbounded memory.  Progress is guaranteed without a
dedicated drainer thread because every enqueued ticket has a live owner
heading for the view lock — at worst each owner drains its own ticket.
That guarantee fails when a leader *dies* (an injected fault, a bug)
with the queue full: without a bound on the wait, every parked writer
would hang forever.  Both waits are therefore deadline-aware —
:meth:`UpdateQueue.submit` and :meth:`Ticket.outcome` raise the
wire-coded :class:`~repro.robustness.errors.UpdateTimeout` once the
request deadline passes, and the caller withdraws the ticket so a
timed-out write can never apply later.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple

from ...robustness.errors import UpdateTimeout

__all__ = ["Ticket", "UpdateQueue"]


def _per_waiter_copy(error: BaseException) -> BaseException:
    """A private clone of a settled ticket's error for one waiter.

    A single exception *instance* re-raised from several loser threads
    is mutated concurrently — each ``raise`` rewrites the shared
    ``__traceback__``, cross-contaminating the diagnostics every thread
    reports.  Each waiter gets a shallow copy (same args, same
    ``progress`` payload), chained to the shared original via
    ``__cause__`` so the leader's traceback stays reachable exactly
    once.  Exceptions that refuse to copy fall back to the shared
    instance — no worse than the old behavior.
    """
    try:
        clone = copy.copy(error)
    except Exception:  # pragma: no cover - exotic uncopyable exception
        return error
    clone.__traceback__ = None
    clone.__cause__ = error
    clone.__suppress_context__ = True
    return clone


#: Orders a ticket's settling against a waiter arming its event: the
#: waiter either sees the ticket settled or leaves an event that the
#: settling thread then sets.  Held for a few attribute moves at a time.
_SETTLE_LOCK = threading.Lock()


class Ticket:
    """One submitted update batch and its eventual outcome.

    ``annotations`` maps inserted facts to their parsed semiring values
    (``None`` for a bare write): a batch carries its own annotations
    through the queue, so an annotated write coalesces like any other.

    The :class:`threading.Event` a waiter blocks on is made only when a
    writer actually has to wait for another's drain: an owner that
    drains its own ticket finds it ``done`` and never builds one.
    """

    __slots__ = ("inserts", "deletes", "annotations", "done", "_event", "_result", "_error")

    def __init__(self, inserts, deletes, annotations=None):
        self.inserts = inserts
        self.deletes = deletes
        self.annotations = annotations
        self.done = False
        self._event: Optional[threading.Event] = None
        self._result = None
        self._error: Optional[BaseException] = None

    def _settle(self) -> None:
        with _SETTLE_LOCK:
            self.done = True
            event = self._event
        if event is not None:
            event.set()

    def complete(self, result) -> None:
        self._result = result
        self._settle()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._settle()

    def outcome(self, timeout: Optional[float] = None):
        """Block until the leader settles this ticket; return its
        summary or re-raise the error its batch died with.

        Several losers may wait on one coalesced ticket, so the error
        is re-raised as a per-waiter copy (see :func:`_per_waiter_copy`)
        — concurrent raises must not fight over one ``__traceback__``.
        """
        if not self.done:
            with _SETTLE_LOCK:
                event = None
                if not self.done:
                    event = self._event
                    if event is None:
                        event = self._event = threading.Event()
            if event is not None and not event.wait(timeout):
                raise UpdateTimeout(
                    "update ticket was not drained before the deadline"
                )
        if self._error is not None:
            raise _per_waiter_copy(self._error)
        return self._result


class UpdateQueue:
    """A bounded FIFO of pending update tickets for one view.

    Writers wait for space only while the queue is full, so only a pop
    from a full queue has anybody to wake.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._items: Deque[Ticket] = deque()

    def submit(
        self, inserts, deletes, annotations=None, timeout: Optional[float] = None
    ) -> Ticket:
        """Enqueue a batch, blocking while the queue is full.

        With a ``timeout`` (seconds) the wait for space is bounded:
        when the queue is still full at the deadline — every owner of a
        queued ticket is itself stuck, i.e. the drain leader died —
        :class:`~repro.robustness.errors.UpdateTimeout` is raised and
        nothing was enqueued.
        """
        ticket = Ticket(inserts, deletes, annotations)
        with self._lock:
            if len(self._items) >= self.capacity:
                self._wait_for_space(timeout)
            self._items.append(ticket)
        return ticket

    def _wait_for_space(self, timeout: Optional[float]) -> None:
        """Wait, holding the lock, until the queue has room."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while len(self._items) >= self.capacity:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise UpdateTimeout(
                        "update queue stayed full past the deadline "
                        f"(capacity {self.capacity})"
                    )
            self._space.wait(remaining)

    def drain(self, limit: int) -> List[Ticket]:
        """Pop up to ``limit`` tickets in FIFO order (leader only)."""
        with self._lock:
            items = self._items
            full = len(items) >= self.capacity
            drained = [items.popleft() for _ in range(min(limit, len(items)))]
            if drained and full:
                self._space.notify_all()
        return drained

    def withdraw(self, ticket: Ticket) -> bool:
        """Remove a still-queued ticket; False when a leader owns it."""
        with self._lock:
            full = len(self._items) >= self.capacity
            try:
                self._items.remove(ticket)
            except ValueError:
                return False
            if full:
                self._space.notify_all()
            return True

    def depth(self) -> int:
        """How many batches are queued right now (the gauge)."""
        with self._lock:
            return len(self._items)
