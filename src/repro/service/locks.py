"""Locking primitives for the concurrent query service.

The service used to serialise every request through one big lock; now
it holds

* one :class:`ReadWriteLock` over the **registry** — register and
  unregister take the write side; updates and admin verbs take the
  (shared) read side just long enough to resolve a view name.  Queries
  do not take it at all: they resolve against the **copy-on-write
  name table**, an immutable
  ``name → (view, generation)`` dict the writers rebuild under the
  write lock and publish through an :class:`AtomicReference` — one
  atomic load per resolution, zero lock acquisitions; and
* one :class:`InstrumentedLock` per **view** — held by *writers*
  (updates, recovery), so update batches on the same view stay
  serialised; and
* one :class:`AtomicReference` per view holding its published
  :class:`~repro.service.snapshot.ModelSnapshot` — *readers* pick the
  current snapshot off the reference with no lock at all (RCU-style),
  so queries on a hot view never wait behind maintenance.

Both wrappers are observability-aware: every :class:`InstrumentedLock`
acquisition reports its wait and hold wall-clock to a recorder (the
service's :class:`~repro.service.metrics.ServiceMetrics`), and the
acquisition itself is an injectable fault site (``service.lock``) so
the chaos suite can blow up a request *before* it touches any state.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ..robustness import fault_point

__all__ = ["AtomicReference", "InstrumentedLock", "ReadWriteLock"]

#: recorder(lock_name, wait_seconds, hold_seconds)
LockRecorder = Callable[[str, float, float], None]


class AtomicReference:
    """A single cell whose reads and writes are indivisible.

    The RCU publication primitive of the snapshot read path: a writer
    constructs a fully immutable value and swaps the reference in one
    step; readers call :meth:`get` with no lock and always observe a
    complete value, never a torn one.  (In CPython an attribute
    assignment is a single GIL-protected store, which is exactly the
    memory-ordering guarantee this wrapper names and documents — and
    the one place to add a real barrier on a free-threaded build.)

    Holding a value read from the cell remains safe indefinitely: the
    reference swap never mutates the previous value, it only stops new
    readers from finding it.
    """

    __slots__ = ("_value",)

    def __init__(self, value=None):
        self._value = value

    def get(self):
        """The currently published value (lock-free)."""
        return self._value

    def set(self, value) -> None:
        """Publish a new value with one atomic reference swap."""
        self._value = value


class ReadWriteLock:
    """A writer-preferring readers/writer lock.

    Many readers may hold the lock simultaneously; a writer holds it
    exclusively.  Waiting writers block new readers, so a stream of
    lookups cannot starve a registration.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Hold the shared (read) side for the ``with`` body."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Hold the exclusive (write) side for the ``with`` body."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class InstrumentedLock:
    """A reentrant lock that reports wait/hold times and can be faulted.

    The ``service.lock`` fault point fires *before* the acquisition
    attempt, so an injected failure rejects the request without ever
    taking (and thus never leaking) the lock.
    """

    def __init__(self, name: str, recorder: Optional[LockRecorder] = None):
        self.name = name
        self.recorder = recorder
        self._lock = threading.RLock()

    @contextmanager
    def held(self) -> Iterator[None]:
        """Acquire for the ``with`` body, recording wait and hold time."""
        fault_point("service.lock")
        requested = time.perf_counter()
        self._lock.acquire()
        acquired = time.perf_counter()
        try:
            yield
        finally:
            held = time.perf_counter() - acquired
            self._lock.release()
            if self.recorder is not None:
                self.recorder(self.name, acquired - requested, held)

    def __repr__(self) -> str:
        return f"<InstrumentedLock {self.name!r}>"
