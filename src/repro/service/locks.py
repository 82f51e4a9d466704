"""Locking primitives for the concurrent query service.

The service used to serialise every request through one big lock; now
it holds

* one plain mutex over the **registry**, taken only by its writers —
  ``register`` and ``unregister`` — and by the metrics snapshot.  The
  registry itself is the **copy-on-write name table**, an immutable
  ``name → (view, generation)`` dict the writers rebuild under that
  mutex and publish through an :class:`AtomicReference`; every other
  caller (queries, updates, admin verbs) resolves names with one atomic
  load and zero lock acquisitions;
* one :class:`InstrumentedLock` per **view** (``view.lock``) — held by
  *writers* (updates, recovery), so update batches on the same view
  stay serialised.  The lock order is per-view lock, then registry
  mutex; and
* one :class:`AtomicReference` per view holding its published
  :class:`~repro.service.snapshot.ModelSnapshot` — *readers* pick the
  current snapshot off the reference with no lock at all (RCU-style),
  so queries on a hot view never wait behind maintenance.

Every :class:`InstrumentedLock` acquisition reports its wait and hold
wall-clock to a recorder (the service's
:class:`~repro.service.metrics.ServiceMetrics`), and the acquisition
itself is an injectable fault site (``service.lock``) so the chaos
suite can blow up a request *before* it touches any state.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..robustness import fault_point

__all__ = ["AtomicReference", "InstrumentedLock"]

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

    def held(self) -> "_Hold":
        """Acquire for the ``with`` body, recording wait and hold time."""
        return _Hold(self)

    def __repr__(self) -> str:
        return f"<InstrumentedLock {self.name!r}>"


class _Hold:
    """One ``with lock.held()`` block: its acquisition times (the lock is
    reentrant, so every hold keeps its own)."""

    __slots__ = ("_lock", "_requested", "_acquired")

    def __init__(self, lock: InstrumentedLock) -> None:
        self._lock = lock

    def __enter__(self) -> None:
        fault_point("service.lock")
        self._requested = time.perf_counter()
        self._lock._lock.acquire()
        self._acquired = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        held = time.perf_counter() - self._acquired
        lock = self._lock
        lock._lock.release()
        if lock.recorder is not None:
            lock.recorder(lock.name, self._acquired - self._requested, held)
