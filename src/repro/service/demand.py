"""The demand registry: one ready-gated view per demanded pattern.

A *demand entry* is a view's program magic-rewritten for one binding
pattern (:mod:`repro.datalog.magic`) and materialized as its own
:class:`~repro.service.views.MaterializedView`, restricted to the facts
reachable from the demanded constants.  The serve path does not use
entries: ``QueryService.query_pattern`` probes the base view's
published snapshot, so a write runs one maintenance pass however many
patterns are read (docs/MAGIC.md, "Point reads").  The registry stays
a library piece beside ``QueryService._build_demand_entry``.

This module owns the entry lifecycle:

* **ready gating** — an entry is published to the copy-on-write lookup
  table *before* its view is built, carrying a :class:`threading.Event`;
  concurrent first queries for the same pattern find the shell and wait
  on the gate instead of racing duplicate builds.  A failed build parks
  the error on the entry (re-raised per waiter) and the creator
  discards the shell.
* **LRU eviction** — cold patterns are evicted once the table exceeds
  its capacity, least-recently-used first (touch timestamps are written
  racily without a lock; eviction only needs an ordering, not an exact
  one).  Entries still building are never evicted mid-build.
* **bounded republish** — the lookup table is copy-on-write (reads are
  wait-free, like the service name table), and every mutating operation
  — register **plus** whatever evictions it triggers, or dropping all
  of a view's entries at unregister — republishes **once**.  The
  ``republishes`` / ``copied_cells`` counters make the bound testable:
  an eviction storm of N churn events copies O(N · capacity) cells, not
  O(N²).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..robustness.errors import DeadlineExceeded
from .dbsp.queue import _per_waiter_copy
from .locks import AtomicReference

if TYPE_CHECKING:
    from ..datalog.magic import MagicProgram

__all__ = ["DemandEntry", "DemandRegistry"]

#: (view name, view generation, predicate, adornment) — the pattern key.
DemandKey = Tuple[str, int, str, str]


class DemandEntry:
    """One demanded binding pattern and its materialized cone."""

    __slots__ = (
        "key",
        "lock",
        "_ready",
        "view",
        "magic",
        "error",
        "seeded",
        "last_used",
    )

    def __init__(self, key: DemandKey):
        self.key = key
        #: Leaf lock serializing seed inserts and update propagation
        #: into :attr:`view`.  Always acquired *after* the base view
        #: lock when both are held (propagation); queries take it alone.
        self.lock = threading.Lock()
        self._ready = threading.Event()
        self.view = None  # MaterializedView, or None for fallback entries
        self.magic: Optional[MagicProgram] = None
        self.error: Optional[BaseException] = None
        #: Bound-value rows already inserted into the seed predicate.
        self.seeded: set = set()
        self.last_used = time.monotonic()

    @property
    def settled(self) -> bool:
        """Has the build finished (successfully or not)?"""
        return self._ready.is_set()

    @property
    def demand_driven(self) -> bool:
        """True when this entry answers from a magic-rewritten view
        (False: a memoized decision to fall back to the full view)."""
        return self.view is not None

    def touch(self) -> None:
        """Record a use for LRU ordering (racy by design)."""
        self.last_used = time.monotonic()

    def complete(self, view, magic: Optional[MagicProgram]) -> None:
        """Publish the built view (or a fallback marker) and open the gate."""
        self.view = view
        self.magic = magic
        self.touch()
        self._ready.set()

    def fail(self, error: BaseException) -> None:
        """Park a build failure and open the gate."""
        self.error = error
        self._ready.set()

    def wait_ready(self, timeout: Optional[float] = None):
        """Block until the build settles; return the view (``None`` for
        a fallback entry) or re-raise the build error per waiter."""
        if not self._ready.wait(timeout):
            raise DeadlineExceeded(
                "demand view was not ready before the deadline"
            )
        if self.error is not None:
            raise _per_waiter_copy(self.error)
        return self.view


class DemandRegistry:
    """Copy-on-write table of demand entries with batched LRU eviction."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("demand capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._table: AtomicReference = AtomicReference({})
        #: Mutating operations performed (each republished exactly once).
        self.republishes = 0
        #: Total cells copied across all republishes — the cost bound
        #: the COW-churn stress test asserts on.
        self.copied_cells = 0

    # -- wait-free read side ------------------------------------------------

    def lookup(self, key: DemandKey) -> Optional[DemandEntry]:
        """The entry for a pattern, LRU-touched; ``None`` on miss."""
        entry = self._table.get().get(key)
        if entry is not None:
            entry.touch()
        return entry

    def size(self) -> int:
        """How many patterns are resident (the gauge)."""
        return len(self._table.get())

    def entries_for(self, name: str, generation: int) -> List[DemandEntry]:
        """The *ready, demand-driven* entries of one view generation —
        the set a base update must be propagated into."""
        return [
            entry
            for key, entry in self._table.get().items()
            if key[0] == name
            and key[1] == generation
            and entry.settled
            and entry.view is not None
        ]

    # -- write side: one republish per operation ----------------------------

    def _publish(self, table: Dict[DemandKey, DemandEntry]) -> None:
        self._table.set(table)
        self.republishes += 1
        self.copied_cells += len(table)

    def get_or_create(
        self, key: DemandKey
    ) -> Tuple[DemandEntry, bool, List[DemandKey]]:
        """The entry for a pattern, creating an unsettled shell on miss.

        Returns ``(entry, created, evicted_keys)``.  The shell is
        visible to concurrent readers immediately (they wait on its
        ready gate); any LRU evictions the insert triggers happen under
        the same hold with the same single republish.
        """
        entry = self.lookup(key)
        if entry is not None:
            return entry, False, []
        with self._lock:
            table = self._table.get()
            entry = table.get(key)
            if entry is not None:
                entry.touch()
                return entry, False, []
            evicted: List[DemandKey] = []
            if len(table) >= self.capacity:
                candidates = sorted(
                    (k for k, e in table.items() if e.settled),
                    key=lambda k: table[k].last_used,
                )
                over = len(table) - self.capacity + 1
                evicted = candidates[:over]
            entry = DemandEntry(key)
            updated = {
                k: v for k, v in table.items() if k not in set(evicted)
            }
            updated[key] = entry
            self._publish(updated)
            return entry, True, evicted

    def discard(self, key: DemandKey, entry: DemandEntry) -> bool:
        """Remove a specific entry (failed build, poisoned propagation);
        a no-op when the table has moved on to a different entry."""
        with self._lock:
            table = self._table.get()
            if table.get(key) is not entry:
                return False
            updated = {k: v for k, v in table.items() if k != key}
            self._publish(updated)
            return True

    def drop_view(self, name: str) -> int:
        """Batch-remove every entry of a view (unregister / re-register)
        under one hold with one republish; returns how many went."""
        with self._lock:
            table = self._table.get()
            doomed = [k for k in table if k[0] == name]
            if not doomed:
                return 0
            updated = {
                k: v for k, v in table.items() if k[0] != name
            }
            self._publish(updated)
            return len(doomed)

    def close(self) -> None:
        """Drop everything (service shutdown)."""
        with self._lock:
            self._publish({})
