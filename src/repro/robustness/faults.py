"""Deterministic fault injection for chaos testing.

The engine and service are instrumented with named **fault points**
(``fault_point("incremental.component")`` etc.).  In production these
are no-ops; under :func:`inject_faults` an active :class:`FaultInjector`
counts how often each point is reached and raises :class:`InjectedFault`
exactly where its plan says to — deterministically, so every chaos
failure reproduces from its seed.

Instrumented points (see ``docs/ROBUSTNESS.md``):

==========================  ================================================
``grounder.round``          each round of the relevant-atom closure
``seminaive.round``         each semi-naive round of the direct evaluator
``incremental.apply``       entry of an incremental update batch
``incremental.component``   before each component of the update schedule
``incremental.initialize``  entry of a from-scratch (re)initialisation
``view.recompute``          entry of a rebuild view's ``run()`` (per write)
``cache.get`` / ``cache.put``  the LRU result cache
``service.lock``            before each per-view/registry lock acquisition
``durability.append``       before each WAL record write
``durability.fsync``        before each WAL fsync
``durability.checkpoint``   entry of a checkpoint capture
``durability.recover``      entry of cold-start recovery
==========================  ================================================

Typical use::

    plan = [FaultRule("incremental.component", at_hit=2)]
    with inject_faults(FaultInjector(plan)):
        view.apply(inserts=[("edge", ("a", "b"))])   # second component blows up

or, seeded for a chaos sweep::

    injector = FaultInjector.random(seed=17, points=ALL_POINTS, rate=0.05)
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from .errors import ReproError

__all__ = [
    "ALL_POINTS",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "fault_point",
    "inject_faults",
]


#: Every fault point instrumented in the engine and service layers.
ALL_POINTS = (
    "grounder.round",
    "seminaive.round",
    "incremental.apply",
    "incremental.component",
    "incremental.initialize",
    "view.recompute",
    "cache.get",
    "cache.put",
    # Appended last so seeded chaos plans over the older points keep
    # drawing the same random rules for them.
    "service.lock",
    # The durability layer (PR 7) — appended after service.lock for the
    # same seed-stability reason.
    "durability.append",
    "durability.fsync",
    "durability.checkpoint",
    "durability.recover",
)


class InjectedFault(ReproError):
    """A failure deliberately triggered by the fault-injection harness."""

    code = "injected-fault"

    def __init__(self, point: str, hit: int):
        super().__init__(f"injected fault at {point!r} (hit #{hit})")
        self.point = point
        self.hit = hit


@dataclass(frozen=True)
class FaultRule:
    """Fire at a named point, starting at its ``at_hit``-th reach.

    ``times`` bounds how many firings the rule produces (``None`` =
    every reach from ``at_hit`` on) — a rule with ``times=1`` models a
    transient failure that a retry survives; ``times=None`` a
    persistent one.
    """

    point: str
    at_hit: int = 1
    times: Optional[int] = 1


class FaultInjector:
    """A deterministic schedule of failures at named points."""

    def __init__(self, rules: Sequence[FaultRule] = ()):
        self.rules = list(rules)
        self.hits: Dict[str, int] = {}
        self.fired: List[InjectedFault] = []

    @classmethod
    def random(
        cls,
        seed: int,
        points: Sequence[str] = ALL_POINTS,
        rate: float = 0.05,
        horizon: int = 50,
        times: Optional[int] = 1,
    ) -> "FaultInjector":
        """A seeded random plan: each (point, hit ≤ horizon) pair fails
        independently with probability ``rate``.  Same seed, same plan."""
        rng = random.Random(seed)
        rules = [
            FaultRule(point, at_hit=hit, times=times)
            for point in points
            for hit in range(1, horizon + 1)
            if rng.random() < rate
        ]
        return cls(rules)

    def fire(self, point: str) -> None:
        """Register one reach of ``point``; raise when the plan says so."""
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        for rule in self.rules:
            if rule.point != point or hit < rule.at_hit:
                continue
            if rule.times is not None and hit >= rule.at_hit + rule.times:
                continue
            fault = InjectedFault(point, hit)
            self.fired.append(fault)
            raise fault


# The active injector is per-thread so concurrent service connections
# (and the test runner) never leak faults into each other.
_active = threading.local()
# How many ``inject_faults`` blocks are open in any thread: while none
# is, a fault point costs one global read.
_open_blocks = 0
_open_blocks_lock = threading.Lock()


def _current() -> Optional[FaultInjector]:
    return getattr(_active, "injector", None)


@contextmanager
def inject_faults(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Activate ``injector`` for the current thread for the ``with`` body."""
    global _open_blocks
    previous = _current()
    with _open_blocks_lock:
        _open_blocks += 1
    _active.injector = injector
    try:
        yield injector
    finally:
        _active.injector = previous
        with _open_blocks_lock:
            _open_blocks -= 1


def fault_point(point: str) -> None:
    """Mark an injectable failure site (no-op unless injecting)."""
    if _open_blocks:
        injector = _current()
        if injector is not None:
            injector.fire(point)
