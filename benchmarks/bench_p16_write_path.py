"""P16 — performance: what one small write costs, layer by layer.

In process, on the seeded stream of the end-to-end benchmark's
``write_small`` workload: one boolean ``tc`` view over a pool of 48
edges (16 chains of 3), every other edge preloaded, and each write one
toggle — ``+g edge(c3n1, c3n2)`` or ``-g edge(c3n1, c3n2).`` — with the
pool visited once per pass in a fresh seeded order.  The service keeps a
data directory with ``--fsync off``, so the log append is measured
without its fsync.

Every write goes through ``_handle_line`` as a request line does.  The
table records, as the median over the writes of the microseconds each
layer took in that write:

* ``line`` — the whole request, ``_handle_line``;
* ``parse`` — ``parse_annotated_fact``;
* ``update`` — ``QueryService.update``, the rest of the write path;
* ``engine`` — ``DBSPEngine.apply_stream``, the circuit pass;
* ``tax`` — ``update`` minus ``engine`` in the same write: queue, lock,
  view, publish, log and acknowledgement;
* ``ticket`` — the ticket and queue calls (``UpdateQueue.submit`` and
  ``drain``, ``Ticket.complete`` and ``outcome``);
* ``publish`` — ``MaterializedView._publish_maintained``;
* ``wal`` — ``WriteAheadLog.append``;
* ``reply`` — ``line`` minus ``parse`` minus ``update``: dispatch and
  the ``ok`` reply.

Each layer is timed by a wrapper around it, which costs the same few
hundred nanoseconds on every call of every version; compare rows, not
absolute numbers, and only rows taken on the same box.  There is no
timing bar: what a write does is pinned by counts in
``tests/service/test_write_path_cost.py``.

``REPRO_BENCH_SCALE=smoke`` (CI) sends 1,000 writes after 300 warm-up
writes; the full scale sends 6,000 after 1,500.
"""

import os
import random
import statistics
import tempfile
import time

from repro.service import server
from repro.service.dbsp.engine import DBSPEngine
from repro.service.dbsp.queue import Ticket, UpdateQueue
from repro.service.durability.wal import WriteAheadLog
from repro.service.views import MaterializedView

from support import ExperimentTable

SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"
WARMUP, WRITES = (300, 1_000) if SMOKE else (1_500, 6_000)
SEED = 1

LAYERS = ("line", "parse", "update", "engine", "tax", "ticket", "publish", "wal", "reply")

table = ExperimentTable(
    "P16-write-path",
    "an uncontended small write costs its engine pass plus a small fixed tax",
    ["writes", *(f"{layer}-us" for layer in LAYERS)],
)

TC = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
POOL = [(f"c{k}n{i}", f"c{k}n{i + 1}") for k in range(16) for i in range(3)]


def _stream(count):
    """``count`` toggle lines over :data:`POOL`, seeded passes."""
    rng = random.Random(SEED)
    present = set(POOL[::2])
    pool = list(POOL)
    lines = []
    while len(lines) < count:
        rng.shuffle(pool)
        for edge in pool:
            fact = f"edge({edge[0]}, {edge[1]})"
            if edge in present:
                present.discard(edge)
                lines.append(f"-g {fact}.")
            else:
                present.add(edge)
                lines.append(f"+g {fact}")
    return lines[:count]


class _Clock:
    """Inclusive time per layer within the current write."""

    def __init__(self):
        self.spent = dict.fromkeys(LAYERS, 0)
        self._undo = []

    def wrap(self, owner, name, layer):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        spent = self.spent
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spent[layer] += clock() - started

        self._undo.append((owner, name, original))
        setattr(owner, name, timed)

    def reset(self):
        for layer in self.spent:
            self.spent[layer] = 0

    def unwrap(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)


def measure():
    directory = tempfile.mkdtemp(prefix="p16-")
    service = server.QueryService(data_dir=directory, fsync="off")
    preload = " ".join(f"edge({a}, {b})." for a, b in POOL[::2])
    lines = _stream(WARMUP + WRITES)
    clock = _Clock()
    try:
        [reply] = server._handle_line(service, f"register g stratified {TC} {preload}")
        assert reply.startswith("ok ")
        for line in lines[:WARMUP]:
            server._handle_line(service, line)
        clock.wrap(server, "_handle_line", "line")
        clock.wrap(server, "parse_annotated_fact", "parse")
        clock.wrap(server.QueryService, "update", "update")
        clock.wrap(DBSPEngine, "apply_stream", "engine")
        for name in ("submit", "drain"):
            clock.wrap(UpdateQueue, name, "ticket")
        for name in ("complete", "outcome"):
            clock.wrap(Ticket, name, "ticket")
        clock.wrap(MaterializedView, "_publish_maintained", "publish")
        clock.wrap(WriteAheadLog, "append", "wal")
        samples = {layer: [] for layer in LAYERS}
        handle = server._handle_line
        for line in lines[WARMUP:]:
            clock.reset()
            [reply] = handle(service, line)
            assert reply.startswith("ok {"), reply
            spent = dict(clock.spent)
            spent["tax"] = spent["update"] - spent["engine"]
            spent["reply"] = spent["line"] - spent["parse"] - spent["update"]
            for layer in LAYERS:
                samples[layer].append(spent[layer])
    finally:
        clock.unwrap()
        service.close()
    return {layer: statistics.median(values) / 1e3 for layer, values in samples.items()}


def test_write_path_layers(benchmark):
    medians = measure()
    benchmark.pedantic(_stream, args=(WRITES,), rounds=1, iterations=1)
    table.add(WRITES, *(f"{medians[layer]:.1f}" for layer in LAYERS))
