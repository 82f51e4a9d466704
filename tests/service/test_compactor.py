"""The snapshot compactor: chain flattening that changes no answer.

Compaction forces the lazy materialization a reader would perform, so
its whole contract is *observational invisibility*:

* ``rows()`` is identical before and after compaction — including when
  the compaction runs concurrently with readers and writers;
* ``fingerprint`` is stable across compaction (two snapshots built by
  the same delta path hash identically whether or not one of them was
  compacted);
* after a compaction cycle the chain depth is at or below the
  cap, and the ``compactions`` / ``compaction_rows`` counters record
  the work.

Every view compacts one way: every ``COMPACT_INTERVAL``-th publish
flattens the chains deeper than ``COMPACT_DEPTH`` (module constants of
:mod:`repro.service.views`, which these tests monkeypatch).
"""

import threading

import pytest

from repro.datalog.database import Database
from repro.relations import Atom
from repro.service import (
    MaterializedView,
    ModelSnapshot,
    QueryService,
    prepare_program,
    views,
)

PROGRAM = "p(X) :- base(X).\n"

#: An interval no test reaches: on-publish compaction never runs.
NEVER = 10**9


def _database(*names):
    database = Database()
    database.declare("base")
    for name in names:
        database.add("base", Atom(name))
    return database


def _chain_snapshot(batches):
    """A snapshot built by stacking ``batches`` delta publishes."""
    snapshot = ModelSnapshot.full({"p": {(Atom("seed"),)}})
    for index, (plus, minus) in enumerate(batches):
        snapshot = snapshot.apply_delta(
            {"p": frozenset(plus)}, {"p": frozenset(minus)}, index + 2
        )
    return snapshot


BATCHES = [
    ({(Atom(f"x{i}"),), (Atom(f"y{i}"),)}, {(Atom(f"y{i - 1}"),)} if i else set())
    for i in range(10)
]


class TestCompactionIsInvisible:
    def test_rows_identical_before_and_after(self):
        plain = _chain_snapshot(BATCHES)
        compacted = _chain_snapshot(BATCHES)
        assert compacted.max_chain_depth() == 10
        cells, rows = compacted.compact(0)
        assert cells == 1 and rows > 0
        assert compacted.max_chain_depth() == 0
        assert compacted.rows("p") == plain.rows("p")
        assert compacted.undefined_rows("p") == plain.undefined_rows("p")

    def test_fingerprint_stable_across_compaction(self):
        plain = _chain_snapshot(BATCHES)
        compacted = _chain_snapshot(BATCHES)
        compacted.compact(0)
        assert compacted.fingerprint == plain.fingerprint

    def test_compaction_respects_the_cap(self):
        snapshot = _chain_snapshot(BATCHES)
        cells, _rows = snapshot.compact(4)
        # The one deep chain flattens entirely: materialization
        # collapses every ancestor, so the depth drops to zero.
        assert cells == 1
        assert snapshot.max_chain_depth() <= 4

    def test_compaction_is_idempotent(self):
        snapshot = _chain_snapshot(BATCHES)
        first = snapshot.compact(0)
        second = snapshot.compact(0)
        assert first[0] == 1
        assert second == (0, 0)

    def test_shallow_chains_are_left_alone(self):
        snapshot = _chain_snapshot(BATCHES[:3])
        assert snapshot.compact(4) == (0, 0)
        assert snapshot.max_chain_depth() == 3


class TestCompactorVsReaders:
    def test_concurrent_compaction_never_changes_an_answer(self, monkeypatch):
        """One writer stacks delta publishes, one thread compacts the
        published snapshot flat out, readers pin snapshots and check
        rows() before and after a forced compaction — every answer must
        be one of the models the writer actually published."""
        monkeypatch.setattr(views, "COMPACT_INTERVAL", NEVER)
        service = QueryService()
        service.register("v", PROGRAM, database=_database("a"))
        view = service.view("v")

        stop = threading.Event()
        errors = []

        def writer():
            try:
                for i in range(60):
                    service.update(
                        "v", inserts=[("base", (Atom(f"w{i}"),))]
                    )
            except Exception as exc:
                errors.append(f"writer: {type(exc).__name__}: {exc}")
            finally:
                stop.set()

        def compactor():
            try:
                while not stop.is_set():
                    view.maybe_compact()
                    snapshot = view.read_snapshot()
                    if snapshot is not None:
                        snapshot.compact(0)
            except Exception as exc:
                errors.append(f"compactor: {type(exc).__name__}: {exc}")

        def reader():
            try:
                while not stop.is_set():
                    snapshot = view.read_snapshot()
                    if snapshot is None:
                        continue
                    before = snapshot.rows("p")
                    snapshot.compact(0)  # race a compaction on purpose
                    after = snapshot.rows("p")
                    assert before == after, "compaction changed rows()"
                    # Every answer is a prefix-closed model: the seed
                    # plus the first k writer facts for some k.
                    names = {row[0].name for row in after}
                    ws = sorted(
                        int(n[1:]) for n in names if n.startswith("w")
                    )
                    assert ws == list(range(len(ws))), (
                        f"torn model: {sorted(names)}"
                    )
            except Exception as exc:
                errors.append(f"reader: {type(exc).__name__}: {exc}")

        threads = (
            [threading.Thread(target=writer)]
            + [threading.Thread(target=compactor)]
            + [threading.Thread(target=reader) for _ in range(2)]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        # Quiescent check: the final model holds the seed + all facts.
        assert len(service.query("v", "p")) == 61

    def test_pinned_snapshot_fingerprint_stable_under_compaction(
        self, monkeypatch
    ):
        monkeypatch.setattr(views, "COMPACT_INTERVAL", NEVER)
        service = QueryService()
        service.register("v", PROGRAM, database=_database("a"))
        for i in range(10):
            service.update("v", inserts=[("base", (Atom(f"f{i}"),))])
        view = service.view("v")
        pinned = view.read_snapshot()
        assert pinned is not None and pinned.max_chain_depth() > 0
        rows_before = pinned.rows("p")
        fingerprint_before = pinned.fingerprint
        assert view.maybe_compact() >= 0
        pinned.compact(0)
        assert pinned.rows("p") == rows_before
        assert pinned.fingerprint == fingerprint_before


class TestOnPublishMode:
    def test_nth_publish_compacts_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(views, "COMPACT_DEPTH", 2)
        monkeypatch.setattr(views, "COMPACT_INTERVAL", 4)
        service = QueryService()
        service.register("v", PROGRAM, database=_database("a"))
        for i in range(16):
            service.update("v", inserts=[("base", (Atom(f"b{i}"),))])
        stats = service.view("v").stats()
        # The burst crossed four interval boundaries; each compaction
        # cycle flattened the chain back under the cap.
        assert stats["counters"]["compactions"] >= 1
        assert stats["counters"]["compaction_rows"] > 0
        assert stats["chain_depth"] <= 2 + 4  # cap + one interval of growth
        service.view("v").maybe_compact()
        assert service.view("v").chain_depth() <= 2

    def test_every_view_compacts_by_default(self):
        # Directly constructed views too: there is one policy.
        assert (views.COMPACT_DEPTH, views.COMPACT_INTERVAL) == (4, 8)
        view = MaterializedView(
            prepare_program("v", PROGRAM), database=_database("a")
        )
        for i in range(16):
            view.insert("base", Atom(f"d{i}"))
        assert view.stats()["counters"]["compactions"] == 2
        assert view.chain_depth() <= 4 + 8

    def test_off_mode_leaves_chains_to_the_publish_cap(self, monkeypatch):
        monkeypatch.setattr(views, "COMPACT_INTERVAL", NEVER)
        service = QueryService()
        service.register("v", PROGRAM, database=_database("a"))
        for i in range(10):
            service.update("v", inserts=[("base", (Atom(f"b{i}"),))])
        view = service.view("v")
        assert view.chain_depth() == 10
        assert view.stats()["counters"]["compactions"] == 0

