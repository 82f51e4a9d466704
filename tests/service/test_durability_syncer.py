"""The ``batch`` syncer: every ``fsync_every``-th fsync runs on the log's
``wal-syncer`` thread, off the request path.

* the window: an append waits while the handed-off fsync is in flight,
  so no more than ``fsync_every`` appended records are ever unsynced;
* a failed background fsync is latched and raised by the next call,
  and its records are fsynced again by the next one;
* lifecycle: closing the log, its manager or the service joins the
  syncer.
"""

import os
import threading

import pytest

from repro.service import QueryService, serve_stream
from repro.service.durability import DurabilityManager, WriteAheadLog

SYNCER = "wal-syncer"

RULES = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)."


def _on_syncer():
    return threading.current_thread().name == SYNCER


def _syncers():
    return {thread for thread in threading.enumerate() if thread.name == SYNCER}


def _counter():
    events = {}

    def bump(name, amount=1):
        events[name] = events.get(name, 0) + amount

    return events, bump


class TestWindow:
    def test_next_append_waits_for_the_fsync_in_flight(self, tmp_path, monkeypatch):
        release = threading.Event()
        entered = threading.Event()
        fsync = os.fsync

        def held(fd):
            if _on_syncer():
                entered.set()
                assert release.wait(10)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", held)
        events, bump = _counter()
        log = WriteAheadLog(tmp_path, fsync="batch", fsync_every=4, on_event=bump)
        try:
            for n in range(4):
                log.append({"n": n})
                assert log._unsynced <= log.fsync_every
            # The 4th append handed its fsync over and returned.
            assert entered.wait(10)
            assert events["wal_fsyncs"] == 1
            fifth = threading.Thread(target=log.append, args=({"n": 4},))
            fifth.start()
            fifth.join(0.3)
            assert fifth.is_alive(), "the 5th append ran past the fsync in flight"
            assert log.last_lsn() == 4
            release.set()
            fifth.join(10)
            assert not fifth.is_alive()
            assert log.last_lsn() == 5
            for n in range(5, 42):
                log.append({"n": n})
                assert log._unsynced <= log.fsync_every
            assert events["wal_fsyncs"] == 10
        finally:
            release.set()
            log.close()
        assert events["wal_fsyncs"] == 11  # close flushes the last two

    def test_the_append_thread_never_fsyncs(self, tmp_path, monkeypatch):
        callers = []
        fsync = os.fsync

        def spy(fd):
            callers.append(threading.current_thread().name)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        log = WriteAheadLog(tmp_path, fsync="batch", fsync_every=2)
        for n in range(10):
            log.append({"n": n})
        log.sync()
        assert callers == [SYNCER] * 5
        log.append({"n": 10})
        log.close()
        assert callers[5:] == ["MainThread"]


class TestFailure:
    @pytest.fixture()
    def failed(self, monkeypatch):
        """The syncer's first fsync fails with EIO; the list of its fds."""
        failed = []
        fsync = os.fsync

        def fail_once(fd):
            if _on_syncer() and not failed:
                failed.append(fd)
                raise OSError(5, "injected EIO")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", fail_once)
        return failed

    def test_wal_raises_a_latched_failure_once_and_refsyncs(self, tmp_path, failed):
        events, bump = _counter()
        log = WriteAheadLog(tmp_path, fsync="batch", fsync_every=4, on_event=bump)
        for n in range(4):
            log.append({"n": n})
        with pytest.raises(OSError, match="injected EIO"):
            log.append({"n": 4})
        # Written before the error was raised, and retried at once: the
        # four failed records plus this one stay unsynced until then.
        assert log.last_lsn() == 5
        # Counted at the trigger: the retry in, the failure back out.
        assert failed and events["wal_fsyncs"] == 1
        log.append({"n": 5})
        log.sync()
        assert log._unsynced == 0
        log.close()
        assert events["wal_fsyncs"] == 2

    def test_a_failed_background_fsync_fails_one_write(self, tmp_path, failed):
        service = QueryService(data_dir=str(tmp_path), fsync="batch")
        replies = []
        serve_stream(service, [f"register g stratified {RULES}"], replies.append)
        assert replies[-1].startswith("ok")
        acked = []
        outcomes = []
        # The registration is record 1, so the 15th write hands off the
        # 16-record fsync that fails and the 16th write sees it.
        for n in range(24):
            replies = []
            serve_stream(service, [f"+g e(n{n}, n{n + 1})"], replies.append)
            outcomes.append(replies[-1])
            if replies[-1].startswith("ok"):
                acked.append(("e", (f"n{n}", f"n{n + 1}")))
        assert failed
        assert [reply.startswith("ok") for reply in outcomes] == (
            [True] * 15 + [False] + [True] * 8
        )
        assert outcomes[15].startswith("error") and "injected EIO" in outcomes[15]
        counters = service.metrics_snapshot()["counters"]
        assert counters["wal_fsyncs"] == 1  # the failed one is not counted
        # Crash: no final checkpoint, the WAL is all there is.
        service.durability.close(final_checkpoint=False)
        recovered = QueryService(data_dir=str(tmp_path), fsync="batch")
        try:
            facts = {
                (predicate, tuple(str(value) for value in row))
                for predicate, row in recovered.view("g").database
            }
            assert set(acked) <= facts
        finally:
            recovered.close()


class TestLifecycle:
    def test_wal_close_joins_the_syncer(self, tmp_path):
        before = _syncers()
        log = WriteAheadLog(tmp_path, fsync="batch")
        assert _syncers() - before
        log.append({"op": "a"})
        log.close()
        assert not _syncers() - before
        log.close()  # idempotent

    @pytest.mark.parametrize("mode", ["always", "off"])
    def test_only_batch_starts_a_syncer(self, tmp_path, mode):
        before = _syncers()
        log = WriteAheadLog(tmp_path, fsync=mode)
        assert not _syncers() - before
        log.close()

    def test_manager_close_joins_the_syncer(self, tmp_path):
        before = _syncers()
        manager = DurabilityManager(tmp_path, fsync="batch", capture=lambda: {})
        assert _syncers() - before
        for n in range(20):
            manager.append({"n": n})
        manager.close()
        assert not _syncers() - before

    def test_service_close_joins_the_syncer(self, tmp_path):
        before = _syncers()
        service = QueryService(data_dir=str(tmp_path), fsync="batch")
        assert _syncers() - before
        service.register("g", RULES)
        for n in range(20):
            service.insert("g", "e", f"n{n}", f"n{n + 1}")
        service.close()
        assert not _syncers() - before
