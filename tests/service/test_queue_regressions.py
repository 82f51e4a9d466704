"""Regressions for the write-path hang and error-propagation bugs.

Two bugs, both in the group-commit queue (:mod:`repro.service.dbsp.queue`):

* **S1 — the parked-writer hang.**  ``UpdateQueue.submit`` blocked
  forever while the queue was full.  Progress normally holds because
  every queued ticket has a live owner heading for the view lock — but
  a leader that *dies* (an injected fault, a killed thread) with the
  queue full leaves every parked writer waiting on a condition nobody
  will ever signal.  Both queue waits are now bounded by the request
  deadline and raise the wire-coded ``update-timeout``; a timed-out
  ticket is withdrawn so it can never apply later.

* **S2 — the shared-exception race.**  A coalesced ticket that fails is
  awaited by several loser threads; re-raising the *same* exception
  instance from each mutates the shared ``__traceback__``
  concurrently.  Every waiter now gets a per-waiter copy chained to the
  shared original via ``__cause__``.
"""

import threading
import time

import pytest

from repro.relations import Atom
from repro.robustness import FaultInjector, FaultRule, InjectedFault, inject_faults
from repro.robustness.errors import ReproError, UpdateTimeout
from repro.service import QueryService, UpdateQueue
from repro.service.dbsp.queue import Ticket, _per_waiter_copy

a, b = Atom("a"), Atom("b")

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
edge(a, b).
"""

JOIN_TIMEOUT = 20.0


def settle(threads):
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads hung: {stuck}"


class TestSubmitDeadline:
    def test_submit_times_out_on_full_queue(self):
        queue = UpdateQueue(capacity=1)
        queue.submit([("edge", (a, b))], [])
        start = time.monotonic()
        with pytest.raises(UpdateTimeout):
            queue.submit([("edge", (b, a))], [], timeout=0.1)
        assert time.monotonic() - start < 5.0
        # Nothing was enqueued by the timed-out submit.
        assert queue.depth() == 1

    def test_submit_without_timeout_waits_for_space(self):
        queue = UpdateQueue(capacity=1)
        first = queue.submit([("edge", (a, b))], [])
        done = threading.Event()

        def writer():
            queue.submit([("edge", (b, a))], [])
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert not done.wait(0.2)  # parked: queue is full
        assert queue.withdraw(first)
        settle([thread])
        assert done.is_set()

    def test_outcome_times_out_with_wire_code(self):
        ticket = Ticket([], [])
        with pytest.raises(UpdateTimeout) as info:
            ticket.outcome(0.05)
        assert info.value.code == "update-timeout"
        assert isinstance(info.value, TimeoutError)
        assert isinstance(info.value, ReproError)

    def test_withdraw_fails_once_drained(self):
        queue = UpdateQueue(capacity=4)
        ticket = queue.submit([], [])
        assert queue.drain(10) == [ticket]
        assert not queue.withdraw(ticket)


class TestParkedWriterHang:
    def test_parked_writers_settle_when_leader_is_dead(self):
        # The S1 scenario: a ticket whose owner died sits in a
        # capacity-1 queue, so it will never be drained.  Writers that
        # park behind it must settle with update-timeout at the request
        # deadline instead of hanging forever (pre-fix, this test
        # deadlocks until the join timeout trips).
        service = QueryService(
            coalesce=8, queue_capacity=1, deadline_ms=300
        )
        try:
            service.register("g", TC)
            view = service.view("g")
            view.pending.submit([("edge", (Atom("orphan"), a))], [])
            failures = []

            def writer(i):
                try:
                    service.insert("g", "edge", Atom(f"w{i}"), a)
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)

            threads = [
                threading.Thread(target=writer, args=(i,), name=f"w{i}")
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            settle(threads)
            assert len(failures) == 4
            assert all(isinstance(exc, UpdateTimeout) for exc in failures)
            # No timed-out write was enqueued, let alone applied.
            assert view.pending.depth() == 1
            rows, _, _ = service.query_state("g", "edge")
            assert not any(str(row[0]).startswith("w") for row in rows)
        finally:
            service.close()

    def test_service_recovers_after_orphan_cleared(self):
        service = QueryService(
            coalesce=8, queue_capacity=1, deadline_ms=300
        )
        try:
            service.register("g", TC)
            view = service.view("g")
            orphan = view.pending.submit([("edge", (Atom("orphan"), a))], [])
            with pytest.raises(UpdateTimeout):
                service.insert("g", "edge", b, a)
            assert view.pending.withdraw(orphan)
            service.insert("g", "edge", b, a)
            rows, _, _ = service.query_state("g", "edge")
            assert (b, a) in rows
        finally:
            service.close()

    def test_chaos_lock_faults_leave_consistent_state(self):
        # Writers whose view-lock acquisition is killed by the
        # service.lock fault must withdraw their own still-queued ticket
        # (fact absent) or defer to the leader that raced them to it
        # (fact present) — and clean writers always land.  Either way
        # everything settles and the final extension exactly matches the
        # acks.
        service = QueryService(coalesce=8, queue_capacity=4, deadline_ms=2000)
        try:
            service.register("g", TC)
            results = {}

            def chaos_writer(i):
                injector = FaultInjector(
                    [FaultRule("service.lock", at_hit=1, times=1)]
                )
                with inject_faults(injector):
                    try:
                        service.insert("g", "edge", Atom(f"c{i}"), a)
                        results[f"c{i}"] = "ok"
                    except InjectedFault:
                        results[f"c{i}"] = "faulted"

            def clean_writer(i):
                service.insert("g", "edge", Atom(f"k{i}"), a)
                results[f"k{i}"] = "ok"

            threads = [
                threading.Thread(target=chaos_writer, args=(i,), name=f"c{i}")
                for i in range(3)
            ] + [
                threading.Thread(target=clean_writer, args=(i,), name=f"k{i}")
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            settle(threads)
            assert view_is_consistent(service, results)
        finally:
            service.close()


def view_is_consistent(service, results):
    rows, _, _ = service.query_state("g", "edge")
    landed = {str(row[0]) for row in rows}
    for name, outcome in results.items():
        if outcome == "ok":
            assert name in landed, f"acked write {name} lost"
        else:
            assert name not in landed, f"failed write {name} applied"
    return True


class TestPerWaiterErrorCopies:
    def test_each_loser_gets_a_distinct_instance(self):
        ticket = Ticket([("edge", (a, b))], [])
        shared = RuntimeError("batch poisoned")
        ticket.fail(shared)
        received = []
        lock = threading.Lock()

        def loser():
            try:
                ticket.outcome(5.0)
            except RuntimeError as exc:
                with lock:
                    received.append(exc)

        threads = [threading.Thread(target=loser) for _ in range(6)]
        for thread in threads:
            thread.start()
        settle(threads)
        assert len(received) == 6
        # Distinct instances, none of them the shared original...
        assert len({id(exc) for exc in received}) == 6
        assert all(exc is not shared for exc in received)
        # ...with identical payloads, all chained to the original.
        assert all(exc.args == shared.args for exc in received)
        assert all(exc.__cause__ is shared for exc in received)
        assert all(exc.__suppress_context__ for exc in received)

    def test_copy_preserves_subtype_and_progress(self):
        original = UpdateTimeout("deadline", progress=None)
        clone = _per_waiter_copy(original)
        assert clone is not original
        assert isinstance(clone, UpdateTimeout)
        assert clone.code == "update-timeout"
        assert clone.__cause__ is original
        assert clone.__traceback__ is None

    def test_raising_copies_does_not_mutate_original_traceback(self):
        shared = ValueError("shared")
        try:
            raise shared
        except ValueError:
            pass
        original_tb = shared.__traceback__
        clone = _per_waiter_copy(shared)
        try:
            raise clone
        except ValueError:
            pass
        assert shared.__traceback__ is original_tb
