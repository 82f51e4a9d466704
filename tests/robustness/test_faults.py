"""Unit tests: the deterministic fault-injection harness."""

import threading

import pytest

from repro.corpus import DEDUCTIVE_CORPUS, chain, edges_to_database
from repro.datalog import ground, run
from repro.datalog.seminaive import seminaive_stratified
from repro.robustness import (
    ALL_POINTS,
    FaultInjector,
    FaultRule,
    InjectedFault,
    fault_point,
    inject_faults,
)


class TestFaultInjector:
    def test_fires_at_the_named_hit(self):
        injector = FaultInjector([FaultRule("p", at_hit=3)])
        injector.fire("p")
        injector.fire("p")
        with pytest.raises(InjectedFault) as info:
            injector.fire("p")
        assert info.value.point == "p"
        assert info.value.hit == 3
        assert info.value.code == "injected-fault"

    def test_times_bounds_firings(self):
        injector = FaultInjector([FaultRule("p", at_hit=1, times=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.fire("p")
        injector.fire("p")  # the transient fault has burnt out
        assert len(injector.fired) == 2

    def test_persistent_fault(self):
        injector = FaultInjector([FaultRule("p", times=None)])
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector.fire("p")

    def test_other_points_unaffected(self):
        injector = FaultInjector([FaultRule("p")])
        injector.fire("q")
        assert injector.hits == {"q": 1}

    def test_random_plans_are_deterministic(self):
        first = FaultInjector.random(seed=42, rate=0.2)
        second = FaultInjector.random(seed=42, rate=0.2)
        assert first.rules == second.rules
        different = FaultInjector.random(seed=43, rate=0.2)
        assert first.rules != different.rules

    def test_random_plan_respects_points(self):
        injector = FaultInjector.random(seed=7, points=("a", "b"), rate=0.5)
        assert {rule.point for rule in injector.rules} <= {"a", "b"}


class TestInjectionScoping:
    def test_noop_without_active_injector(self):
        fault_point("grounder.round")  # must not raise

    def test_context_manager_activates_and_restores(self):
        injector = FaultInjector([FaultRule("x")])
        with inject_faults(injector):
            with pytest.raises(InjectedFault):
                fault_point("x")
        fault_point("x")  # deactivated again

    def test_nested_injectors_restore_the_outer_one(self):
        outer = FaultInjector()
        inner = FaultInjector()
        with inject_faults(outer):
            with inject_faults(inner):
                fault_point("y")
            fault_point("y")
        assert inner.hits == {"y": 1}
        assert outer.hits == {"y": 1}

    def test_injection_is_thread_local(self):
        injector = FaultInjector([FaultRule("z", times=None)])
        seen = []

        def other_thread():
            fault_point("z")  # no injector active on this thread
            seen.append("survived")

        with inject_faults(injector):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen == ["survived"]


class TestEnginePoints:
    def test_grounder_round_is_injectable(self):
        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        database = edges_to_database(chain(4))
        with inject_faults(FaultInjector([FaultRule("grounder.round")])):
            with pytest.raises(InjectedFault):
                ground(program, database)

    def test_seminaive_round_is_injectable(self):
        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        database = edges_to_database(chain(4))
        with inject_faults(FaultInjector([FaultRule("seminaive.round")])):
            with pytest.raises(InjectedFault):
                seminaive_stratified(program, database)

    def test_seminaive_round_is_reachable_through_run(self):
        # A program without a negative cycle is evaluated directly.
        program = DEDUCTIVE_CORPUS["transitive-closure"].program
        database = edges_to_database(chain(4))
        with inject_faults(FaultInjector([FaultRule("seminaive.round")])):
            with pytest.raises(InjectedFault):
                run(program, database)

    def test_all_points_are_reachable_somewhere(self):
        # The registry of names is closed: every instrumented call site
        # uses a name from ALL_POINTS (grep-enforced by this list).
        assert set(ALL_POINTS) == {
            "grounder.round",
            "seminaive.round",
            "incremental.apply",
            "incremental.component",
            "incremental.initialize",
            "view.recompute",
            "cache.get",
            "cache.put",
            "service.lock",
            "durability.append",
            "durability.fsync",
            "durability.checkpoint",
            "durability.recover",
        }

    def test_service_lock_is_injectable(self):
        from repro.service.locks import InstrumentedLock

        lock = InstrumentedLock("v")
        with inject_faults(FaultInjector([FaultRule("service.lock")])):
            with pytest.raises(InjectedFault):
                with lock.held():
                    pass
        # The fault fires *before* acquisition, so the lock never leaks:
        # another thread (the lock is reentrant) can still take it.
        acquired = []

        def probe():
            if lock._lock.acquire(blocking=False):
                lock._lock.release()
                acquired.append(True)

        worker = threading.Thread(target=probe)
        worker.start()
        worker.join()
        assert acquired == [True]
