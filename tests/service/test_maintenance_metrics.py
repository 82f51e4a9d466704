"""Observability of the delta-stream maintenance plane (PR 8).

Metamorphic checks over the new surface: the per-view ``maintenance``
engine and ``update_queue_depth`` gauge in the service snapshot and the
Prometheus exposition, and the circuit accounting identity that ties
the three write-path counters together —

    ``delta_batches_coalesced == update_batches - circuit_steps``

for any pure-incremental dbsp history (every circuit pass absorbs its
batch count minus one as coalescing).  The rollup invariant — retired + live is monotone —
must keep holding now that bursts bump counters in multi-batch strides
and views carry the new counters across churn.
"""

import random
import threading

import pytest

from repro.relations import Atom
from repro.service import QueryService, render_prometheus

TC = (
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
)
NODES = [Atom(f"n{i}") for i in range(5)]


def _random_batches(rng, count):
    pool = [(x, y) for x in NODES for y in NODES]
    batches = []
    for _ in range(count):
        rows = rng.sample(pool, rng.randint(1, 3))
        batches.append(
            (
                [("edge", row) for row in rows],
                [("edge", rng.choice(pool))],
            )
        )
    return batches


class TestMaintenanceSurface:
    def test_snapshot_reports_mode_queue_and_coalesce(self):
        for coalesce in (64, 1):
            service = QueryService(coalesce=coalesce)
            try:
                service.register("v", TC)
                snapshot = service.metrics_snapshot()
                assert snapshot["coalesce"] == coalesce
                assert snapshot["gauges"]["update_queue_depth"] == {"v": 0}
                assert snapshot["views"]["v"]["maintenance"] == "dbsp"
                assert snapshot["views"]["v"]["queue_depth"] == 0
            finally:
                service.close()

    def test_recompute_views_report_no_maintenance_engine(self):
        service = QueryService()
        try:
            service.register("v", TC, semantics="inflationary")
            assert service.stats("v")["maintenance"] is None
        finally:
            service.close()

    def test_queue_depth_gauge_renders_in_prometheus(self):
        service = QueryService()
        try:
            service.register("v", TC)
            service.update("v", inserts=[("edge", (NODES[0], NODES[1]))])
            text = render_prometheus(service.metrics_snapshot())
            assert 'repro_update_queue_depth{view="v"} 0' in text
            # The circuit counters ride the per-view counter rollup.
            assert "repro_circuit_steps" in text
            assert "repro_delta_batches_coalesced" in text
        finally:
            service.close()


class TestCircuitAccounting:
    @pytest.mark.parametrize("seed", range(3))
    def test_coalesced_equals_batches_minus_steps(self, seed):
        """Every dbsp circuit pass absorbs (batches - 1) as coalescing."""
        rng = random.Random(f"accounting-{seed}")
        service = QueryService()
        try:
            service.register("v", TC)
            view = service.view("v")
            for _ in range(6):
                burst = _random_batches(rng, rng.randint(1, 5))
                view.apply_stream(burst)
            counters = view.metrics.counters
            assert counters["recompute_batches"] == 0
            assert counters["circuit_steps"] > 0
            assert counters["delta_batches_coalesced"] == (
                counters["update_batches"] - counters["circuit_steps"]
            )
            assert counters["incremental_batches"] == (
                counters["update_batches"]
            )
        finally:
            service.close()

    def test_group_commit_accounting_from_racing_writers(self):
        """The identity survives the real queue: whatever the leaders
        coalesced, batches split exactly into steps + coalesced."""
        service = QueryService(coalesce=8)
        try:
            service.register("v", TC)
            total = 24

            def writer(offset):
                for i in range(total // 4):
                    service.update(
                        "v",
                        inserts=[
                            ("edge", (Atom(f"w{offset}"), Atom(f"x{i}")))
                        ],
                    )

            threads = [
                threading.Thread(target=writer, args=(w,)) for w in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            counters = service.view("v").metrics.counters
            assert counters["update_batches"] == total
            assert counters["delta_batches_coalesced"] == (
                counters["update_batches"] - counters["circuit_steps"]
            )
            assert 1 <= counters["circuit_steps"] <= total
        finally:
            service.close()


class TestRollupUnderCoalescedChurn:
    def test_rollup_monotone_across_bursts_and_view_churn(self):
        """retired + live never decreases while bursts land and views
        are replaced — including the new circuit counters."""
        rng = random.Random("rollup-churn")
        service = QueryService()
        try:
            watched = (
                "update_batches",
                "circuit_steps",
                "delta_batches_coalesced",
                "snapshot_swaps",
            )
            previous = {name: 0 for name in watched}
            service.register("v", TC)
            for round_number in range(6):
                view = service.view("v")
                view.apply_stream(_random_batches(rng, rng.randint(2, 4)))
                if round_number % 2 == 1:
                    # Churn: replacement absorbs the old view's counters
                    # into the retired rollup.
                    service.register("v", TC)
                rollup = service.metrics_snapshot()["rollup"]
                for name in watched:
                    assert rollup.get(name, 0) >= previous[name], (
                        f"rollup counter {name} went backwards in "
                        f"round {round_number}"
                    )
                    previous[name] = rollup.get(name, 0)
            assert previous["circuit_steps"] > 0
            assert previous["delta_batches_coalesced"] > 0
        finally:
            service.close()
