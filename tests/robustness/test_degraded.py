"""Rollback, degraded-mode serving, and recovery of materialized views."""

import pytest

from repro.datalog import Database
from repro.relations import Atom
from repro.datalog.engine import run
from repro.datalog.parser import parse_program
from repro.robustness import (
    CancellationToken,
    Cancelled,
    EvaluationBudget,
    FaultInjector,
    FaultRule,
    InjectedFault,
    ViewDegraded,
    inject_faults,
)
from repro.service import MaterializedView, QueryService, prepare_program, serve_stream

TC_SOURCE = (
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
    "edge(a, b).\nedge(b, c).\n"
)


def _tc_view(**kwargs):
    prepared = prepare_program("tc", TC_SOURCE)
    return MaterializedView(prepared, **kwargs)


def _expected_tc(database):
    program = parse_program(
        "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
    )
    return run(program, database, semantics="stratified").true_rows("tc")


class TestRollback:
    def test_failed_batch_rolls_back_the_edb(self):
        view = _tc_view()
        before = view.fingerprint()
        before_rows = view.rows("tc")
        plan = FaultInjector([FaultRule("incremental.component")])
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
        # The batch was rejected atomically: EDB back to the pre-batch
        # state, model consistent with it, view still healthy.
        assert view.fingerprint() == before
        assert view.rows("tc") == before_rows
        assert not view.stale
        assert view.rows("tc") == _expected_tc(view.database)

    def test_failed_delete_batch_rolls_back_too(self):
        view = _tc_view()
        before = view.fingerprint()
        plan = FaultInjector([FaultRule("incremental.component")])
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                view.apply(deletes=[("edge", (Atom("a"), Atom("b")))])
        assert view.fingerprint() == before
        assert view.rows("tc") == _expected_tc(view.database)

    def test_view_works_normally_after_rollback(self):
        view = _tc_view()
        with inject_faults(FaultInjector([FaultRule("incremental.component")])):
            with pytest.raises(InjectedFault):
                view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
        summary = view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
        assert summary["mode"] == "incremental"
        assert (Atom("a"), Atom("d")) in view.rows("tc")


    @pytest.mark.parametrize("burst", [False, True])
    @pytest.mark.parametrize("failure", ["fault", "cancel"])
    def test_failure_in_an_upper_chain_level_rolls_every_level_back(
        self, failure, burst
    ):
        # A three-valued view is a chain of engines, each with its own
        # copy of the facts: a batch that dies at the third of them —
        # on an injected fault, or because the request was cancelled —
        # has already landed in the first two.
        a, b, c, d, e = (Atom(name) for name in "abcde")
        source = "win(X) :- move(X, Y), not win(Y).\n"
        database = (
            Database().add("move", a, b).add("move", b, c).add("move", d, d)
        )
        token = CancellationToken()

        class CancelledAtTheThirdLevel(EvaluationBudget):
            levels_entered = 0

            def check(self, phase=None):
                if phase == "dbsp-apply" and failure == "cancel":
                    self.levels_entered += 1
                    if self.levels_entered == 3:
                        token.cancel()
                super().check(phase)

        view = MaterializedView(
            prepare_program("win", source),
            database,
            semantics="valid",
            budget_factory=lambda: CancelledAtTheThirdLevel(cancellation=token),
        )
        before = view.fingerprint()
        inserts, deletes = [("move", (c, e))], [("move", (d, d))]
        plan = FaultInjector(
            [FaultRule("incremental.apply", at_hit=3, times=1)]
            if failure == "fault"
            else []
        )
        with inject_faults(plan):
            with pytest.raises(InjectedFault if failure == "fault" else Cancelled):
                if burst:
                    view.apply_stream(
                        [(inserts, deletes), ([("move", (e, a))], [])]
                    )
                else:
                    view.apply(inserts=inserts, deletes=deletes)
        assert view.fingerprint() == before
        assert not view.stale
        assert view.rows("win") == {(b,)}
        assert view.undefined_rows("win") == {(d,)}
        assert view.read_snapshot().undefined_rows("win") == {(d,)}
        # ... and the next batch lands on a consistent chain.
        token._cancelled = False
        view.budget_factory = None
        view.apply(inserts=inserts, deletes=deletes)
        oracle = run(parse_program(source), view.database, semantics="valid")
        assert view.rows("win") == oracle.true_rows("win") == {(a,), (c,)}
        assert view.undefined_rows("win") == oracle.undefined_rows("win")
        assert not view.undefined_rows("win")


class TestDegradedIncremental:
    def test_persistent_failure_degrades_to_stale_service(self):
        view = _tc_view()
        good_rows = view.rows("tc")
        # Every maintenance attempt *and* every rebuild fails.
        plan = FaultInjector(
            [
                FaultRule("incremental.component", times=None),
                FaultRule("incremental.initialize", times=None),
            ]
        )
        with inject_faults(plan):
            with pytest.raises(ViewDegraded):
                view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
            assert view.stale
            # Degraded service: the last consistent model, not a crash.
            assert view.rows("tc") == good_rows
            stats = view.stats()
            assert stats["stale"] is True
            assert "last_error" in stats
        # Outside the blast radius, recovery restores exact service.
        assert view.recover()
        assert not view.stale
        assert view.rows("tc") == _expected_tc(view.database)

    def test_next_successful_update_clears_staleness(self):
        view = _tc_view()
        plan = FaultInjector(
            [
                FaultRule("incremental.component", times=None),
                FaultRule("incremental.initialize", times=None),
            ]
        )
        with inject_faults(plan):
            with pytest.raises(ViewDegraded):
                view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
        assert view.stale
        summary = view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
        assert summary["mode"] == "incremental"
        assert not view.stale
        assert (Atom("a"), Atom("d")) in view.rows("tc")

    def test_transient_rebuild_failure_is_retried(self):
        view = _tc_view()
        # Maintenance fails persistently, the rebuild only once — the
        # retry loop must absorb the transient and stay healthy.
        plan = FaultInjector(
            [
                FaultRule("incremental.component", times=None),
                FaultRule("incremental.initialize", times=1),
            ]
        )
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
        assert not view.stale
        assert view.rows("tc") == _expected_tc(view.database)


class TestDegradedRecompute:
    """A rebuild view evaluates when it is written, so it fails there:
    the batch rolls back, the view reinitializes, and it degrades only
    when the rebuild keeps failing — the discipline of every engine."""

    def test_failing_rebuild_rolls_back_and_degrades(self):
        view = _tc_view(semantics="inflationary")
        before = view.fingerprint()
        good_rows = view.rows("tc")
        with inject_faults(
            FaultInjector([FaultRule("view.recompute", times=None)])
        ):
            with pytest.raises(ViewDegraded):
                view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
            assert view.stale
            assert view.read_snapshot().stale
            assert view.rows("tc") == good_rows
            assert view.undefined_rows("tc") == frozenset()
        # The batch was rejected atomically.
        assert view.fingerprint() == before
        # Recovery: the next fault-free rebuild is exact again.
        assert view.recover()
        assert not view.stale
        assert view.rows("tc") == _expected_tc(view.database)
        view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
        assert (Atom("a"), Atom("d")) in view.rows("tc")

    def test_transient_rebuild_failure_rolls_back_and_stays_healthy(self):
        view = _tc_view(semantics="inflationary")
        before = view.fingerprint()
        with inject_faults(
            FaultInjector([FaultRule("view.recompute", times=1)])
        ):
            with pytest.raises(InjectedFault):
                view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
        assert not view.stale
        assert view.fingerprint() == before
        assert view.rows("tc") == _expected_tc(view.database)
        assert view.metrics.counters["rollbacks"] == 1

    def test_recompute_failure_without_snapshot_raises(self):
        # Registration evaluates: with no model to serve, the failure
        # surfaces instead of degrading.
        with inject_faults(
            FaultInjector([FaultRule("view.recompute", times=None)])
        ):
            with pytest.raises(InjectedFault):
                _tc_view(semantics="inflationary")

    @pytest.mark.parametrize(
        "semantics, true, undefined",
        [("valid", {"b"}, {"d"}), ("inflationary", {"a", "b", "d"}, set())],
        ids=["chain", "rebuild"],
    )
    def test_stale_service_preserves_undefined_rows(self, semantics, true, undefined):
        # Regression: the degraded snapshot used to keep only the
        # certainly-true rows, so undefined_rows() answered empty while
        # stale — collapsing the three-valued distinction the valid
        # semantics (Theorem 4.2) turns on.  The chain must keep it,
        # and the rebuild engine (inflationary) its two-valued model.
        prepared = prepare_program(
            "win", "win(X) :- move(X, Y), not win(Y).\n"
        )
        database = (
            Database()
            .add("move", Atom("a"), Atom("b"))
            .add("move", Atom("b"), Atom("c"))
            .add("move", Atom("d"), Atom("d"))
        )
        view = MaterializedView(prepared, database, semantics=semantics)
        healthy_true = view.rows("win")
        healthy_undefined = view.undefined_rows("win")
        assert healthy_true == {(Atom(x),) for x in true}
        # Under the valid semantics, the d→d loop.
        assert healthy_undefined == {(Atom(x),) for x in undefined}
        # Fail the batch in the engine (the chain's first level, or the
        # rebuild's evaluation), and every rebuild after the rollback.
        with inject_faults(
            FaultInjector(
                [
                    FaultRule("incremental.apply", times=None),
                    FaultRule("incremental.initialize", times=None),
                    FaultRule("view.recompute", times=None),
                ]
            )
        ):
            with pytest.raises(ViewDegraded):
                view.apply(inserts=[("move", (Atom("c"), Atom("e")))])
            stale_true = view.rows("win")
            stale_undefined = view.undefined_rows("win")
            stale_snapshot = view.read_snapshot()
        assert view.stale and stale_snapshot.stale
        # Both truth statuses of the last healthy model survive, on the
        # view's own reads and on the lock-free snapshot.
        assert stale_true == healthy_true
        assert stale_undefined == healthy_undefined
        assert stale_snapshot.rows("win") == healthy_true
        assert stale_snapshot.undefined_rows("win") == healthy_undefined
        # Recovery rebuilds the model and publishes both statuses again.
        assert view.recover()
        assert not view.stale
        assert view.read_snapshot().undefined_rows("win") == healthy_undefined
        view.apply(inserts=[("move", (Atom("d"), Atom("c")))])  # c is lost: d wins
        assert view.read_snapshot().undefined_rows("win") == frozenset()
        assert view.undefined_rows("win") == frozenset()
        assert (Atom("d"),) in view.rows("win")

    def test_failed_recovery_stays_degraded(self):
        # Regression: recover() used to mark the view healthy *before*
        # attempting the rebuild, so a failed recovery briefly reported
        # healthy and reset the time-in-degraded clock.
        view = _tc_view(semantics="inflationary")
        with inject_faults(
            FaultInjector([FaultRule("view.recompute", times=None)])
        ):
            with pytest.raises(ViewDegraded):
                view.apply(inserts=[("edge", (Atom("c"), Atom("d")))])
            assert view.stale
            degraded_since = view.metrics._degraded_since
            assert degraded_since is not None
            assert view.recover() is False
            assert view.stale
            # The degraded clock kept running through the whole failed
            # attempt — it was never stopped and restarted.
            assert view.metrics._degraded_since == degraded_since
        assert view.recover() is True
        assert not view.stale


class TestWireProtocol:
    def _serve(self, service, script):
        replies = []
        serve_stream(service, script.splitlines(), replies.append)
        return replies

    def test_repro_errors_carry_wire_codes(self):
        service = QueryService()
        service.register("tc", TC_SOURCE)
        plan = FaultInjector([FaultRule("incremental.component", times=None)])
        with inject_faults(plan):
            replies = self._serve(service, "+tc edge(c, d)\n")
        assert len(replies) == 1
        assert replies[0].startswith("error injected-fault InjectedFault:")

    def test_non_repro_errors_keep_the_legacy_shape(self):
        service = QueryService()
        replies = self._serve(service, "query nope tc\n")
        assert replies[0].startswith("error KeyError:")

    def test_oversized_requests_are_rejected(self):
        service = QueryService()
        service.register("tc", TC_SOURCE)
        replies = []
        serve_stream(
            service,
            ["query tc " + "x" * 100 + "\n", "query tc tc\n"],
            replies.append,
            max_request_bytes=64,
        )
        assert replies[0].startswith("error request-too-large RequestTooLarge:")
        assert replies[-1] == "ok 3 rows"  # the server survived

    def test_stale_views_are_flagged_on_the_wire(self):
        service = QueryService()
        service.register("tc", TC_SOURCE)
        plan = FaultInjector(
            [
                FaultRule("incremental.component", times=None),
                FaultRule("incremental.initialize", times=None),
            ]
        )
        with inject_faults(plan):
            replies = self._serve(service, "+tc edge(c, d)\nquery tc tc\n")
        assert replies[0].startswith("error view-degraded ViewDegraded:")
        assert replies[-1] == "ok 3 rows stale"
        assert "row tc(a, c)" in replies

    def test_stale_answers_are_not_cached(self):
        service = QueryService()
        service.register("tc", TC_SOURCE)
        plan = FaultInjector(
            [
                FaultRule("incremental.component", times=None),
                FaultRule("incremental.initialize", times=None),
            ]
        )
        with inject_faults(plan):
            self._serve(service, "+tc edge(c, d)\nquery tc tc\n")
        view = service.view("tc")
        assert view.recover()
        # A post-recovery query must not see a cached stale answer.
        rows = service.query("tc", "tc")
        assert rows == _expected_tc(view.database)


class TestDatabaseFingerprintInvalidation:
    def test_mutators_invalidate_the_cached_fingerprint(self):
        database = Database().add("edge", *parse_fact_row("a", "b"))
        first = database.fingerprint()
        database.add("edge", *parse_fact_row("b", "c"))
        second = database.fingerprint()
        assert first != second
        database.remove("edge", *parse_fact_row("b", "c"))
        assert database.fingerprint() == first
        database.discard("edge", *parse_fact_row("a", "b"))
        assert database.fingerprint() != first

    def test_discard_of_absent_fact_keeps_fingerprint(self):
        database = Database().add("edge", *parse_fact_row("a", "b"))
        first = database.fingerprint()
        database.discard("edge", *parse_fact_row("z", "z"))
        assert database.fingerprint() == first


def parse_fact_row(*names):
    from repro.relations import Atom

    return tuple(Atom(name) for name in names)
