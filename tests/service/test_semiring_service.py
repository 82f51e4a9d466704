"""Service-level tests for semiring-annotated views.

The acceptance path for PR 10's tentpole: a provenance-annotated query
answer round-trips the line protocol (``explain`` lines) and survives
WAL recovery byte-for-byte; plus the smaller contracts — annotation
replace/delete semantics, boolean views rejecting annotations, the
``--semiring`` validation, and atomic rejection of naturals updates
whose derivation space diverges.
"""

import pytest

from repro.datalog import annotated_model
from repro.datalog.database import Database
from repro.relations import Atom
from repro.robustness import (
    BudgetExceeded,
    DeadlineExceeded,
    EvaluationBudget,
    FaultInjector,
    FaultRule,
    InjectedFault,
    inject_faults,
)
from repro.semiring import SEMIRINGS, get_semiring
from repro.service import (
    AnnotatedEngine,
    MaterializedView,
    QueryService,
    prepare_program,
    serve_stream,
)
from repro.service.dbsp import DBSPEngine

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).
"""

a, b, c = Atom("a"), Atom("b"), Atom("c")


def run_protocol(service, script):
    replies = []
    serve_stream(service, script.splitlines(), replies.append)
    return replies


class TestRegistration:
    def test_info_reports_semiring_only_when_annotated(self):
        service = QueryService()
        plain = service.register("plain", TC)
        assert "semiring" not in plain
        annotated = service.register("ann", TC, semiring="tropical")
        assert annotated["semiring"] == "tropical"
        service.close()

    def test_unknown_semiring_rejected_at_register(self):
        service = QueryService()
        with pytest.raises(ValueError, match="unknown semiring"):
            service.register("v", TC, semiring="nope")
        assert "v" not in service.name_table()
        service.close()

    def test_service_default_semiring_applies_to_views(self):
        service = QueryService(semiring="naturals")
        info = service.register("v", TC)
        assert info["semiring"] == "naturals"
        assert service.view("v").semiring == "naturals"
        service.close()

    def test_boolean_views_keep_the_fast_path(self):
        """semiring='bool' must take exactly the pre-annotation code
        path: a DBSP circuit underneath, no annotated engine."""
        service = QueryService()
        service.register("v", TC, semiring="bool")
        view = service.view("v")
        assert view.semiring == "bool"
        assert isinstance(view.engine, DBSPEngine)
        service.close()


class TestAnnotationSemantics:
    def _service(self, semiring="tropical"):
        service = QueryService(semiring=semiring)
        service.register("v", TC)
        return service

    def test_annotations_are_absolute_replacements(self):
        service = self._service()
        service.update("v", inserts=[("edge", (a, b))],
                       annotations={("edge", (a, b)): "3"})
        _, _, _, texts = service.query_annotated("v", "edge")
        assert texts == {(a, b): "3"}
        # Re-inserting with a new annotation replaces, never combines.
        service.update("v", inserts=[("edge", (a, b))],
                       annotations={("edge", (a, b)): "1"})
        _, _, _, texts = service.query_annotated("v", "edge")
        assert texts == {(a, b): "1"}
        service.close()

    def test_delete_then_reinsert_starts_fresh(self):
        service = self._service()
        service.update("v", inserts=[("edge", (a, b))],
                       annotations={("edge", (a, b)): "3"})
        service.update("v", deletes=[("edge", (a, b))])
        assert service.query("v", "edge") == frozenset()
        service.update("v", inserts=[("edge", (a, b))],
                       annotations={("edge", (a, b)): "4"})
        _, _, _, texts = service.query_annotated("v", "edge")
        assert texts == {(a, b): "4"}
        service.close()

    def test_derived_annotations_follow_the_algebra(self):
        service = self._service()
        service.update(
            "v",
            inserts=[("edge", (a, b)), ("edge", (b, c)), ("edge", (a, c))],
            annotations={
                ("edge", (a, b)): "1",
                ("edge", (b, c)): "1",
                ("edge", (a, c)): "5",
            },
        )
        _, _, _, texts = service.query_annotated("v", "tc")
        assert texts[(a, c)] == "2"  # min(5, 1 + 1)
        service.close()

    def test_boolean_view_rejects_annotations(self):
        service = QueryService()
        service.register("v", TC)
        with pytest.raises(ValueError, match="register with --semiring"):
            service.update("v", inserts=[("edge", (a, b))],
                           annotations={("edge", (a, b)): "3"})
        service.close()

    def test_query_annotated_on_boolean_view_has_no_texts(self):
        service = QueryService()
        service.register("v", TC)
        service.insert("v", "edge", a, b)
        rows, _, _, texts = service.query_annotated("v", "tc")
        assert rows == {(a, b)}
        assert texts is None
        service.close()

    def test_diverging_naturals_update_is_rejected_atomically(self):
        """A cycle has no finite bag annotation: the update raises and
        the view keeps serving its last good state."""
        service = QueryService(semiring="naturals")
        service.register("v", TC)
        service.insert("v", "edge", a, b)
        with pytest.raises(BudgetExceeded):
            service.insert("v", "edge", b, a)
        assert service.query("v", "tc") == {(a, b)}
        _, _, stale, texts = service.query_annotated("v", "tc")
        assert not stale and texts == {(a, b): "1"}
        service.close()

    def test_diverging_naturals_registration_leaves_no_view(self):
        """The build is the same maintenance pass as a write, so a seed
        cycle diverges there too — and nothing is left registered."""
        service = QueryService(semiring="naturals")
        with pytest.raises(BudgetExceeded):
            service.register("v", TC + "edge(a, b). edge(b, a).")
        assert "v" not in service.name_table()
        service.close()

    def test_registration_deadline_stops_the_build(self):
        service = QueryService(deadline_ms=1)
        facts = " ".join(f"edge(n{i}, n{i + 1})." for i in range(128))
        with pytest.raises(DeadlineExceeded) as raised:
            service.register("v", TC + facts, semiring="tropical")
        assert raised.value.progress.phase.startswith("annotated")
        assert "v" not in service.name_table()
        service.close()


#: Two rule components: ``tc`` (recursive), then ``far`` reading it.
TWO_COMPONENTS = TC + "far(X, Z) :- tc(X, Y), tc(Y, Z).\n"

ANNOTATED = sorted(set(SEMIRINGS) - {"bool"})


def _engine_state(view):
    """Everything a failed batch must leave as it was."""
    engine = view.engine
    return (
        view.database.fingerprint(),  # facts + explicit annotations
        {p: view.database.annotations(p) for p in view.database.predicates()},
        {p: dict(rows) for p, rows in engine.maps.items()},
        {p: set(rows) for p, rows in engine.state.facts.items() if rows},
        view.read_snapshot().fingerprint,
        view.read_snapshot().generation,
    )


def _support(engine):
    return {p: set(rows) for p, rows in engine.state.facts.items() if rows}


class TestMaintenanceDiscipline:
    def test_a_tropical_row_loses_its_cheaper_derivation(self):
        """``tc(a, c)`` costs 3 through b and 5 directly.  Deleting the
        cheaper path leaves a derivation, so a probe for one would keep
        the row at 3; the recompute the tropical law calls for reads 5."""
        database = Database()
        for pair, cost in (((a, b), 1), ((b, c), 2), ((a, c), 5)):
            database.add("edge", *pair, annotation=cost)
        view = MaterializedView(prepare_program("tc", TC), database, semiring="tropical")
        assert view.read_snapshot().annotations_for("tc")[(a, c)] == "3"
        view.apply(deletes=[("edge", (b, c))])
        assert view.engine.maps["tc"][(a, c)] == 5
        assert view.read_snapshot().annotations_for("tc")[(a, c)] == "5"

    def test_closing_a_gate_under_a_cycle_does_not_count_to_infinity(self):
        """``r(a, b)`` and ``r(a, c)`` derive each other around the
        b-c cycle.  When ``cut(a, b)`` closes the gate under the only
        derivation that enters the cycle, invalidation has to start from
        the negated atom that became present — from positive changes
        alone both rows keep each other alive, costs creeping up by the
        cycle's weight per round until the round cap."""
        program = (
            "r(X, Y) :- e(X, Y), not cut(X, Y).\n"
            "r(X, Z) :- r(X, Y), e(Y, Z), not cut(Y, Z).\n"
        )
        database = Database().declare("cut")
        for pair in ((a, b), (b, c), (c, b)):
            database.add("e", *pair, annotation=1)
        view = MaterializedView(
            prepare_program("gated", program), database, semiring="tropical"
        )
        assert view.engine.maps["r"][(a, c)] == 2
        view.insert("cut", a, b)
        assert view.engine.maps["r"] == {(b, c): 1, (c, b): 1, (b, b): 2, (c, c): 2}
        view.delete("cut", a, b)
        assert view.engine.maps == annotated_model(
            view.prepared.program, view.database, get_semiring("tropical")
        )
        assert view.metrics.counters.get("annotated_recomputes", 0) == 0

    @staticmethod
    def _toggle_work(semiring, chains):
        """Per-write (rules fired, rows matched, delta rows) of cutting
        and restoring one edge of one of ``chains`` disjoint 4-edge
        chains under a recursive view."""
        database = Database()
        for k in range(chains):
            for i in range(4):
                database.add("edge", f"c{k}n{i}", f"c{k}n{i + 1}")
        view = MaterializedView(
            prepare_program("tc", TC), database, semiring=semiring
        )
        counters = view.metrics.counters
        work = []
        for batch in ({"deletes": [("edge", ("c0n1", "c0n2"))]},
                      {"inserts": [("edge", ("c0n1", "c0n2"))]}):
            before = counters["rules_fired"], counters["rows_matched"]
            summary = view.apply(**batch)
            work.append(
                (
                    counters["rules_fired"] - before[0],
                    counters["rows_matched"] - before[1],
                    summary["delta_plus"] + summary["delta_minus"],
                )
            )
        assert counters["annotated_initializes"] == 1  # registration
        assert counters.get("annotated_recomputes", 0) == 0
        assert counters["overdeleted_total"] == 6  # the rows across the cut
        assert view.engine.maps == annotated_model(
            view.prepared.program, view.database, view.semiring_obj
        )
        return work

    def test_a_write_costs_its_cone_not_its_view(self):
        """Counts, not clocks: the same toggle fires the same rules and
        pulls the same rows whether 9 or 39 other chains are resident —
        and under every semiring, since the discipline never asks which
        one it is maintaining."""
        work = {
            (semiring, chains): self._toggle_work(semiring, chains)
            for semiring in ANNOTATED
            for chains in (10, 40)
        }
        assert len({tuple(w) for w in work.values()}) == 1, work
        for fired, matched, delta_rows in next(iter(work.values())):
            assert delta_rows == 7  # the edge and the six pairs across it
            assert 0 < fired <= 16 and 0 < matched <= 8 * delta_rows

    @pytest.mark.parametrize("semiring", ANNOTATED)
    def test_a_build_costs_its_rows_not_its_depth(self, semiring):
        """A build is the maintenance pass from ∅: each ``tc`` row is
        derived once, leading from the rows below it, so doubling a
        chain (4x the rows) matches ≈ 4x the rows.  Jacobi rounds over
        the whole stratum matched 7.65x here."""
        matched = {}
        for n in (64, 128):
            database = Database()
            for i in range(n):
                database.add("edge", Atom(f"n{i}"), Atom(f"n{i + 1}"))
            prepared = prepare_program("tc", TC)
            view = MaterializedView(prepared, database, semiring=semiring)
            # The kernel's own count, which the build reports as it is.
            matched[n] = view.engine.state.rows_matched
            assert view.metrics.counters["rows_matched"] == matched[n]
            if n == 64:  # the Jacobi oracle is cubic on a chain
                oracle = annotated_model(
                    view.prepared.program, view.database, view.semiring_obj
                )
                assert view.engine.maps == oracle
            plain = MaterializedView(prepared, database).engine.model()
            assert _support(view.engine) == {p: rows for p, rows in plain.items() if rows}
        assert matched[128] <= 5 * matched[64], matched

    @pytest.mark.parametrize("semiring", ANNOTATED)
    def test_a_build_fires_the_rules_no_row_leads(self, semiring):
        """A rule without a positive literal — only comparisons, or only
        negations — is never led by a staged row, so the build fires it
        once; what it derives feeds the rest of the pass.  A later
        write must not change what a build would say."""
        prepared = prepare_program(
            "p", "p(a) :- not q(a).\nn(X) :- X = 0.\nm(X) :- n(X).\n"
        )
        view = MaterializedView(prepared, Database(), semiring=semiring)

        def agrees():
            oracle = annotated_model(prepared.program, view.database, view.semiring_obj)
            return {p: rows for p, rows in view.engine.maps.items() if rows} == {
                p: rows for p, rows in oracle.items() if rows
            }

        assert view.engine.maps == annotated_model(
            prepared.program, view.database, view.semiring_obj
        )
        assert view.engine.rows("p") == {(a,)} and view.engine.rows("m") == {(0,)}
        view.insert("q", a)
        assert agrees() and not view.engine.rows("p")
        view.delete("q", a)
        assert agrees() and view.engine.rows("p") == {(a,)}

    def _two_component_view(self):
        database = Database()
        for pair, cost in (((a, b), 1), ((b, c), 2), ((a, c), 7)):
            database.add("edge", *pair, annotation=cost)
        return MaterializedView(
            prepare_program("far", TWO_COMPONENTS), database,
            semiring="tropical",
        )

    def _batch(self):
        d = Atom("d")
        return dict(
            inserts=[("edge", (c, d)), ("edge", (a, b))],
            deletes=[("edge", (b, c))],
            annotations={("edge", (c, d)): 3, ("edge", (a, b)): 4},
        )

    def _assert_batch_lands(self, view):
        summary = view.apply(**self._batch())
        assert summary["mode"] == "incremental"
        assert view.database.annotation("edge", (a, b)) == 4
        assert view.engine.maps == annotated_model(
            view.prepared.program, view.database, view.semiring_obj
        )
        assert view.engine.maps["far"] == {(a, Atom("d")): 10}

    def test_fault_in_the_second_component_undoes_the_first(self):
        """The engine maintains in place, so a batch failing after
        ``tc`` was maintained must put back the EDB *with its explicit
        annotations* (the view's own rollback re-adds rows bare), the
        maps, the kernel's support and leave the published snapshot —
        then take the same batch."""
        view = self._two_component_view()
        before = _engine_state(view)
        injector = FaultInjector(
            # Recovery's initialize must be allowed through.
            [FaultRule("incremental.component", at_hit=2, times=1)]
        )
        with inject_faults(injector), pytest.raises(InjectedFault) as raised:
            view.apply(**self._batch())
        # The failing apply reached both components and died in the
        # second; the recovery build then passed through both again.
        assert raised.value.hit == 2
        assert injector.hits["incremental.initialize"] == 1
        assert injector.hits["incremental.component"] == 2 + 2
        assert not view.stale
        after = _engine_state(view)
        # The rebuild republished the same model one generation on.
        assert after[:5] == before[:5]
        assert view.database.annotation("edge", (b, c)) == 2
        self._assert_batch_lands(view)

    def test_step_budget_inside_a_firing_undoes_the_batch(self):
        view = self._two_component_view()
        before = _engine_state(view)
        draws = iter([EvaluationBudget(max_steps=3)])
        view.budget_factory = lambda: next(draws, EvaluationBudget())
        with pytest.raises(BudgetExceeded):
            view.apply(**self._batch())
        assert not view.stale
        assert _engine_state(view)[:5] == before[:5]
        self._assert_batch_lands(view)

    def test_engine_restores_itself_without_the_view(self):
        """All-or-nothing is the engine's own property: no rebuild, no
        view — the same objects hold the same state after the raise."""
        prepared = prepare_program("far", TWO_COMPONENTS)
        database = Database()
        for pair, cost in (((a, b), 1), ((b, c), 2), ((a, c), 7)):
            database.add("edge", *pair, annotation=cost)
        engine = AnnotatedEngine(prepared, database, semiring=get_semiring("tropical"))
        maps = {p: dict(rows) for p, rows in engine.maps.items()}
        support = {p: set(rows) for p, rows in engine.state.facts.items()}
        fingerprint = engine.edb.fingerprint()
        batch = self._batch()
        injector = FaultInjector(
            [FaultRule("incremental.component", at_hit=2, times=1)]
        )
        batches, annotations = (
            [(batch["inserts"], batch["deletes"])],
            [batch["annotations"]],
        )
        with inject_faults(injector), pytest.raises(InjectedFault):
            engine.apply_stream(batches, annotations)
        assert engine.maps == maps
        assert {p: rows for p, rows in engine.state.facts.items()} == support
        assert engine.edb.fingerprint() == fingerprint
        summary = engine.apply_stream(batches, annotations)
        assert summary["minus"] == {
            "edge": {(b, c)}, "tc": {(b, c)}, "far": {(a, c)},
        }
        assert engine.maps == annotated_model(
            prepared.program, engine.edb, engine.semiring
        )

    def test_a_failing_build_keeps_the_model(self):
        """A build fails like a write: a fault in its second component
        leaves the maps, the support and the EDB it started from, as a
        burst's maintenance pass does."""
        prepared = prepare_program("far", TWO_COMPONENTS)
        database = Database()
        for pair, cost in (((a, b), 1), ((b, c), 2), ((a, c), 7)):
            database.add("edge", *pair, annotation=cost)
        engine = AnnotatedEngine(prepared, database, semiring=get_semiring("tropical"))
        maps, state, support = engine.maps, engine.state, _support(engine)
        fingerprint = engine.edb.fingerprint()
        for build in (
            engine.initialize,
            lambda: engine.apply_stream([([("edge", (c, Atom("d")))], [])]),
        ):
            injector = FaultInjector(
                [FaultRule("incremental.component", at_hit=2, times=1)]
            )
            with inject_faults(injector), pytest.raises(InjectedFault):
                build()
            assert engine.maps is maps and engine.state is state
            assert _support(engine) == support
            assert engine.edb.fingerprint() == fingerprint
        engine.initialize()
        assert engine.maps == maps and _support(engine) == support


GATED = (
    "r(X, Y) :- e(X, Y), not cut(X, Y).\n"
    "r(X, Z) :- r(X, Y), e(Y, Z), not cut(Y, Z).\n"
)
LEADLESS = "p(a) :- not q(a).\nn(X) :- X = 0.\nm(X) :- n(X).\n"

#: name → (program, EDB facts as ``(predicate, row)`` or, with an
#: explicit tropical cost, ``(predicate, row, cost)``, the writes applied
#: after the build as :meth:`MaterializedView.apply` keyword arguments).
WORK_CASES = {
    "tc": (TC, [("edge", (a, b)), ("edge", (b, c)), ("edge", (c, Atom("d")))], [
        dict(inserts=[("edge", (a, c))]),
        dict(deletes=[("edge", (b, c))]),
        dict(inserts=[("edge", (Atom("d"), a))], deletes=[("edge", (a, c))]),
    ]),
    "far": (TWO_COMPONENTS, [("edge", (a, b)), ("edge", (b, c)), ("edge", (a, c))], [
        dict(inserts=[("edge", (c, Atom("d"))), ("edge", (a, b))],
             deletes=[("edge", (b, c))]),
        dict(inserts=[("edge", (b, c))]),
    ]),
    "gated": (GATED, [("e", (a, b)), ("e", (b, c)), ("e", (c, b))], [
        dict(inserts=[("cut", (a, b))]),
        dict(deletes=[("cut", (a, b))]),
    ]),
    "leadless": (LEADLESS, [], [
        dict(inserts=[("q", (a,))]),
        dict(deletes=[("q", (a,))]),
    ]),
    "costs": (TWO_COMPONENTS, [("edge", (a, b), 1), ("edge", (b, c), 2), ("edge", (a, c), 7)], [
        dict(inserts=[("edge", (c, Atom("d"))), ("edge", (a, b))],
             deletes=[("edge", (b, c))],
             annotations={("edge", (c, Atom("d"))): 3, ("edge", (a, b)): 4}),
        dict(inserts=[("edge", (b, c))], annotations={("edge", (b, c)): 1}),
        dict(inserts=[("edge", (a, c))], annotations={("edge", (a, c)): 1}),
    ]),
}

#: ``(case, semiring)`` → the view's cumulative ``(rules_fired,
#: rows_matched, overdeleted_total, rederived_total)`` after the build
#: and after each write.  Literals recorded from the hand-written cone
#: loop that ``JoinKernel.close`` replaced (the same under any hash
#: seed: a round fires each plan once with all its rows).  ``naturals``
#: diverges on ``gated``'s cycle.
WORK = {
    ("tc", "naturals"): [(11, 39, 0, 0), (19, 54, 0, 0), (29, 83, 4, 2), (41, 118, 6, 2)],
    ("tc", "tropical"): [(11, 39, 0, 0), (15, 47, 0, 0), (25, 76, 4, 2), (37, 111, 6, 2)],
    ("tc", "why"): [(11, 39, 0, 0), (19, 54, 0, 0), (29, 83, 4, 2), (41, 118, 6, 2)],
    ("far", "naturals"): [(11, 43, 0, 0), (27, 91, 3, 1), (40, 151, 4, 2)],
    ("far", "tropical"): [(10, 42, 0, 0), (26, 85, 3, 1), (37, 128, 3, 1)],
    ("far", "why"): [(11, 43, 0, 0), (27, 91, 3, 1), (40, 151, 4, 2)],
    ("gated", "tropical"): [(10, 62, 0, 0), (16, 77, 2, 0), (26, 100, 2, 0)],
    ("gated", "why"): [(16, 89, 0, 0), (22, 104, 2, 0), (38, 141, 2, 0)],
    ("leadless", "naturals"): [(6, 5, 0, 0), (8, 7, 1, 0), (10, 9, 1, 0)],
    ("leadless", "tropical"): [(6, 5, 0, 0), (8, 7, 1, 0), (10, 9, 1, 0)],
    ("leadless", "why"): [(6, 5, 0, 0), (8, 7, 1, 0), (10, 9, 1, 0)],
    ("costs", "tropical"): [(11, 43, 0, 0), (27, 107, 4, 2), (40, 167, 5, 3), (57, 206, 8, 6)],
}


@pytest.mark.parametrize("case, semiring", sorted(WORK))
def test_annotated_work_counts(case, semiring):
    """Characterisation: what a build and each write cost the annotated
    engine, counted by the view's own metrics; and every write still
    lands on the oracle's model."""
    program, facts, writes = WORK_CASES[case]
    database = Database()
    for predicate, row, *cost in facts:
        database.add(predicate, *row, annotation=cost[0] if cost else None)
    view = MaterializedView(prepare_program(case, program), database, semiring=semiring)
    counters = view.metrics.counters
    names = ("rules_fired", "rows_matched", "overdeleted_total", "rederived_total")
    work = [tuple(counters.get(name, 0) for name in names)]
    for write in writes:
        view.apply(**write)
        work.append(tuple(counters.get(name, 0) for name in names))
        oracle = annotated_model(view.prepared.program, view.database, view.semiring_obj)
        assert {p: rows for p, rows in view.engine.maps.items() if rows} == {
            p: rows for p, rows in oracle.items() if rows
        }
    assert work == WORK[case, semiring]
    assert counters["annotated_initializes"] == 1

class TestLineProtocol:
    def test_annotated_insert_and_explain_round_trip(self):
        service = QueryService()
        script = (
            "register v stratified --semiring=tropical "
            "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
            "+v edge(a, b) @ 1\n"
            "+v edge(b, c) @ 1\n"
            "+v edge(a, c) @ 5\n"
            "query v tc\n"
        )
        replies = run_protocol(service, script)
        flat = "\n".join(replies)
        assert "explain tc(a, c) @ 2" in flat
        assert flat.rstrip().splitlines()[-1] == "ok 3 rows"
        # explain lines come after the row lines, before the ok line.
        lines = flat.rstrip().splitlines()
        first_explain = next(
            i for i, line in enumerate(lines) if line.startswith("explain")
        )
        assert all(
            line.startswith("explain") or line == "ok 3 rows"
            for line in lines[first_explain:]
        )
        service.close()

    def test_annotation_on_delete_is_an_error(self):
        service = QueryService()
        service.register("v", TC, semiring="tropical")
        (reply,) = run_protocol(service, "-v edge(a, b) @ 3\n")
        assert reply.startswith("error")
        assert "inserts only" in reply
        service.close()

    def test_annotation_on_boolean_view_is_an_error(self):
        service = QueryService()
        service.register("v", TC)
        (reply,) = run_protocol(service, "+v edge(a, b) @ 3\n")
        assert reply.startswith("error")
        service.close()


class TestDurability:
    PROGRAM = TC

    def _crash(self, service):
        # kill -9 simulation: drop the durability plane with no final
        # checkpoint; the WAL already holds every acked operation.
        service.durability.close(final_checkpoint=False)
        service.durability = None
        service.close()

    def _seed(self, service):
        service.register("v", self.PROGRAM, semiring="why")
        service.insert("v", "edge", a, b)
        service.insert("v", "edge", b, c)
        service.insert("v", "edge", a, c)

    def test_provenance_reply_survives_wal_recovery(self, tmp_path):
        """The PR's acceptance test: the annotated protocol reply is
        byte-identical before and after a crash recovered purely from
        the WAL."""
        service = QueryService(
            data_dir=str(tmp_path), fsync="off", checkpoint_every=10_000
        )
        self._seed(service)
        before = run_protocol(service, "query v tc\n")
        assert any("explain" in reply for reply in before)
        fingerprint = service.view("v").read_snapshot().fingerprint
        self._crash(service)

        recovered = QueryService(data_dir=str(tmp_path), fsync="off")
        try:
            after = run_protocol(recovered, "query v tc\n")
            assert after == before
            assert (
                recovered.view("v").read_snapshot().fingerprint
                == fingerprint
            )
        finally:
            recovered.close()

    def test_annotations_survive_checkpoint_restore(self, tmp_path):
        service = QueryService(
            data_dir=str(tmp_path), fsync="off", checkpoint_every=1
        )
        self._seed(service)
        before = run_protocol(service, "query v tc\n")
        service.close()  # clean shutdown: final checkpoint, cold WAL

        recovered = QueryService(data_dir=str(tmp_path), fsync="off")
        try:
            assert run_protocol(recovered, "query v tc\n") == before
        finally:
            recovered.close()

    def test_annotation_replace_and_delete_replay_converges(self, tmp_path):
        """WAL replay of replace → delete → re-insert lands on the
        same fingerprint the live service had (absolute annotations
        make replay idempotent)."""
        service = QueryService(
            data_dir=str(tmp_path), fsync="off", checkpoint_every=10_000,
            semiring="tropical",
        )
        service.register("v", self.PROGRAM)
        service.update("v", inserts=[("edge", (a, b))],
                       annotations={("edge", (a, b)): "3"})
        service.update("v", inserts=[("edge", (a, b))],
                       annotations={("edge", (a, b)): "1"})
        service.update("v", deletes=[("edge", (a, b))])
        service.update("v", inserts=[("edge", (a, b))],
                       annotations={("edge", (a, b)): "4"})
        fingerprint = service.view("v").read_snapshot().fingerprint
        self._crash(service)

        recovered = QueryService(data_dir=str(tmp_path), fsync="off")
        try:
            _, _, _, texts = recovered.query_annotated("v", "edge")
            assert texts == {(a, b): "4"}
            assert (
                recovered.view("v").read_snapshot().fingerprint
                == fingerprint
            )
        finally:
            recovered.close()
