"""Materialized views: the maintained engines and the rebuild engine."""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import seminaive_stratified
from repro.datalog.stratification import NotStratifiedError
from repro.relations import Atom
from repro.service import MaterializedView, QueryService, prepare_program

a, b, c, d, e = (Atom(x) for x in "abcde")

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
"""

TC_NEG = TC + "unreach(X, Y) :- node(X), node(Y), not tc(X, Y).\n"

WIN = "win(X) :- move(X, Y), not win(Y).\n"


def scratch_equal(view, program_text):
    """The resident model must equal from-scratch evaluation."""
    scratch = seminaive_stratified(parse_program(program_text), view.engine.edb)
    model = view.engine.model()
    for predicate in set(scratch) | set(model):
        assert scratch.get(predicate, frozenset()) == model.get(
            predicate, frozenset()
        ), predicate


@pytest.fixture()
def tc_view():
    db = Database().add("edge", a, b).add("edge", b, c)
    return MaterializedView(prepare_program("tc", TC), db)


class TestIncrementalFastPath:
    def test_initial_model(self, tc_view):
        assert tc_view.mode == "incremental"
        assert tc_view.rows("tc") == {(a, b), (b, c), (a, c)}
        assert tc_view.undefined_rows("tc") == frozenset()

    def test_insert_extends_closure(self, tc_view):
        summary = tc_view.insert("edge", c, d)
        assert summary["mode"] == "incremental"
        assert summary["delta_plus"] == 4  # edge + 3 new tc pairs
        assert (a, d) in tc_view.rows("tc")
        scratch_equal(tc_view, TC)

    def test_delete_shrinks_closure(self, tc_view):
        tc_view.delete("edge", b, c)
        assert tc_view.rows("tc") == {(a, b)}
        scratch_equal(tc_view, TC)

    def test_delete_with_alternative_path_rederives(self, tc_view):
        tc_view.insert("edge", a, c)  # second route a→c
        tc_view.delete("edge", b, c)
        assert (a, c) in tc_view.rows("tc")
        assert tc_view.metrics.counters["rederived_total"] >= 1
        scratch_equal(tc_view, TC)

    def test_cycle_collapse(self, tc_view):
        tc_view.insert("edge", c, a)  # now a cycle: tc is total on {a,b,c}
        assert len(tc_view.rows("tc")) == 9
        tc_view.delete("edge", c, a)
        assert tc_view.rows("tc") == {(a, b), (b, c), (a, c)}
        scratch_equal(tc_view, TC)

    def test_noop_updates_change_nothing(self, tc_view):
        before = tc_view.rows("tc")
        summary = tc_view.apply(
            inserts=[("edge", (a, b))], deletes=[("edge", (d, e))]
        )
        assert summary["delta_plus"] == 0 and summary["delta_minus"] == 0
        assert tc_view.rows("tc") == before

    def test_batch_mixing_inserts_and_deletes(self, tc_view):
        tc_view.apply(
            inserts=[("edge", (c, d)), ("edge", (d, e))],
            deletes=[("edge", (a, b))],
        )
        assert (b, e) in tc_view.rows("tc")
        assert all(row[0] != a for row in tc_view.rows("tc"))
        scratch_equal(tc_view, TC)

    def test_negation_across_strata(self):
        db = Database()
        for node in (a, b, c):
            db.add("node", node)
        db.add("edge", a, b)
        view = MaterializedView(prepare_program("tcn", TC_NEG), db)
        assert (a, c) in view.rows("unreach")
        view.insert("edge", b, c)
        assert (a, c) not in view.rows("unreach")
        scratch_equal(view, TC_NEG)
        view.delete("edge", a, b)
        assert (a, c) in view.rows("unreach")
        scratch_equal(view, TC_NEG)

    def test_fact_for_idb_predicate(self, tc_view):
        # A base fact for a derived predicate: survives deletion of the
        # rules' support, disappears only when itself deleted.
        tc_view.insert("tc", d, e)
        assert (d, e) in tc_view.rows("tc")
        scratch_equal(tc_view, TC)
        tc_view.delete("tc", d, e)
        assert (d, e) not in tc_view.rows("tc")
        scratch_equal(tc_view, TC)

    def test_arity_mismatch_rejected(self, tc_view):
        with pytest.raises(ValueError):
            tc_view.insert("edge", a)

    def test_seed_facts_merge_into_database(self):
        view = MaterializedView(prepare_program("tc", TC + "edge(a, b).\n"))
        assert view.rows("tc") == {(a, b)}

    def test_stratified_semantics_on_nonstratified_program_rejected(self):
        with pytest.raises(NotStratifiedError):
            MaterializedView(prepare_program("win", WIN), semantics="stratified")


class TestRecomputeFallback:
    def test_the_engine_follows_from_semantics_alone(self):
        """No switch takes a view off its maintained engine: only the
        inflationary semantics rebuilds."""
        prepared = prepare_program("tc", TC)
        with pytest.raises(TypeError):
            MaterializedView(prepared, incremental=False)
        service = QueryService()
        try:
            with pytest.raises(TypeError):
                service.register("v", TC, incremental=False)
            modes = {
                semantics: service.register(semantics, TC, semantics=semantics)["mode"]
                for semantics in ("stratified", "valid", "wellfounded", "inflationary")
            }
        finally:
            service.close()
        assert modes == {
            "stratified": "incremental",
            "valid": "incremental",
            "wellfounded": "incremental",
            "inflationary": "recompute",
        }

    def test_nonstratified_routes_to_the_chain(self):
        db = Database().add("move", a, b).add("move", b, c).add("move", d, d)
        view = MaterializedView(
            prepare_program("win", WIN), db, semantics="valid"
        )
        assert view.mode == "incremental"
        assert view.alternation_levels() >= 2
        assert view.stats()["maintenance"] == "alternating"
        assert view.rows("win") == {(b,)}
        assert view.undefined_rows("win") == {(d,)}
        # The rebuild engine serves the inflationary semantics, and
        # only it.
        slow = MaterializedView(
            prepare_program("win", WIN), db, semantics="inflationary"
        )
        assert slow.mode == "recompute"
        assert slow.alternation_levels() == 0
        assert slow.rows("win") == {(a,), (b,), (d,)}
        assert slow.undefined_rows("win") == frozenset()

    def test_update_counts_fallback_and_stays_correct(self):
        db = Database().add("move", a, b)
        chained = MaterializedView(
            prepare_program("win", WIN), db, semantics="valid"
        )
        rebuilt = MaterializedView(
            prepare_program("win", WIN), db, semantics="inflationary"
        )
        for view, mode, recomputes in (
            (chained, "incremental", 0),
            (rebuilt, "recompute", 1),
        ):
            assert view.rows("win") == {(a,)}
            summary = view.delete("move", a, b)
            assert summary["mode"] == mode
            assert view.rows("win") == frozenset()
            # Routine recompute-mode traffic is counted as
            # recompute_batches (none on the chain).
            assert view.metrics.counters["recompute_batches"] == recomputes
        assert chained.metrics.counters["update_batches"] == 1

    def test_rebuild_on_stratified_program(self):
        db = Database().add("edge", a, b).add("edge", b, c)
        view = MaterializedView(
            prepare_program("tc", TC), db, semantics="inflationary"
        )
        assert view.mode == "recompute"
        assert view.rows("tc") == {(a, b), (b, c), (a, c)}
        view.insert("edge", c, d)
        assert (a, d) in view.rows("tc")
        assert view.metrics.counters["recompute_batches"] == 1

    def test_chain_view_never_grounds(self, monkeypatch):
        """Counted at ``ground()`` itself: a chain view's writes never
        ground, while an inflationary view over the same program grounds
        it on every write (the counter is live)."""
        import repro.datalog.engine
        import repro.datalog.grounding

        calls = []
        real_ground = repro.datalog.grounding.ground

        def counting_ground(*args, **kwargs):
            calls.append(args[0])
            return real_ground(*args, **kwargs)

        for module in (repro.datalog.engine, repro.datalog.grounding):
            monkeypatch.setattr(module, "ground", counting_ground)
        db = Database().add("move", a, b)
        chain = MaterializedView(
            prepare_program("win4", WIN), db, semantics="valid"
        )
        rebuild = MaterializedView(
            prepare_program("win4", WIN), db, semantics="inflationary"
        )
        grounded_at_registration = len(calls)
        for view in (chain, rebuild):
            view.insert("move", b, c)
            view.delete("move", b, c)
            assert view.rows("win") == {(a,)}
        assert grounded_at_registration == 1  # the rebuild view's
        assert len(calls) == grounded_at_registration + 2  # its writes

    def test_wellfounded_semantics_served(self):
        db = Database().add("move", d, d)
        view = MaterializedView(
            prepare_program("win3", WIN), db, semantics="wellfounded"
        )
        assert view.undefined_rows("win") == {(d,)}
