"""Unit tests for the immutable model snapshots (the RCU read path)."""

from repro.datalog.facts import format_fact
from repro.relations import Atom
from repro.service import ModelSnapshot
from repro.service.snapshot import _Cell

a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")


def _snap(**tables):
    return ModelSnapshot.full({name: rows for name, rows in tables.items()})


class TestConstruction:
    def test_full_snapshot_serves_both_truth_statuses(self):
        snapshot = ModelSnapshot.full(
            {"win": {(b,)}}, {"win": {(d,)}}, generation=3
        )
        assert snapshot.rows("win") == {(b,)}
        assert snapshot.undefined_rows("win") == {(d,)}
        assert snapshot.generation == 3
        assert not snapshot.stale
        assert snapshot.predicates() == {"win"}

    def test_unknown_predicates_answer_empty(self):
        snapshot = _snap(p={(a,)})
        assert snapshot.rows("q") == frozenset()
        assert snapshot.undefined_rows("q") == frozenset()

    def test_empty_undefined_tables_are_dropped(self):
        snapshot = ModelSnapshot.full({"p": {(a,)}}, {"p": frozenset()})
        assert snapshot.predicates() == {"p"}


class TestDeltaMaintenance:
    def test_apply_delta_adds_and_removes(self):
        base = _snap(tc={(a, b), (b, c)})
        successor = base.apply_delta(
            {"tc": {(a, c)}}, {"tc": {(b, c)}}, generation=2
        )
        assert successor.rows("tc") == {(a, b), (a, c)}
        assert successor.generation == 2
        # The parent is immutable: unchanged by its successor.
        assert base.rows("tc") == {(a, b), (b, c)}

    def test_untouched_predicates_share_cells(self):
        base = _snap(p={(a,)}, q={(b,)})
        successor = base.apply_delta({"p": {(c,)}}, {}, generation=2)
        assert successor._true["q"] is base._true["q"]
        assert successor._true["p"] is not base._true["p"]

    def test_delta_for_new_predicate(self):
        base = _snap(p={(a,)})
        successor = base.apply_delta({"fresh": {(d,)}}, {}, generation=2)
        assert successor.rows("fresh") == {(d,)}

    def test_empty_net_delta_is_a_noop_cellwise(self):
        base = _snap(p={(a,)})
        successor = base.apply_delta(
            {"p": frozenset()}, {"p": frozenset()}, generation=2
        )
        assert successor._true["p"] is base._true["p"]

    def test_a_long_chain_flattens_under_compact_not_at_publish(self):
        snapshot = _snap(p=frozenset())
        for i in range(24):
            snapshot = snapshot.apply_delta(
                {"p": {(Atom(f"n{i}"),)}}, {}, generation=i + 2
            )
            assert snapshot._true["p"].depth == i + 1
        assert snapshot.compact(4) == (1, 24)
        assert snapshot.max_chain_depth() == 0
        assert snapshot.rows("p") == {(Atom(f"n{i}"),) for i in range(24)}

    def test_materialization_is_memoized(self):
        base = _snap(p={(a,)})
        successor = base.apply_delta({"p": {(b,)}}, {}, generation=2)
        first = successor.rows("p")
        assert successor.rows("p") is first  # the frozen swap happened
        assert successor._true["p"].depth == 0


class TestStaleness:
    def test_as_stale_shares_cells_and_flags(self):
        base = ModelSnapshot.full({"p": {(a,)}}, {"p": {(b,)}}, generation=4)
        stale = base.as_stale(generation=5)
        assert stale.stale and not base.stale
        assert stale.generation == 5
        assert stale._true["p"] is base._true["p"]
        assert stale.rows("p") == base.rows("p")
        assert stale.undefined_rows("p") == {(b,)}


class TestFingerprint:
    def test_identical_models_share_a_fingerprint(self):
        one = _snap(p={(a,), (b,)})
        other = _snap(p={(b,), (a,)})
        assert one.fingerprint == other.fingerprint

    def test_fingerprint_is_delta_path_independent(self):
        direct = _snap(tc={(a, b), (a, c)})
        routed = _snap(tc={(a, b), (b, c)}).apply_delta(
            {"tc": {(a, c)}}, {"tc": {(b, c)}}, generation=2
        )
        assert direct.fingerprint == routed.fingerprint

    def test_fingerprint_covers_undefined_rows(self):
        total = ModelSnapshot.full({"win": {(b,)}})
        partial = ModelSnapshot.full({"win": {(b,)}}, {"win": {(d,)}})
        assert total.fingerprint != partial.fingerprint

    def test_fingerprint_is_memoized(self):
        snapshot = _snap(p={(a,)})
        assert snapshot.fingerprint is snapshot.fingerprint

    def test_an_empty_predicate_digests_like_an_absent_one(self):
        # Regression: the digest hashed table *keys*, so whether an
        # emptied relation kept its cell — which depends on the route
        # taken (a delta that removes the last row keeps it, a full
        # publish may never have listed it) — changed the fingerprint
        # of two snapshots with the same rows and undefined rows.
        absent = ModelSnapshot.full({"win": {(b,)}}, {"win": {(d,)}})
        listed = ModelSnapshot.full(
            {"win": {(b,)}, "lost": frozenset()}, {"win": {(d,)}}
        )
        emptied = ModelSnapshot.full(
            {"win": {(b,)}, "lost": {(a,)}}, {"win": {(d,)}, "lost": {(c,)}}
        ).apply_delta(
            {}, {"lost": {(a,)}}, 2, undefined_minus={"lost": {(c,)}}
        )
        assert emptied.predicates() == {"win", "lost"}
        assert not emptied.rows("lost") and not emptied.undefined_rows("lost")
        assert absent.fingerprint == listed.fingerprint == emptied.fingerprint
        # ... and a row anywhere still tells them apart.
        refilled = emptied.apply_delta({}, {}, 3, undefined_plus={"lost": {(c,)}})
        assert refilled.fingerprint != absent.fingerprint


class TestUndefinedDeltas:
    def test_undefined_rows_follow_their_own_delta(self):
        base = ModelSnapshot.full({"win": {(b,)}}, {"win": {(c,), (d,)}})
        successor = base.apply_delta(
            {"win": {(c,)}},
            {},
            2,
            undefined_plus={"win": {(a,)}, "draw": {(a,)}},
            undefined_minus={"win": {(c,)}},
        )
        assert successor.rows("win") == {(b,), (c,)}
        assert successor.undefined_rows("win") == {(a,), (d,)}
        assert successor.undefined_rows("draw") == {(a,)}
        assert base.undefined_rows("win") == {(c,), (d,)}, "parent untouched"
        direct = ModelSnapshot.full(
            {"win": {(b,), (c,)}}, {"win": {(a,), (d,)}, "draw": {(a,)}}
        )
        assert successor.fingerprint == direct.fingerprint
        assert successor.probe("win", (a,))[:2] == (frozenset(), {(a,)})

    def test_total_deltas_share_the_undefined_table(self):
        base = ModelSnapshot.full({"win": {(b,)}}, {"win": {(d,)}})
        successor = base.apply_delta({"win": {(c,)}}, {}, 2)
        assert successor._undefined is base._undefined

    def test_undefined_chains_count_for_depth_and_compaction(self):
        snapshot = ModelSnapshot.full({"win": {(b,)}}, {"win": {(d,)}})
        for step in range(5):
            snapshot = snapshot.apply_delta(
                {}, {}, step + 2, undefined_plus={"win": {(Atom(f"n{step}"),)}}
            )
        assert snapshot.max_chain_depth() == 5
        cells, rows = snapshot.compact(2)
        assert (cells, rows) == (1, 6)
        assert snapshot.max_chain_depth() == 0


class TestCellUnit:
    def test_frozen_cell_roundtrip(self):
        cell = _Cell.frozen("p", [(a,), (b,)])
        assert cell.rows() == {(a,), (b,)}
        assert cell.depth == 0

    def test_delta_cell_resolves_through_parents(self):
        root = _Cell.frozen("p", [(a,), (b,)])
        middle = _Cell.delta(root, frozenset([(c,)]), frozenset([(a,)]), 1)
        top = _Cell.delta(middle, frozenset([(d,)]), frozenset(), 2)
        assert top.depth == 2
        assert top.rows() == {(b,), (c,), (d,)}
        # Reading the top memoizes it to a frozen cell.
        assert top.depth == 0


class TestReadMemos:
    """Reply lines and pattern indexes live on the cell and travel down
    delta chains: a read costs its answer plus the unread delta."""

    @staticmethod
    def _chains(chains, length=24):
        nodes = lambda k: [Atom(f"c{k}n{i}") for i in range(length + 1)]
        return {
            (row[i], row[j])
            for row in map(nodes, range(chains))
            for i in range(length)
            for j in range(i + 1, length + 1)
        }

    def test_full_read_after_a_toggle_formats_the_delta(self):
        rows = self._chains(30)
        parent = _snap(tc=rows)
        lines, formatted = parent.lines("tc")
        assert formatted == len(rows) == 9000
        assert parent.lines("tc") == (lines, 0), "memoized"
        # A leaf edge under chain 0: one new tc row per chain node.
        leaf = Atom("leaf")
        plus = {(Atom(f"c0n{i}"), leaf) for i in range(25)}
        child = parent.apply_delta({"tc": plus}, {}, generation=2)
        grown, formatted = child.lines("tc")
        assert 0 < formatted <= 2 * len(plus)
        assert grown == sorted(
            f"row {format_fact('tc', row)}" for row in rows | plus
        )
        back = child.apply_delta({}, {"tc": plus}, generation=3)
        shrunk, formatted = back.lines("tc")
        assert 0 < formatted <= 2 * len(plus)
        assert shrunk == lines

    def test_a_flattened_chain_pays_for_its_net_change_once(self):
        rows = self._chains(30)
        parent = _snap(tc=rows)
        lines, _ = parent.lines("tc")
        parent.probe("tc", (Atom("c0n0"), None))
        leaf, other = Atom("leaf"), Atom("other")
        plus = {(Atom(f"c0n{i}"), leaf) for i in range(25)}
        # In and out again, then one row: the chain's net change is the
        # one row, so the flattening formats one line and the index
        # rebuilds one bucket.
        chain = parent.apply_delta({"tc": plus}, {}, generation=2)
        chain = chain.apply_delta({}, {"tc": plus}, generation=3)
        chain = chain.apply_delta({"tc": {(other, leaf)}}, {}, generation=4)
        grown, formatted = chain.lines("tc")
        assert formatted == 1
        assert grown == sorted(lines + [f"row {format_fact('tc', (other, leaf))}"])
        index = chain._true["tc"]._indexes[(2, (0,))]
        before = parent._true["tc"]._indexes[(2, (0,))]
        assert [key for key in index if index[key] is not before.get(key)] == [other]

    def test_a_view_never_read_in_full_holds_no_lines(self):
        snapshot = _snap(tc=self._chains(2))
        for generation in range(2, 6):
            snapshot = snapshot.apply_delta(
                {"tc": {(a, Atom(f"x{generation}"))}}, {}, generation
            )
            snapshot.rows("tc")
            snapshot.probe("tc", (a, None))
        assert snapshot._true["tc"]._lines is None

    def test_probe_matches_the_filtered_scan_at_every_cell_state(self):
        rows = self._chains(3, length=6)
        head = Atom("c1n2")
        snapshot = _snap(tc=rows)
        expected = {row for row in rows if row[0] == head}
        assert snapshot.probe("tc", (head, None))[0] == expected
        extra = (head, Atom("leaf"))
        gone = (head, Atom("c1n3"))
        child = snapshot.apply_delta({"tc": {extra}}, {"tc": {gone}}, 2)
        expected = (expected - {gone}) | {extra}
        true, undefined, scanned = child.probe("tc", (head, None))
        assert (true, undefined) == (expected, frozenset())
        # The parent's bucket, one pass over the two delta rows to bucket
        # them, then the two that matched.
        assert scanned == 4 + 2 + 2
        assert child.probe("tc", (head, None))[2] == 4 + 2, "bucketed once"
        child.rows("tc")  # materialize: the index is carried, not rebuilt
        assert child.probe("tc", (head, None)) == (
            expected, frozenset(), len(expected),
        )
        assert child.probe("tc", (None, Atom("leaf")))[0] == {extra}
        assert child.probe("tc", (head, Atom("leaf")))[0] == {extra}
        assert child.probe("nope", (head, None)) == (
            frozenset(), frozenset(), 0,
        )

    def test_probe_covers_undefined_rows_and_respects_arity(self):
        snapshot = ModelSnapshot.full(
            {"win": {(a,), (b,), (a, b)}}, {"win": {(c,), (d,)}}
        )
        assert snapshot.probe("win", (c,))[:2] == (frozenset(), {(c,)})
        assert snapshot.probe("win", (a,))[:2] == ({(a,)}, frozenset())
        assert snapshot.probe("win", (a, None))[0] == {(a, b)}
