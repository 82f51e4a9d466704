"""Unit tests for the complex-object value universe."""

import copy
import dataclasses
import gc
import multiprocessing
import pickle
import threading
import uuid

import pytest

from repro.relations import values as values_module
from repro.relations.values import (
    Atom,
    FSet,
    Tup,
    format_value,
    fset,
    is_value,
    sort_of,
    sorted_values,
    tup,
    value_key,
)


class TestAtom:
    def test_equality_by_name(self):
        assert Atom("a") == Atom("a")
        assert Atom("a") != Atom("b")

    def test_hashable(self):
        assert len({Atom("a"), Atom("a"), Atom("b")}) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_non_string_name_rejected(self):
        with pytest.raises(ValueError):
            Atom(3)

    def test_repr_is_bare_name(self):
        assert repr(Atom("pos7")) == "pos7"

    def test_not_equal_to_its_name(self):
        assert Atom("a") != "a"
        assert "a" != Atom("a")

    def test_immutable(self):
        atom = Atom("a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            atom.name = "b"
        with pytest.raises(AttributeError):
            del atom.name
        assert atom.name == "a"


def _fresh_name(tag: str) -> str:
    return f"{tag}-{uuid.uuid4().hex}"


def _echo_in_child(payload):
    """Run in a spawned child: send the payload back, and report
    whether the child's unpickled atoms are interned there too."""
    row = payload[0]
    return payload, row[0] is Atom(row[0].name)


class TestInterning:
    def test_one_instance_per_name(self):
        assert Atom("a") is Atom("a")
        assert Atom("a") is not Atom("b")

    @pytest.mark.parametrize(
        "clone",
        [
            lambda atom: pickle.loads(pickle.dumps(atom)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_are_the_interned_instance(self, clone):
        atom = Atom("a")
        assert clone(atom) is atom
        assert clone(tup(atom, fset(atom))).items[0] is atom

    def test_spawned_child_round_trip(self):
        a, b = Atom("a"), Atom("b")
        row = (a, b)
        nested = tup(a, fset(b, tup(a, 1)))
        members = fset(a, b, nested)
        payload = (row, nested, members)
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            back, interned_in_child = pool.apply(_echo_in_child, (payload,))
        assert interned_in_child
        back_row, back_nested, back_members = back
        assert back_row == row and hash(back_row) == hash(row)
        assert back_row[0] is a and back_row[1] is b
        assert back_nested == nested and hash(back_nested) == hash(nested)
        assert back_members == members and hash(back_members) == hash(members)
        assert {row, nested, members} == {back_row, back_nested, back_members}

    def test_table_releases_dropped_names(self):
        name = _fresh_name("dropped")
        atom = Atom(name)
        assert values_module._ATOMS[name] is atom
        del atom
        gc.collect()
        assert name not in values_module._ATOMS
        assert Atom(name).name == name  # and the name can come back

    def test_concurrent_creation_yields_one_instance_per_name(self):
        names = [_fresh_name(f"race{i}") for i in range(1000)]
        workers = 8
        start = threading.Barrier(workers)
        made = [None] * workers

        def construct(slot):
            start.wait()
            made[slot] = [Atom(name) for name in names]

        threads = [
            threading.Thread(target=construct, args=(slot,))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for index, name in enumerate(names):
            instances = {id(atoms[index]) for atoms in made}
            assert len(instances) == 1, name
            assert values_module._ATOMS[name] is made[0][index]


class TestTup:
    def test_components_are_one_indexed(self):
        pair = tup(Atom("a"), Atom("b"))
        assert pair.component(1) == Atom("a")
        assert pair.component(2) == Atom("b")

    def test_component_out_of_range(self):
        pair = tup(Atom("a"), Atom("b"))
        with pytest.raises(IndexError):
            pair.component(3)
        with pytest.raises(IndexError):
            pair.component(0)

    def test_nested_tuples(self):
        nested = tup(tup(1, 2), 3)
        assert nested.component(1).component(2) == 2

    def test_equality_structural(self):
        assert tup(1, 2) == tup(1, 2)
        assert tup(1, 2) != tup(2, 1)

    def test_iteration_and_len(self):
        assert list(tup(1, 2, 3)) == [1, 2, 3]
        assert len(tup(1, 2, 3)) == 3

    def test_rejects_non_values(self):
        with pytest.raises(TypeError):
            Tup((object(),))

    def test_repr(self):
        assert repr(tup(Atom("a"), 1)) == "[a, 1]"


class TestFSet:
    def test_set_semantics(self):
        assert fset(1, 2, 2) == fset(2, 1)
        assert len(fset(1, 2, 2)) == 2

    def test_membership(self):
        assert 1 in fset(1, 2)
        assert 3 not in fset(1, 2)

    def test_nested_sets(self):
        inner = fset(1)
        outer = fset(inner, 2)
        assert inner in outer

    def test_iteration_deterministic(self):
        assert list(fset(3, 1, 2)) == [1, 2, 3]

    def test_rejects_non_values(self):
        with pytest.raises(TypeError):
            FSet(frozenset({object()}))


class TestSortOf:
    def test_scalar_sorts(self):
        assert sort_of(True) == "bool"
        assert sort_of(3) == "int"
        assert sort_of("x") == "str"
        assert sort_of(Atom("a")) == "atom"

    def test_tuple_sort(self):
        assert sort_of(tup(1, Atom("a"))) == ("tup", ("int", "atom"))

    def test_set_sorts(self):
        assert sort_of(fset(1, 2)) == ("set", "int")
        assert sort_of(fset()) == ("set", None)
        assert sort_of(fset(1, Atom("a"))) == ("set", "mixed")


class TestOrdering:
    def test_total_order_across_types(self):
        values = [fset(1), tup(1, 2), Atom("z"), "s", 5, True]
        ordered = sorted_values(values)
        assert ordered == [True, 5, "s", Atom("z"), tup(1, 2), fset(1)]

    def test_mixed_set_order_is_by_name_not_identity(self):
        # Atoms hash by identity, so a set's iteration order says
        # nothing; the printed order must still follow the names.
        mixed = {
            Atom("m"), Atom("b"), Atom("z10"), Atom("z9"), "b", 2, False,
            tup(Atom("b"), 1), tup(Atom("a"), 2), tup(Atom("a")),
            fset(Atom("y"), Atom("x")), fset(Atom("a")),
        }
        assert sorted_values(mixed) == [
            False, 2, "b", Atom("b"), Atom("m"), Atom("z10"), Atom("z9"),
            tup(Atom("a")), tup(Atom("a"), 2), tup(Atom("b"), 1),
            fset(Atom("a")), fset(Atom("x"), Atom("y")),
        ]
        assert [format_value(v) for v in sorted_values(mixed)] == [
            "false", "2", "'b'", "b", "m", "z10", "z9",
            "[a]", "[a, 2]", "[b, 1]", "{a}", "{x, y}",
        ]

    def test_value_key_rejects_non_values(self):
        with pytest.raises(TypeError):
            value_key(object())

    def test_is_value(self):
        assert is_value(tup(1, fset(Atom("a"))))
        assert not is_value(object())
        assert not is_value([1, 2])


class TestFormat:
    def test_strings_quoted(self):
        assert format_value("abc") == "'abc'"

    def test_numbers_plain(self):
        assert format_value(7) == "7"

    def test_structures(self):
        assert format_value(tup(Atom("a"), "s")) == "[a, 's']"

    def test_booleans_as_the_grammar_spells_them(self):
        assert format_value(True) == "true"
        assert format_value(tup(False, 1)) == "[false, 1]"

    def test_escapes_where_the_reader_would_unescape(self):
        # A quote always; a backslash only before a quote, a backslash,
        # a line break or the closing quote.
        assert format_value("it's") == r"'it\'s'"
        assert format_value("a\\") == r"'a\\'"
        assert format_value("a\\b") == r"'a\b'"
        assert format_value("\\'") == r"'\\\''"
        assert format_value("a\\\n") == "'a\\\\\n'"
