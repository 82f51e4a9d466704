"""Property suite: a snapshot's read memos equal their recomputation.

A :class:`~repro.service.snapshot.ModelSnapshot` cell memoizes the
sorted ``row`` wire lines of its rows and one hash index per probed
binding pattern, and carries both down delta chains by applying the
per-row map to ``plus``/``minus`` alone.  Whatever path a cell took to
its state — lazily read, compacted as a view compacts, carried
from a parent that held the memo or built from scratch, shared with a
stale copy, raced by two readers — the memo must equal the thing it
stands for, byte for byte:

* ``lines(p)``  == ``sorted(format(row) for row in rows(p))``, and the
  same for ``undefined_lines(p)`` over ``undefined_rows(p)``
* ``probe(p, args)`` == the rows of ``rows(p)`` that match ``args``

Deltas here are *not* net: rows re-inserted while present, deleted
while absent, and sitting in both ``plus`` and ``minus`` are all drawn,
because ``rows()`` defines an answer for them and the memos must agree.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.facts import format_fact
from repro.relations import Atom
from repro.service import ModelSnapshot
from repro.service.views import COMPACT_DEPTH, COMPACT_INTERVAL

# Values whose wire text is pairwise distinct, over three types.
VALUES = (Atom("a"), Atom("b"), Atom("c"), 0, 1, "a")
PATTERN_VALUES = VALUES + (None,)

values = st.sampled_from(VALUES)
# Mostly binary rows, some unary ones under the same predicate: a probe
# of one arity must never return rows of the other.
rows = st.one_of(st.tuples(values, values), st.tuples(values))
row_sets = st.frozensets(rows, max_size=6)
patterns = st.one_of(
    st.tuples(st.sampled_from(PATTERN_VALUES), st.sampled_from(PATTERN_VALUES)),
    st.tuples(values),
).filter(lambda args: any(arg is not None for arg in args))

#: One step of a snapshot's life.  The integer picks which generation
#: so far a read lands on (modulo the history length); deltas are listed
#: three times so chains grow deeper than they are read.
steps = st.one_of(
    st.tuples(st.just("delta"), row_sets, row_sets),
    st.tuples(st.just("delta"), row_sets, row_sets),
    st.tuples(st.just("delta"), row_sets, row_sets),
    st.tuples(st.just("lines"), st.integers(0, 64)),
    st.tuples(st.just("rows"), st.integers(0, 64)),
    st.tuples(st.just("probe"), st.integers(0, 64), patterns),
    st.tuples(st.just("compact"), st.integers(0, 64), st.integers(0, 6)),
    st.tuples(st.just("stale"), st.integers(0, 64)),
)


def expected_lines(model):
    return sorted(f"row {format_fact('p', row)}" for row in model)


def expected_probe(model, args):
    return {
        row
        for row in model
        if len(row) == len(args)
        and all(want is None or have == want for have, want in zip(row, args))
    }


def check(snapshot, model, probes):
    """Every read of ``snapshot`` against the plain-set ``model``."""
    for args in probes:
        true, undefined, _scanned = snapshot.probe("p", args)
        assert true == expected_probe(model, args), args
        assert undefined == frozenset()
    lines, _formatted = snapshot.lines("p")
    assert lines == expected_lines(model)
    assert snapshot.rows("p") == model
    # Reading changed nothing: the memos answer the same again.
    assert snapshot.lines("p") == (lines, 0)
    for args in probes:
        assert snapshot.probe("p", args)[0] == expected_probe(model, args)


def play(initial, script):
    """Run ``script`` from ``initial``; returns the whole history as
    ``[(snapshot, model)]`` — every generation stays readable."""
    history = [(ModelSnapshot.full({"p": initial}), frozenset(initial))]
    for step in script:
        kind = step[0]
        if kind == "delta":
            _kind, plus, minus = step
            snapshot, model = history[-1]
            history.append(
                (
                    snapshot.apply_delta(
                        {"p": plus}, {"p": minus}, snapshot.generation + 1
                    ),
                    (model - minus) | plus,
                )
            )
            continue
        snapshot, model = history[step[1] % len(history)]
        if kind == "lines":
            assert snapshot.lines("p")[0] == expected_lines(model)
        elif kind == "rows":
            assert snapshot.rows("p") == model
        elif kind == "probe":
            assert snapshot.probe("p", step[2])[0] == expected_probe(model, step[2])
        elif kind == "compact":
            snapshot.compact(step[2])
        elif kind == "stale":
            history.append((snapshot.as_stale(history[-1][0].generation + 1), model))
    return history


@settings(max_examples=300, deadline=None)
@given(row_sets, st.lists(steps, max_size=30), st.lists(patterns, max_size=3))
def test_memos_equal_recomputation_at_every_generation(initial, script, probes):
    history = play(initial, script)
    # Newest first: the old generations are then read *after* their
    # children materialized and dropped them — and the other way round
    # on the second pass.
    for snapshot, model in reversed(history):
        check(snapshot, model, probes)
    for snapshot, model in history:
        check(snapshot, model, probes)


@settings(max_examples=60, deadline=None)
@given(
    row_sets,
    st.lists(
        st.tuples(row_sets, row_sets).filter(any),  # empty deltas add no cell
        min_size=2 * COMPACT_INTERVAL + 2,
        max_size=2 * COMPACT_INTERVAL + 6,
    ),
    st.booleans(),
    patterns,
)
def test_compaction_carries_the_memos(initial, deltas, warm, args):
    """An unread chain flattened by ``compact()`` on every
    ``COMPACT_INTERVAL``-th publish, as a view flattens it: with a
    warmed root the flattened cell inherits memos through the whole
    chain, with a cold one it holds none — both must read the same."""
    snapshot = ModelSnapshot.full({"p": initial})
    model = frozenset(initial)
    if warm:
        snapshot.lines("p")
        snapshot.probe("p", args)
    deepest = 0
    for count, (plus, minus) in enumerate(deltas, 1):
        snapshot = snapshot.apply_delta(
            {"p": plus}, {"p": minus}, snapshot.generation + 1
        )
        model = (model - minus) | plus
        deepest = max(deepest, snapshot.max_chain_depth())
        if count % COMPACT_INTERVAL == 0:
            assert snapshot.compact(COMPACT_DEPTH)[0] == 1
    assert deepest == COMPACT_INTERVAL
    assert snapshot.max_chain_depth() == len(deltas) % COMPACT_INTERVAL, "flattened on the way"
    check(snapshot, model, [args])


texts = st.sampled_from(("0", "1", "2", "{{e(a, b)}}", "{{e(a, b)}, {e(b, c)}}"))
tables = st.dictionaries(rows, texts, max_size=6)


def check_annotations(snapshot, table):
    """The annotation reads of ``snapshot`` against the dict ``table``."""
    expected = sorted(
        f"explain {format_fact('p', row)} @ {text}" for row, text in table.items()
    )
    lines, _formatted = snapshot.explain_lines("p")
    assert lines == expected
    assert snapshot.explain_lines("p") == (lines, 0)
    assert snapshot.annotations_for("p") == table
    # Built once per cell, like the lines: a repeated read copies nothing.
    assert snapshot.annotations_for("p") is snapshot.annotations_for("p")
    assert snapshot.rows("p") == table.keys()
    full = ModelSnapshot.full({"p": table.keys()}, annotations={"p": table})
    assert snapshot.fingerprint == full.fingerprint


@settings(max_examples=200, deadline=None)
@given(tables, st.lists(st.tuples(tables, st.booleans()), max_size=2 * COMPACT_INTERVAL + 4))
def test_annotations_carried_by_delta_equal_a_full_publish(initial, script):
    """An annotated view publishes the ``(row, text)`` pairs its batch
    added and removed; whichever generations were read on the way — so
    whichever held the ``explain`` memo when the next one settled — the
    table, its lines and the fingerprint are those of a snapshot built
    from the whole model, compacted as a view compacts it.  Boolean
    snapshots stay without a table."""
    snapshot = ModelSnapshot.full({"p": initial.keys()}, annotations={"p": initial})
    table = initial
    history = [(snapshot, table)]
    for count, (target, read) in enumerate(script, 1):
        snapshot = snapshot.apply_delta(
            {"p": target.keys() - table.keys()},
            {"p": table.keys() - target.keys()},
            snapshot.generation + 1,
            annotated_plus={"p": target.items() - table.items()},
            annotated_minus={"p": table.items() - target.items()},
        )
        table = target
        history.append((snapshot, table))
        if read:
            check_annotations(snapshot, table)
        if count % COMPACT_INTERVAL == 0:
            snapshot.compact(COMPACT_DEPTH)
    for snapshot, table in reversed(history):
        check_annotations(snapshot, table)
    assert snapshot.max_chain_depth() == 0
    plain = ModelSnapshot.full({"p": initial.keys()})
    plain = plain.apply_delta({"p": [(0,)]}, {}, 2)
    assert plain.annotations_for("p") is None
    assert plain.explain_lines("p") == ([], 0)


@settings(max_examples=200, deadline=None)
@given(
    row_sets,
    row_sets,
    st.lists(st.tuples(row_sets, row_sets, row_sets, row_sets, st.booleans()), max_size=24),
)
def test_undef_lines_carried_by_delta_equal_recomputation(true, undefined, script):
    """The ``undef`` lines of a full read are memoized on the undefined
    cells and spliced by delta like the ``row`` lines: whichever
    generations were read on the way, they equal formatting and sorting
    the undefined rows, and the ``row`` lines never see them."""
    snapshot = ModelSnapshot.full({"p": true}, {"p": undefined})
    history = [(snapshot, frozenset(true), frozenset(undefined))]
    for plus, minus, undefined_plus, undefined_minus, read in script:
        snapshot = snapshot.apply_delta(
            {"p": plus},
            {"p": minus},
            snapshot.generation + 1,
            {"p": undefined_plus},
            {"p": undefined_minus},
        )
        _snapshot, true, undefined = history[-1]
        history.append(
            (snapshot, (true - minus) | plus, (undefined - undefined_minus) | undefined_plus)
        )
        if read:
            snapshot.undefined_lines("p")
    for snapshot, true, undefined in reversed(history):
        expected = sorted(f"undef {format_fact('p', row)}" for row in undefined)
        lines, _formatted = snapshot.undefined_lines("p")
        assert lines == expected
        assert snapshot.undefined_lines("p") == (lines, 0)
        assert snapshot.undefined_rows("p") == undefined
        assert snapshot.lines("p")[0] == expected_lines(true)
        assert snapshot.as_stale(0).undefined_lines("p")[0] == expected


def test_racing_readers_agree_with_the_oracle():
    """Three readers (more than this box has cores) hammer every
    generation of one long chain — lines, probes and rows in different
    orders — while a fourth thread compacts.  Memo writes are plain
    attribute swaps; a reader must never see a half-built one."""
    initial = frozenset((Atom(f"n{i}"), Atom(f"n{i + 1}")) for i in range(40))
    script = []
    for i in range(60):
        plus = frozenset({(Atom(f"n{i}"), Atom(f"m{i % 7}")), (Atom(f"n{i % 5}"),)})
        minus = frozenset({(Atom(f"n{i // 2}"), Atom(f"n{i // 2 + 1}"))})
        script.append(("delta", plus, minus))
    history = play(initial, script)
    probes = [(Atom("n3"), None), (None, Atom("m2")), (Atom("n1"),)]
    failures = []
    start = threading.Barrier(4)

    def reader(order):
        start.wait(10)
        try:
            for snapshot, model in order:
                check(snapshot, model, probes)
        except BaseException as exc:  # surfaced below, on the main thread
            failures.append(exc)

    def compactor():
        start.wait(10)
        for snapshot, _model in history[::3]:
            snapshot.compact(2)

    threads = [
        threading.Thread(target=reader, args=(history,)),
        threading.Thread(target=reader, args=(history[::-1],)),
        threading.Thread(target=reader, args=(history[::2] + history[1::2],)),
        threading.Thread(target=compactor),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
