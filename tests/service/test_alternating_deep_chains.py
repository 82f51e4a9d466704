"""Deep games: a three-valued view over long win-chains.

``win(X) :- move(X, Y), not win(Y).`` over a chain of *n* moves needs
*n* + 2 levels of the alternating fixpoint.  A move added or removed at
the tail flips the status of every row; one at the head adds or removes
one row.  Under both ``valid`` and ``wellfounded``, after each such
write the view's true and undefined rows equal ``run()``'s and the
snapshot published by delta equals a full snapshot of the engine's
model.

And the cost of the tail write follows the rows it changes: its
``rows_matched`` on chain-256 is at most 6x its value on chain-64 (a
chain kept as one engine per level matched 15x).
"""

import pytest

from repro.datalog import run
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.relations import Atom
from repro.service import MaterializedView, ModelSnapshot, prepare_program

WIN = "win(X) :- move(X, Y), not win(Y).\n"
PROGRAM = parse_program(WIN)


def _chain_view(n, semantics):
    database = Database()
    for i in range(n):
        database.add("move", Atom(f"c{i}"), Atom(f"c{i + 1}"))
    return MaterializedView(prepare_program("win", WIN), database, semantics=semantics)


def _tail(n):
    return ("move", (Atom(f"c{n}"), Atom("tail")))


def _head():
    return ("move", (Atom("head"), Atom("c0")))


def _check(view, semantics):
    oracle = run(PROGRAM, view.database, semantics=semantics)
    assert view.rows("win") == oracle.true_rows("win")
    assert view.undefined_rows("win") == oracle.undefined_rows("win")
    engine = view.engine
    full = ModelSnapshot.full(engine.model(), engine.undefined_model())
    published = view.read_snapshot()
    assert published.fingerprint == full.fingerprint
    for predicate in ("win", "move"):
        assert published.rows(predicate) == full.rows(predicate)
        assert published.undefined_rows(predicate) == full.undefined_rows(predicate)


@pytest.mark.parametrize("semantics", ["valid", "wellfounded"])
@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_tail_and_head_writes_match_run(n, semantics):
    view = _chain_view(n, semantics)
    assert view.alternation_levels() == n + 2
    _check(view, semantics)
    for fact in (_tail(n), _head()):
        view.apply(inserts=[fact])
        _check(view, semantics)
        view.apply(deletes=[fact])
        _check(view, semantics)
    assert view.alternation_levels() == n + 2


def _tail_insert_matches(n):
    view = _chain_view(n, "valid")
    before = view.metrics.counters["rows_matched"]
    view.apply(inserts=[_tail(n)])
    return view.metrics.counters["rows_matched"] - before


def test_a_tail_write_matches_rows_linear_in_the_chain():
    short, long = _tail_insert_matches(64), _tail_insert_matches(256)
    assert long <= 6 * short, (short, long)


# -- re-ranking edge cases -----------------------------------------------------


def _view(source, facts, semantics="valid"):
    database = Database()
    for predicate, *args in facts:
        database.add(predicate, *(Atom(arg) for arg in args))
    return MaterializedView(prepare_program("x", source), database, semantics=semantics)


def _matches_run(view, source):
    program = parse_program(source)
    oracle = run(program, view.database, semantics=view.semantics)
    for predicate in program.idb_predicates():
        assert view.rows(predicate) == oracle.true_rows(predicate), predicate
        assert view.undefined_rows(predicate) == oracle.undefined_rows(predicate), predicate
    engine = view.engine
    full = ModelSnapshot.full(engine.model(), engine.undefined_model())
    assert view.read_snapshot().fingerprint == full.fingerprint


def test_an_instance_a_write_kills_twice_is_found_at_the_old_state():
    """``move(n, n)`` falsifies both negated literals of ``p(n)``'s one
    non-recursive instance: only a firing at the state before the write
    still finds it, and ``p(n)`` becomes undefined."""
    source = (
        "p(X) :- node(X), not p(X).\n"
        "p(X) :- node(X), not move(X, X), not move(X, X).\n"
    )
    view = _view(source, [("node", "n")])
    assert view.rows("p") == {(Atom("n"),)}
    view.apply(inserts=[("move", (Atom("n"), Atom("n")))])
    assert view.undefined_rows("p") == {(Atom("n"),)}
    _matches_run(view, source)
    view.apply(deletes=[("move", (Atom("n"), Atom("n")))])
    _matches_run(view, source)


def test_a_positive_cycle_loses_its_outside_support():
    """``q(a)`` and ``q(b)`` derive each other; their one way in reads
    ``not w(a)``.  When ``w(a)`` turns true both must go, though each
    still has an instance through the other."""
    source = (
        "w(X) :- move(X, Y), not w(Y).\n"
        "q(X) :- start(X), not w(X).\n"
        "q(Y) :- q(X), link(X, Y).\n"
    )
    facts = [("start", "a"), ("link", "a", "b"), ("link", "b", "a")]
    for semantics in ("valid", "wellfounded"):
        view = _view(source, facts, semantics)
        assert view.rows("q") == {(Atom("a"),), (Atom("b"),)}
        view.apply(inserts=[("move", (Atom("a"), Atom("c")))])
        assert view.rows("q") == frozenset()
        _matches_run(view, source)
        view.apply(deletes=[("move", (Atom("a"), Atom("c")))])
        assert view.rows("q") == {(Atom("a"),), (Atom("b"),)}
        _matches_run(view, source)
