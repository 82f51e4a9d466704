"""Property suite: the DBSP engine equals from-scratch evaluation.

Random update schedules (per-batch and multi-batch bursts) driven
through :class:`DBSPEngine` always land on the model
:func:`repro.datalog.engine.run` computes from the final extensional
state, and a burst of N batches lands on the same model as the same N
batches applied one at a time:

* over a recursive program with negation (the nested fixpoint);
* over programs made only of non-recursive components (the probe step:
  a present head row that lost an instance stays while a head-bound
  probe still fires), with named cases for each way a head row can keep
  or lose its support.

The work bounds at the end count rows, not clocks: a write costs its
delta, not the resident view.
"""

import random

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import run
from repro.datalog.parser import parse_program
from repro.relations import Atom
from repro.service import prepare_program
from tests.property.test_alternating_chain import never_grounds
from repro.service.dbsp import DBSPEngine

NODES = [Atom(f"n{i}") for i in range(5)]

PROGRAM = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
top(X) :- node(X), not under(X).
under(Y) :- tc(X, Y).
"""

_PARSED = parse_program(PROGRAM)


# ---------------------------------------------------------------------------
# the full circuit vs from-scratch evaluation
# ---------------------------------------------------------------------------


def _fresh_engine(rng):
    database = Database()
    for node in NODES:
        database.add("node", node)
    universe = [(x, y) for x in NODES for y in NODES if x != y]
    for pair in rng.sample(universe, 6):
        database.add("edge", *pair)
    prepared = prepare_program("dbsp-algebra", PROGRAM)
    return DBSPEngine(prepared, database), universe


def _assert_matches_oracle(engine, step):
    oracle = run(_PARSED, engine.edb, semantics="stratified")
    model = engine.model()
    for predicate in ("tc", "top", "under"):
        assert model.get(predicate, frozenset()) == oracle.true_rows(
            predicate
        ), f"step {step}: {predicate} diverged from the oracle"


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 23])
def test_random_schedule_matches_oracle(seed):
    rng = random.Random(f"dbsp-schedule-{seed}")
    engine, universe = _fresh_engine(rng)
    _assert_matches_oracle(engine, "init")
    for step in range(40):
        pair = rng.choice(universe)
        if engine.edb.holds("edge", *pair):
            engine.apply_stream([([], [("edge", pair)])])
        else:
            engine.apply_stream([([("edge", pair)], [])])
        _assert_matches_oracle(engine, step)


@pytest.mark.parametrize("seed", [3, 5, 11, 17])
def test_burst_equals_sequential_equals_oracle(seed):
    """One apply_stream pass over N batches = N one-batch passes = run()."""
    rng = random.Random(f"dbsp-burst-{seed}")
    burst_engine, universe = _fresh_engine(rng)
    sequential_engine = DBSPEngine(
        burst_engine.prepared, burst_engine.edb.copy()
    )
    for step in range(8):
        batches = []
        for _ in range(rng.randint(1, 5)):
            inserts, deletes = [], []
            for pair in rng.sample(universe, rng.randint(1, 3)):
                if rng.random() < 0.5:
                    inserts.append(("edge", pair))
                else:
                    deletes.append(("edge", pair))
            batches.append((inserts, deletes))
        summary = burst_engine.apply_stream(batches)
        assert summary["batches"] == len(batches)
        for inserts, deletes in batches:
            sequential_engine.apply_stream([(inserts, deletes)])
        assert burst_engine.model() == sequential_engine.model(), (
            f"step {step}: burst and sequential application diverged"
        )
        _assert_matches_oracle(burst_engine, step)


@pytest.mark.parametrize("seed", [4, 9])
def test_insert_then_delete_cancels_before_rules_fire(seed):
    """A batch pair that nets to zero is one circuit step and no delta."""
    rng = random.Random(f"dbsp-cancel-{seed}")
    engine, universe = _fresh_engine(rng)
    pair = next(
        candidate
        for candidate in universe
        if not engine.edb.holds("edge", *candidate)
    )
    before = engine.model()
    fired_before = engine.metrics.counters["rules_fired"]
    summary = engine.apply_stream(
        [([("edge", pair)], []), ([], [("edge", pair)])]
    )
    assert summary["delta_plus"] == 0 and summary["delta_minus"] == 0
    assert engine.model() == before
    assert engine.metrics.counters["rules_fired"] == fired_before, (
        "a cancelled burst must not reach the rule bodies"
    )
    assert engine.metrics.counters["circuit_steps"] == 1
    assert engine.metrics.counters["delta_batches_coalesced"] == 1


# ---------------------------------------------------------------------------
# non-recursive components: the probe step vs from-scratch evaluation
# ---------------------------------------------------------------------------

# Every component is non-recursive.  ``reach`` and ``pair`` have body
# variables outside their heads (so a head row can have several
# instances) and are also written directly, as EDB facts; ``reach`` has
# two rules; ``lonely`` and ``hub`` negate a lower predicate, derived
# and extensional; ``both`` reads three layers down.
FLAT = """
reach(X) :- edge(X, Y).
reach(X) :- mark(X).
pair(X, Z) :- edge(X, Y), edge(Y, Z).
lonely(X) :- node(X), not reach(X).
hub(X) :- pair(X, Z), not edge(X, Z).
both(X) :- reach(X), mark(X), not lonely(X), hub(X).
"""

_FLAT = parse_program(FLAT)
_FLAT_DERIVED = ("reach", "pair", "lonely", "hub", "both")
_SMALL = NODES[:4]


def _flat_engine(facts=()):
    prepared = prepare_program("flat", FLAT)
    assert not any(component.recursive for component in prepared.schedule)
    database = Database()
    for node in _SMALL:
        database.add("node", node)
    for predicate, *row in facts:
        database.add(predicate, *row)
    return DBSPEngine(prepared, database)


def _assert_flat_matches_oracle(engine, step):
    oracle = run(_FLAT, engine.edb, semantics="stratified")
    model = engine.model()
    for predicate in _FLAT_DERIVED:
        assert model.get(predicate, frozenset()) == oracle.true_rows(
            predicate
        ), f"step {step}: {predicate} diverged from the oracle"


def _rows(engine):
    """The model without the predicates that have no rows left."""
    return {predicate: rows for predicate, rows in engine.model().items() if rows}


def _flat_universe():
    """Every fact a random schedule may write: edges, marks, and direct
    ``reach`` / ``pair`` facts beside their rules."""
    pairs = [(x, y) for x in _SMALL for y in _SMALL if x != y]
    return (
        [("edge", pair) for pair in pairs]
        + [("mark", (x,)) for x in _SMALL]
        + [("reach", (x,)) for x in _SMALL]
        + [("pair", pair) for pair in pairs[::3]]
    )


def _random_flat_engine(rng, universe):
    engine = _flat_engine()
    engine.apply_stream([(rng.sample(universe, 8), [])])
    return engine


@pytest.mark.parametrize("seed", range(32))
def test_flat_random_schedule_matches_oracle(seed):
    rng = random.Random(f"dbsp-flat-{seed}")
    universe = _flat_universe()
    engine = _random_flat_engine(rng, universe)
    _assert_flat_matches_oracle(engine, "init")
    for step in range(25):
        fact = rng.choice(universe)
        if engine.edb.holds(fact[0], *fact[1]):
            engine.apply_stream([([], [fact])])
        else:
            engine.apply_stream([([fact], [])])
        _assert_flat_matches_oracle(engine, step)


@pytest.mark.parametrize("seed", range(20))
def test_flat_burst_equals_sequential_equals_oracle(seed):
    """Bursts mix inserts and deletes of base and derived predicates —
    one burst often loses one instance of a head row and gains another."""
    rng = random.Random(f"dbsp-flat-burst-{seed}")
    universe = _flat_universe()
    burst_engine = _random_flat_engine(rng, universe)
    sequential_engine = DBSPEngine(burst_engine.prepared, burst_engine.edb.copy())
    for step in range(6):
        batches = []
        for _ in range(rng.randint(1, 4)):
            inserts, deletes = [], []
            for fact in rng.sample(universe, rng.randint(1, 4)):
                (inserts if rng.random() < 0.5 else deletes).append(fact)
            batches.append((inserts, deletes))
        burst_engine.apply_stream(batches)
        for batch in batches:
            sequential_engine.apply_stream([batch])
        assert _rows(burst_engine) == _rows(sequential_engine), (
            f"step {step}: burst and sequential application diverged"
        )
        _assert_flat_matches_oracle(burst_engine, step)


a, b, c, d = _SMALL


def _work(engine, burst):
    """Apply ``burst`` (``(inserts, deletes)`` pairs of facts); return
    the summary and the burst's (overdeleted, rederived) counts."""
    counters = engine.metrics.counters
    before = counters["overdeleted_total"], counters["rederived_total"]
    summary = engine.apply_stream(
        [
            ([(p, tuple(row)) for p, *row in inserts], [(p, tuple(row)) for p, *row in deletes])
            for inserts, deletes in burst
        ]
    )
    _assert_flat_matches_oracle(engine, "case")
    return summary, (
        counters["overdeleted_total"] - before[0],
        counters["rederived_total"] - before[1],
    )


def test_losing_one_of_two_instances_keeps_the_head():
    engine = _flat_engine([("edge", a, b), ("edge", a, c)])
    summary, work = _work(engine, [([], [("edge", a, b)])])
    assert (a,) in engine.rows("reach")
    assert "reach" not in summary["minus"]
    # ``reach(a)`` was a candidate and its probe still fired.
    assert work == (1, 1)


def test_losing_both_instances_in_one_burst_drops_the_head():
    engine = _flat_engine([("edge", a, b), ("edge", a, c)])
    summary, _ = _work(engine, [([], [("edge", a, b)]), ([], [("edge", a, c)])])
    assert (a,) not in engine.rows("reach")
    assert summary["minus"]["reach"] == {(a,)}
    assert (a,) in engine.rows("lonely")


def test_one_instance_lost_and_another_gained_in_one_burst():
    engine = _flat_engine([("edge", a, b), ("edge", b, c)])
    assert (a, c) in engine.rows("pair")
    # pair(a, c) through b goes, through d arrives: the row never moves.
    summary, _ = _work(
        engine,
        [([("edge", a, d), ("edge", d, c)], [("edge", a, b)])],
    )
    assert (a, c) in engine.rows("pair")
    assert "pair" not in summary["minus"] and "pair" not in summary["plus"]
    assert "reach" not in summary["minus"]


def test_a_mark_and_an_edge_are_two_rules_for_one_head():
    engine = _flat_engine([("edge", a, b), ("mark", a)])
    _work(engine, [([], [("edge", a, b)])])
    assert (a,) in engine.rows("reach")
    _work(engine, [([], [("mark", a)])])
    assert (a,) not in engine.rows("reach")


def test_direct_delete_of_a_derived_fact_with_instances_keeps_it():
    engine = _flat_engine([("edge", a, b), ("reach", a)])
    summary, work = _work(engine, [([], [("reach", a)])])
    assert (a,) in engine.rows("reach") and "reach" not in summary["minus"]
    assert work == (1, 1)
    # With the direct fact back in, losing the rule's one instance
    # keeps the row too: it is still an EDB fact.
    _work(engine, [([("reach", a)], [])])
    summary, work = _work(engine, [([], [("edge", a, b)])])
    assert (a,) in engine.rows("reach") and "reach" not in summary["minus"]
    assert work == (1, 1)


def test_direct_insert_of_a_derived_fact_with_instances_is_no_change():
    engine = _flat_engine([("edge", a, b)])
    summary, work = _work(engine, [([("reach", a)], [])])
    assert "reach" not in summary["plus"]
    assert work == (0, 0)
    # ...and a later delete of both the fact and the instance drops it.
    summary, _ = _work(engine, [([], [("reach", a), ("edge", a, b)])])
    assert summary["minus"]["reach"] == {(a,)}


def test_a_negated_lower_predicate_flips_both_ways():
    engine = _flat_engine([("edge", a, b), ("edge", b, c)])
    assert (a,) in engine.rows("hub")  # pair(a, c), and no edge(a, c)
    assert (c,) in engine.rows("lonely")
    # edge(a, c) makes the negated atom true: hub(a) goes; mark(c)
    # starts reach(c), so lonely(c) goes with it.
    summary, _ = _work(engine, [([("edge", a, c), ("mark", c)], [])])
    assert summary["minus"]["hub"] == {(a,)}
    assert summary["minus"]["lonely"] == {(c,)}
    # ...and back: the negated atoms turn false again.
    summary, _ = _work(engine, [([], [("edge", a, c), ("mark", c)])])
    assert summary["plus"]["hub"] == {(a,)}
    assert (c,) in engine.rows("lonely")


# ---------------------------------------------------------------------------
# Work bound: a write costs its delta, not the resident view
# ---------------------------------------------------------------------------

_CHAIN_TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).
"""


def _leaf_toggle_work(chains, length=24):
    """(rows matched, delta rows) of inserting, then deleting, a leaf
    edge at the end of one chain of a ``chains`` x ``length`` tc view."""
    database = Database()
    for k in range(chains):
        for i in range(length):
            database.add("edge", f"c{k}n{i}", f"c{k}n{i + 1}")
    engine = DBSPEngine(prepare_program("chains", _CHAIN_TC), database)
    assert len(engine.rows("tc")) == chains * length * (length + 1) // 2
    leaf = ("edge", (f"c0n{length}", "leaf"))
    work = []
    for batch in (([leaf], []), ([], [leaf])):
        before = engine.metrics.counters["rows_matched"]
        summary = engine.apply_stream([batch])
        delta_rows = summary["delta_plus"] + summary["delta_minus"]
        assert delta_rows == length + 2, "the edge plus one tc row per chain node"
        work.append((engine.metrics.counters["rows_matched"] - before, delta_rows))
    return work


def test_leaf_toggle_cost_is_independent_of_resident_size():
    """The kernel drives every firing from the delta: a leaf-edge toggle
    pulls a bounded number of rows per delta row, and exactly as many on
    a view three times the size.  Counts, not clocks."""
    large = _leaf_toggle_work(30)
    small = _leaf_toggle_work(10)
    assert large == small, "rows matched must not depend on resident rows"
    for matched, delta_rows in large:
        assert 0 < matched <= 8 * delta_rows, (matched, delta_rows)


_WIN = "win(X) :- move(X, Y), not win(Y).\n"


def _leaf_move_work(games, length=6):
    """(rows matched, delta rows, levels) of adding, then removing, a
    move out of the last position of one of ``games`` separate boards —
    each a win-chain of ``length`` moves beside a drawn 2-cycle.  One
    longer win-chain keeps the alternation as deep with the move as
    without (a chain that grows evaluates its new levels from scratch)."""
    from repro.service import MaterializedView

    database = Database()
    for i in range(length + 2):
        database.add("move", f"deep{i}", f"deep{i + 1}")
    for k in range(games):
        for i in range(length):
            database.add("move", f"g{k}p{i}", f"g{k}p{i + 1}")
        database.add("move", f"g{k}x", f"g{k}y").add("move", f"g{k}y", f"g{k}x")
    with never_grounds():
        view = MaterializedView(
            prepare_program("games", _WIN), database, semantics="valid"
        )
    assert len(view.undefined_rows("win")) == 2 * games
    leaf = ("move", (f"g0p{length}", "g0leaf"))
    work = []
    for batch in ({"inserts": [leaf]}, {"deletes": [leaf]}):
        before = view.metrics.counters["rows_matched"]
        with never_grounds():
            summary = view.apply(**batch)
        # The move, and every position of that one chain changing sides.
        delta_rows = summary["delta_plus"] + summary["delta_minus"]
        assert delta_rows == length + 2
        assert not summary["undefined_plus"] and not summary["undefined_minus"]
        work.append(
            (
                view.metrics.counters["rows_matched"] - before,
                delta_rows,
                view.alternation_levels(),
            )
        )
    assert view.metrics.counters["recompute_batches"] == 0
    return work


def test_three_valued_write_costs_levels_times_delta():
    """The alternating chain hands each level the delta of the one
    below: a leaf move on a 300-position game pulls exactly the rows it
    pulls on a 100-position one, at most a constant per level per delta
    row.  Counts, not clocks."""
    large = _leaf_move_work(32)  # 32 x (7 + 2) + 9 = 297 positions
    small = _leaf_move_work(10)
    assert large == small, "rows matched must not depend on resident rows"
    for matched, delta_rows, levels in large:
        assert levels == 10
        assert 0 < matched <= 2 * levels * delta_rows, (matched, levels, delta_rows)
