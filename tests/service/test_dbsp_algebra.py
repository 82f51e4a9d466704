"""Property suite for the delta-stream algebra behind the DBSP engine.

Three layers, bottom up:

* **Z-sets are an abelian group** under ``+`` with pointwise negation,
  and the derived operators (``distinct``, ``pos``/``neg``, ``scale``)
  satisfy the identities the circuit relies on — checked on seeded
  random Z-sets with positive *and* negative weights;
* **integrate and differentiate are inverse**: ``D ∘ I = id`` on
  streams and ``I ∘ D = id`` on value sequences, and the fused
  :class:`IncrementalDistinct` node agrees step-by-step with the
  unfused ``distinct ∘ I`` it replaces;
* **the whole circuit equals from-scratch evaluation**: random update
  schedules (per-batch and multi-batch bursts) driven through
  :class:`DBSPEngine` over a recursive program with negation always
  land on the model :func:`repro.datalog.engine.run` computes from the
  final extensional state — and a burst of N batches lands on the same
  model as the same N batches applied one at a time.
"""

import random

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import run
from repro.datalog.parser import parse_program
from repro.relations import Atom
from repro.service import prepare_program
from tests.property.test_alternating_chain import never_grounds
from repro.service.dbsp import (
    DBSPEngine,
    IncrementalDistinct,
    NegativeWeightError,
    ZSet,
    differentiate,
    integrate,
    running_integral,
)

NODES = [Atom(f"n{i}") for i in range(5)]

PROGRAM = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
top(X) :- node(X), not under(X).
under(Y) :- tc(X, Y).
"""

_PARSED = parse_program(PROGRAM)


def _random_zset(rng, rows=None, span=3):
    rows = rows if rows is not None else [(x, y) for x in NODES for y in NODES]
    zset = ZSet()
    for row in rng.sample(rows, rng.randint(0, min(8, len(rows)))):
        zset.add(row, rng.randint(-span, span))
    return zset


# ---------------------------------------------------------------------------
# Z-set group axioms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_zset_abelian_group(seed):
    rng = random.Random(f"zset-group-{seed}")
    a, b, c = (_random_zset(rng) for _ in range(3))
    zero = ZSet()
    assert (a + b) + c == a + (b + c), "associativity"
    assert a + b == b + a, "commutativity"
    assert a + zero == a and zero + a == a, "identity"
    assert a + (-a) == zero, "inverse"
    assert a - b == a + (-b), "subtraction is addition of the inverse"


@pytest.mark.parametrize("seed", range(10))
def test_zset_zero_free_invariant(seed):
    """No materialised Z-set ever stores a zero weight."""
    rng = random.Random(f"zset-zero-{seed}")
    a, b = _random_zset(rng), _random_zset(rng)
    for zset in (a + b, a - b, -a, a.scale(0), a.scale(2)):
        assert all(weight != 0 for _, weight in zset.items())
    cancelling = a + (-a)
    assert len(cancelling) == 0 and not cancelling


@pytest.mark.parametrize("seed", range(10))
def test_zset_derived_operators(seed):
    rng = random.Random(f"zset-ops-{seed}")
    a = _random_zset(rng)
    # distinct: indicator of the positive support, idempotent.
    d = a.distinct()
    assert set(d.rows()) == {row for row, w in a.items() if w > 0}
    assert all(w == 1 for _, w in d.items())
    assert d.distinct() == d
    assert d.is_set()
    # pos/neg decomposition partitions the weights by sign.
    assert a.pos() + a.neg() == a
    assert all(w > 0 for _, w in a.pos().items())
    assert all(w < 0 for _, w in a.neg().items())
    # scale is repeated addition.
    assert a.scale(3) == a + a + a
    assert a.scale(-1) == -a


# ---------------------------------------------------------------------------
# integrate / differentiate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_differentiate_integrate_inverse(seed):
    rng = random.Random(f"circuit-{seed}")
    stream = [_random_zset(rng) for _ in range(rng.randint(0, 8))]
    # D ∘ I = id on streams (prefix sums then consecutive differences).
    assert differentiate(running_integral(stream)) == stream
    # I ∘ D = id on value sequences (the integral starts at zero).
    values = running_integral(stream)
    assert running_integral(differentiate(values)) == values
    # The one-shot integral is the last prefix sum.
    total = integrate(stream)
    assert total == (values[-1] if values else ZSet())


@pytest.mark.parametrize("seed", range(10))
def test_incremental_distinct_agrees_with_unfused(seed):
    """The stateful node tracks ``distinct ∘ I`` delta-for-delta."""
    rng = random.Random(f"distinct-{seed}")
    rows = [(node,) for node in NODES]
    node = IncrementalDistinct()
    integral = ZSet()
    out_stream = []
    for _ in range(20):
        # Keep every integrated weight non-negative: deltas only retract
        # up to the current multiplicity.
        delta = ZSet()
        for row in rng.sample(rows, rng.randint(0, len(rows))):
            low = -integral.get(row)
            delta.add(row, rng.randint(low, 2))
        integral = integral + delta
        out_stream.append(node.step(delta))
        assert node.integral() == integral
        assert node.output() == integral.distinct()
    # The emitted deltas integrate to the distinct of the integral.
    assert integrate(out_stream) == integral.distinct()


def test_incremental_distinct_rejects_negative_totals():
    node = IncrementalDistinct()
    node.step(ZSet.from_rows([("a",)]))
    with pytest.raises(NegativeWeightError):
        node.step(ZSet({("a",): -2}))


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
