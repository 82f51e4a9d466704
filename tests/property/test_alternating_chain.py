"""Property tests: the alternating chain *is* the alternating fixpoint.

Valid / well-founded views are maintained by
:class:`~repro.service.dbsp.AlternatingEngine` — one delta circuit per
iterate of ``T_{k+1} = Γ(Γ(T_k))``.  Over random safe non-stratified
programs (negation cycles, positive recursion under them, lower strata,
comparisons) and random insert / delete bursts — EDB facts and facts
put directly into IDB predicates, through ``apply`` and
``apply_stream`` — after **every** batch:

* the true **and** the undefined rows of every predicate equal
  ``run(..., "valid")`` and ``run(..., "wellfounded")``, the grounding
  oracles the view no longer calls;
* the snapshot published by delta equals a full publish of the same
  model: rows, undefined rows, reply lines, pattern probes, fingerprint;
* no ``@prev`` helper predicate is visible anywhere.

Deterministic cases pin that chains grow and shrink with the data.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Comparison, Const, Literal, PredAtom, Program, Rule, Var
from repro.datalog.database import Database
from repro.datalog.engine import run
from repro.datalog.parser import parse_program
from repro.datalog.safety import is_safe_program
from repro.datalog.stratification import is_stratified
from repro.relations import Atom
from repro.service import MaterializedView, ModelSnapshot, prepare_program

X, Y = Var("X"), Var("Y")
NODES = [Atom(f"n{i}") for i in range(4)]

#: Always present: positive recursion (``t``) and the win-move negation
#: cycle (``w``), so every generated program is non-stratified.
CORE = parse_program(
    "t(X, Y) :- move(X, Y).\n"
    "t(X, Z) :- t(X, Y), move(Y, Z).\n"
    "w(X) :- move(X, Y), not w(Y).\n"
).rules

UNARY = ("p", "q", "s", "w")
PREDICATES = ("node", "move", "t") + UNARY


def _literal(predicate, args, positive=True):
    return Literal(PredAtom(predicate, args), positive)


extras = st.lists(
    st.one_of(
        st.builds(
            _literal,
            st.sampled_from(UNARY),
            st.sampled_from([(X,), (Y,)]),
            st.booleans(),
        ),
        st.builds(
            _literal,
            st.sampled_from(["move", "t"]),
            st.sampled_from([(X, Y), (Y, X), (X, X)]),
            st.booleans(),
        ),
        st.builds(
            Comparison,
            st.sampled_from(["!=", "="]),
            st.just(X),
            st.sampled_from([Y, Const(NODES[0])]),
        ),
    ),
    min_size=1,
    max_size=3,
)


def _rule(head, items):
    variables = sorted(
        set().union(head.vars(), *(item.vars() for item in items)),
        key=lambda v: v.name,
    )
    # ``node`` guards bind every variable: safe by construction.
    guards = tuple(_literal("node", (variable,)) for variable in variables)
    return Rule(head, guards + tuple(items))


rules = st.builds(
    _rule,
    st.sampled_from([PredAtom(name, (X,)) for name in ("p", "q", "s")]),
    extras,
)
programs = st.lists(rules, min_size=1, max_size=4).map(
    lambda extra: Program(CORE + tuple(extra))
)

nodes = st.sampled_from(NODES)
facts = st.one_of(
    st.tuples(st.just("move"), st.tuples(nodes, nodes)),
    st.tuples(st.just("node"), st.tuples(nodes)),
    # Facts a client puts straight into a predicate that also has rules.
    st.tuples(st.sampled_from(["w", "p", "s"]), st.tuples(nodes)),
    st.tuples(st.just("t"), st.tuples(nodes, nodes)),
)
batches = st.tuples(
    st.lists(facts, max_size=3), st.lists(facts, max_size=2)
)
#: One step of a schedule: a burst of batches (one batch = ``apply``).
bursts = st.lists(batches, min_size=1, max_size=3)


@contextmanager
def never_grounds():
    """Fail on any ``ground()`` call inside the block: the chain never
    grounds (the ``run()`` oracle outside it does)."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a chain view called ground()")

    with mock.patch("repro.datalog.engine.ground", refuse), mock.patch(
        "repro.datalog.grounding.ground", refuse
    ):
        yield


def _check(view, program, patterns):
    chain = view.engine
    for semantics in ("valid", "wellfounded"):
        oracle = run(program, view.database, semantics=semantics)
        for predicate in PREDICATES:
            assert view.rows(predicate) == oracle.true_rows(predicate), (
                semantics, predicate,
            )
            assert view.undefined_rows(predicate) == oracle.undefined_rows(
                predicate
            ), (semantics, predicate)
    published = view.read_snapshot()
    assert published is not None, "a chain view always publishes a snapshot"
    full = ModelSnapshot.full(chain.model(), chain.undefined_model())
    assert published.fingerprint == full.fingerprint
    for predicate in PREDICATES:
        assert published.rows(predicate) == full.rows(predicate)
        assert published.undefined_rows(predicate) == full.undefined_rows(predicate)
        assert published.lines(predicate)[0] == full.lines(predicate)[0]
    for predicate, args in patterns:
        assert published.probe(predicate, args)[:2] == full.probe(predicate, args)[:2]
    visible = published.predicates() | view.predicates() | set(chain.model())
    assert not any("@" in predicate for predicate in visible), visible


@given(
    programs,
    st.sampled_from(["valid", "wellfounded"]),
    st.lists(bursts, min_size=1, max_size=5),
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from(UNARY), st.tuples(nodes)),
            st.tuples(st.sampled_from(["t", "move"]), st.tuples(nodes, st.none())),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_chain_equals_the_alternating_fixpoint_after_every_batch(
    program, semantics, schedule, patterns
):
    assert is_safe_program(program) and not is_stratified(program)
    database = Database()
    for node in NODES[:3]:
        database.add("node", node)
    database.add("move", NODES[0], NODES[1]).add("move", NODES[1], NODES[0])
    with never_grounds():
        view = MaterializedView(
            prepare_program("random", program), database, semantics=semantics
        )
    assert view.alternation_levels() >= 2
    _check(view, program, patterns)
    for burst in schedule:
        with never_grounds():
            if len(burst) == 1:
                (inserts, deletes), = burst
                summary = view.apply(inserts=inserts, deletes=deletes)
            else:
                summary = view.apply_stream(burst)
        assert summary["mode"] == "incremental"
        _check(view, program, patterns)
    assert view.metrics.counters["recompute_batches"] == 0


WIN = "win(X) :- move(X, Y), not win(Y).\n"


def _win_view(moves):
    database = Database()
    for source, target in moves:
        database.add("move", Atom(source), Atom(target))
    return MaterializedView(
        prepare_program("win", WIN), database, semantics="valid"
    )


def _matches_oracle(view):
    oracle = run(parse_program(WIN), view.database, semantics="valid")
    snapshot = view.read_snapshot()
    assert snapshot.rows("win") == view.rows("win") == oracle.true_rows("win")
    assert (
        snapshot.undefined_rows("win")
        == view.undefined_rows("win")
        == oracle.undefined_rows("win")
    )


def test_a_two_cycle_with_no_exit_comes_and_goes():
    view = _win_view([("a", "b")])
    levels = view.alternation_levels()
    x, y = Atom("x"), Atom("y")
    view.apply(inserts=[("move", (x, y)), ("move", (y, x))])
    assert view.undefined_rows("win") == {(x,), (y,)}
    _matches_oracle(view)
    view.apply(deletes=[("move", (y, x))])
    assert view.undefined_rows("win") == frozenset()
    assert view.alternation_levels() == levels
    _matches_oracle(view)


def test_the_chain_is_as_long_as_the_alternation_is_deep():
    """A single win-chain of n moves needs ~n iterates: the chain's
    length follows the data, shrinks when the win-chain is cut in the
    middle and grows back when it is restored — by delta publishes
    throughout."""
    nodes = [f"c{i:02}" for i in range(21)]
    moves = list(zip(nodes, nodes[1:]))
    short = _win_view(moves[:10])
    view = _win_view(moves)
    whole = view.alternation_levels()
    assert whole > short.alternation_levels() >= 10
    _matches_oracle(view)
    middle = ("move", (Atom(nodes[10]), Atom(nodes[11])))
    view.apply(deletes=[middle])
    cut = view.alternation_levels()
    assert cut < whole
    _matches_oracle(view)
    swaps = view.metrics.counters["snapshot_swaps"]
    view.apply(inserts=[middle])
    assert view.alternation_levels() == whole
    assert view.metrics.counters["snapshot_swaps"] == swaps + 1
    _matches_oracle(view)
    full = ModelSnapshot.full(view.engine.model(), view.engine.undefined_model())
    assert view.read_snapshot().fingerprint == full.fingerprint
