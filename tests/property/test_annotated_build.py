"""An annotated view's build against the from-scratch oracle.

:class:`~repro.service.AnnotatedEngine` builds its model by its own
maintenance pass from ∅ — every EDB fact staged as one insert, plus one
lead-less firing of each rule without a positive literal — while
:func:`~repro.datalog.annotated_model` runs stratum-wise Jacobi rounds.
On random safe stratified programs (``program_strategies``: comparisons,
negation, the partial function ``pred``, database facts on an IDB
predicate, rules with no positive literal at all) the two must give the
same annotations under every annotated semiring, or both diverge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Database, annotated_model
from repro.relations.universe import standard_registry
from repro.robustness import BudgetExceeded
from repro.semiring import SEMIRINGS, get_semiring
from repro.service import AnnotatedEngine, prepare_program

from .program_strategies import programs, stores

REGISTRY = standard_registry()
#: Rounds before ``naturals`` over a cyclic derivation space gives up —
#: on both sides, so a divergence is an agreement, not a failure.  Kept
#: low: ``q(X) :- q(X), q(X)`` squares a bag count every round.
ROUNDS = 16


def _nonzero(maps):
    return {predicate: rows for predicate, rows in maps.items() if rows}


@settings(max_examples=150, deadline=None)
@given(
    program=programs(),
    store=stores,
    name=st.sampled_from(sorted(set(SEMIRINGS) - {"bool"})),
)
def test_a_build_is_the_oracle_model(program, store, name):
    try:
        prepared = prepare_program("r", program)
    except ValueError:  # a predicate drawn with two arities
        return
    if not prepared.stratified:
        return
    database = Database()
    for predicate, rows in store.items():
        for row in rows:
            database.add(predicate, *row)
    for predicate, row in prepared.seed_facts:
        database.add(predicate, *row)
    semiring = get_semiring(name)
    try:
        oracle = annotated_model(
            prepared.program, database, semiring, registry=REGISTRY, max_rounds=ROUNDS
        )
    except BudgetExceeded:
        oracle = None
    try:
        engine = AnnotatedEngine(
            prepared, database, registry=REGISTRY, max_rounds=ROUNDS, semiring=semiring
        )
    except BudgetExceeded:
        assert oracle is None
        return
    assert oracle is not None
    assert _nonzero(engine.maps) == _nonzero(oracle)
    assert {
        predicate: rows for predicate, rows in engine.state.facts.items() if rows
    } == {predicate: set(rows) for predicate, rows in _nonzero(oracle).items()}
