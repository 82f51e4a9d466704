"""Property-based tests on random ground programs: invariants relating
the semantics engines.

These are the load-bearing invariants of the paper's semantic landscape:

* the valid computation (§2.2) coincides with the alternating fixpoint;
* both models, solved one component of the atom graph at a time, equal
  the whole-program loops the paper and [24] state;
* WFS truths sit inside every stable model, WFS falsities outside all;
* on locally stratified programs the valid model is total;
* the inflationary fixpoint contains the WFS truths (negation-as-not-yet
  derives at least as much as negation-as-never);
* all engines agree on negation-free programs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.grounding import GroundProgram, GroundRule, _AtomTable
from repro.datalog.semantics import (
    alternating_fixpoint_trace,
    inflationary_fixpoint,
    least_model_naive,
    least_model_with_oracle,
    minimal_model,
    stable_models,
    valid_computation_trace,
    valid_model,
    well_founded_model,
)
from repro.datalog.stratification import is_locally_stratified

ATOMS = 6


def _make_program(rule_specs):
    """Build a GroundProgram over atoms p0..p{ATOMS-1} from
    (head, pos-tuple, neg-tuple) index triples."""
    table = _AtomTable()
    for index in range(ATOMS):
        table.intern((f"p{index}", ()))
    rules = [GroundRule(head, tuple(pos), tuple(neg)) for head, pos, neg in rule_specs]
    return GroundProgram(
        rules=rules, complete=True, idb_predicates=frozenset(), _table=table
    )


atom_indexes = st.integers(min_value=0, max_value=ATOMS - 1)
rule_specs = st.tuples(
    atom_indexes,
    st.frozensets(atom_indexes, max_size=2).map(tuple),
    st.frozensets(atom_indexes, max_size=2).map(tuple),
)
programs = st.lists(rule_specs, min_size=1, max_size=10).map(_make_program)
positive_rule_specs = st.tuples(
    atom_indexes,
    st.frozensets(atom_indexes, max_size=2).map(tuple),
    st.just(()),
)
positive_programs = st.lists(positive_rule_specs, min_size=1, max_size=10).map(
    _make_program
)


def _ring(negated):
    """``p{i} :- [not] p{i+1}`` around all the atoms, a sign per link."""
    rules = []
    for index, neg in enumerate(negated):
        link = ((index + 1) % ATOMS,)
        rules.append((index, () if neg else link, link if neg else ()))
    return rules


#: Random rules plus a ring ``p0 ← p1 ← … ← p5 ← p0`` of random signs:
#: every atom in one component, the alternation run on all of them.
ring_programs = st.builds(
    lambda negated, extra: _make_program(_ring(negated) + extra),
    st.lists(st.booleans(), min_size=ATOMS, max_size=ATOMS),
    st.lists(rule_specs, max_size=6),
)


@given(st.one_of(programs, ring_programs))
@settings(max_examples=300, deadline=None)
def test_component_solvers_equal_the_whole_program_loops(program):
    """``well_founded_model`` and ``valid_model`` solve per component;
    ``alternating_fixpoint_trace`` and ``valid_computation_trace`` run
    the loop over the whole program.  Same model, cycles included."""
    true, over = alternating_fixpoint_trace(program)[-1]
    wfs = well_founded_model(program)
    assert (wfs.true, wfs.false) == (true, frozenset(range(program.atom_count)) - over)
    final = valid_computation_trace(program)[-1]
    valid = valid_model(program)
    assert (valid.true, valid.false) == (final.true, final.false)


@given(programs)
@settings(max_examples=150, deadline=None)
def test_valid_equals_wellfounded(program):
    assert valid_model(program).agrees_with(well_founded_model(program))


@given(programs)
@settings(max_examples=150, deadline=None)
def test_wfs_bounds_every_stable_model(program):
    wfs = well_founded_model(program)
    for model in stable_models(program, max_choice_atoms=ATOMS):
        assert wfs.true <= model.true
        assert not (wfs.false & model.true)


@given(programs)
@settings(max_examples=150, deadline=None)
def test_total_wfs_is_the_unique_stable_model(program):
    wfs = well_founded_model(program)
    if wfs.is_total_for(program):
        models = stable_models(program, max_choice_atoms=ATOMS)
        assert len(models) == 1
        assert models[0].true == wfs.true


@given(programs)
@settings(max_examples=150, deadline=None)
def test_locally_stratified_implies_total_valid(program):
    if is_locally_stratified(program):
        assert valid_model(program).is_total_for(program)


@given(programs)
@settings(max_examples=150, deadline=None)
def test_truths_within_positive_projection(program):
    """The invariant the grounder's relevance pruning rests on: every
    semantics' truths sit inside the least model of the positive
    projection (dropping negative literals only loosens rules).

    Note: WFS truths are NOT in general a subset of the inflationary
    fixpoint — e.g. {p0. ; p1 :- not p0. ; p2 :- p0, not p1.} derives p1
    inflationarily in round one (p0 "not yet" derived), which then blocks
    p2, while the WFS makes p2 true.  Hypothesis found that
    counterexample to an earlier, wrong version of this property.
    """
    projection_rules = [
        GroundRule(rule.head, rule.pos, ()) for rule in program.rules
    ]
    overapprox = least_model_with_oracle(projection_rules, lambda _a: True)
    assert well_founded_model(program).true <= overapprox
    assert inflationary_fixpoint(program) <= overapprox
    for model in stable_models(program, max_choice_atoms=ATOMS):
        assert model.true <= overapprox


@given(positive_programs)
@settings(max_examples=100, deadline=None)
def test_negation_free_engines_agree(program):
    model = minimal_model(program)
    assert inflationary_fixpoint(program) == model
    wfs = well_founded_model(program)
    assert wfs.true == model
    assert wfs.is_total_for(program)
    stables = stable_models(program)
    assert len(stables) == 1 and stables[0].true == model


@given(programs, st.frozensets(atom_indexes, max_size=ATOMS))
@settings(max_examples=150, deadline=None)
def test_naive_and_counting_least_models_agree(program, admitted):
    oracle = lambda atom: atom in admitted  # noqa: E731
    assert least_model_naive(program.rules, oracle) == least_model_with_oracle(
        program.rules, oracle
    )


@given(programs)
@settings(max_examples=100, deadline=None)
def test_stable_models_pass_gl_check(program):
    from repro.datalog.semantics import is_stable_model

    for model in stable_models(program, max_choice_atoms=ATOMS):
        assert is_stable_model(program, model.true)
