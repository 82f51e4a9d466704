"""Property-based tests: translation agreement on random algebra programs.

Random ``algebra=`` programs (one recursive constant over two database
relations) are evaluated by the native three-valued evaluator and by the
Proposition 5.4 translation; the answers must coincide — an executable
reading of Theorem 6.2 over a generated program space, not just the
hand-picked corpus.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.algebra_to_datalog import translation_registry
from repro.core.equivalence import (
    algebra_answers_native,
    algebra_answers_translated,
)
from repro.core.expressions import (
    Diff,
    Product,
    Select,
    Union,
    call,
    map_,
    project,
    rel,
    setconst,
)
from repro.core.funcs import Arg, Comp, CompareTest, Lit
from repro.core.positivity import is_monotone_semantically
from repro.core.evaluator import NonTerminating
from repro.core.programs import AlgebraProgram, Definition, Dialect
from repro.core.valid_eval import EvalLimits, valid_evaluate
from repro.relations import Atom, Relation
from repro.robustness import BudgetExceeded

REGISTRY = translation_registry()

a, b, c = Atom("a"), Atom("b"), Atom("c")
ENV = {
    "A": Relation.of(a, b, name="A"),
    "B": Relation.of(b, c, name="B"),
}

leaves = st.sampled_from(
    [rel("A"), rel("B"), call("S"), setconst(a), setconst(b, c)]
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: Union(*p)),
        st.tuples(children, children).map(lambda p: Diff(*p)),
        st.tuples(children, children).map(lambda p: Product(*p)),
        children.map(lambda e: Select(e, CompareTest("!=", Arg(), Lit(c)))),
        children.map(lambda e: project(Product(e, setconst(a)), 1)),
    )


bodies = st.recursive(leaves, _combine, max_leaves=6)


# Uniform evaluation bounds for generated programs, tighter than the
# defaults (500 rounds / 200k values / 1M ground atoms).  A bare product
# over the recursive constant squares per round — ``S = A ∪ (S × S)``:
# 2, 6, 38, 1,446, then 2.09M pairs.  Since PR 24 the compiled candidate
# pass hands an equation's rule its delta in slices and counts as it
# goes, so that body trips ``max_values`` one slice into the last round
# (≈ 1 s where the old walk built every pair first).  What did not go
# away: the same product under another ``×`` or a ``MAP`` is
# materialised node by node before any equation sees it — both
# evaluators build all of it, the kernel at a higher price per pair
# (a deep ``Tup`` hash per index it enters): 16–20 s against the walk's
# 9–11 s at these bounds over a one-atom ``A``, minutes and gigabytes at
# the defaults.  Everything the properties are meant to exercise fits
# comfortably inside these; past them the example is skipped.
LIMITS = EvalLimits(max_rounds=200, max_values=50_000)
MAX_ATOMS = 50_000


def _native_or_skip(program):
    """Native answers, skipping programs that define infinite sets
    (products/maps applied to the recursive constant grow unboundedly —
    the evaluator correctly raises on those without a bounding window)."""
    try:
        return algebra_answers_native(
            program, ENV, registry=REGISTRY, limits=LIMITS
        )
    except NonTerminating:
        assume(False)


def _translated_or_skip(program, **kwargs):
    """Translated-route answers under the same bounds as the native
    route; a body too large to ground or evaluate is skipped, not
    ground to death."""
    try:
        return algebra_answers_translated(
            program, ENV, registry=REGISTRY, max_atoms=MAX_ATOMS, **kwargs
        )
    except (NonTerminating, BudgetExceeded):
        assume(False)


def _program(body):
    return AlgebraProgram.of(
        Definition("S", (), body),
        database_relations=["A", "B"],
        dialect=Dialect.ALGEBRA_EQ,
    )


@given(bodies)
@settings(max_examples=60, deadline=None)
def test_native_equals_translated(body):
    program = _program(body)
    native = _native_or_skip(program)
    translated = _translated_or_skip(program)
    assert native == translated, repr(body)


@given(bodies)
@settings(max_examples=60, deadline=None)
def test_wellfounded_route_agrees_too(body):
    """Section 7: the results adjust to the well-founded semantics."""
    program = _program(body)
    native = _native_or_skip(program)
    wfs = _translated_or_skip(program, semantics="wellfounded")
    assert native == wfs, repr(body)


@given(bodies)
@settings(max_examples=60, deadline=None)
def test_syntactically_positive_bodies_are_total(body):
    """Proposition 3.4 on random bodies, with the *syntactic* positivity
    hypothesis: if S never occurs in a subtracted sub-expression of the
    body, the valid model of S = body(S) is total.

    Semantic monotonicity (Def 3.3) is NOT enough: hypothesis found
    ``S = σ_{x≠c}(S ∪ (A − S))`` — semantically monotone (it always
    contains σ(A)), yet its valid model leaves A's members undefined,
    because the §2.2 computation is proof-theoretic: the derivation of
    ``a ∈ A − S`` genuinely needs ``a ∉ S`` to be certainly false, no
    matter that the *value* of the expression doesn't.  (Double
    subtraction, by contrast, cancels at the occurrence level and stays
    total.)  See EXPERIMENTS.md, reproduction note 5.
    """
    from repro.core.expressions import substitute
    from repro.core.positivity import is_positive_in

    as_param = _call_to_param(body)
    if not is_positive_in(as_param, "x"):
        assume(False)
    try:
        result = valid_evaluate(
            _program(body), ENV, registry=REGISTRY, limits=LIMITS
        )
    except NonTerminating:
        # Programs like S = A ∪ (A × S) define genuinely infinite
        # sets; the evaluator correctly refuses them unbounded.
        assume(False)
    assert result.is_well_defined(), repr(body)


def _call_to_param(expr):
    from repro.core.expressions import (
        Call,
        Diff,
        Map,
        Product,
        RelVar,
        Select,
        Union,
    )

    if isinstance(expr, Call) and expr.name == "S":
        return RelVar("x")
    if isinstance(expr, Union):
        return Union(_call_to_param(expr.left), _call_to_param(expr.right))
    if isinstance(expr, Diff):
        return Diff(_call_to_param(expr.left), _call_to_param(expr.right))
    if isinstance(expr, Product):
        return Product(_call_to_param(expr.left), _call_to_param(expr.right))
    if isinstance(expr, Select):
        return Select(_call_to_param(expr.child), expr.test)
    if isinstance(expr, Map):
        return Map(_call_to_param(expr.child), expr.func)
    return expr


def _is_pair(value):
    from repro.relations import Tup

    return isinstance(value, Tup)
