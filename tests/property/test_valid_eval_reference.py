"""Differential property suite: ``valid_evaluate`` vs. the pre-kernel walk.

``valid_evaluate`` compiles the candidate universe to keyed, semi-naive
plans on the join kernel; :mod:`.valid_eval_reference` is the evaluator
it replaced, cartesian products and naive rounds and all.  On random
``algebra=`` systems the two must return the same ``true`` /
``undefined`` / ``candidates`` and raise the same exception with the
same message (``NonTerminating`` by values or by rounds,
``IfpThroughRecursion``) on the same inputs.  ``rounds`` is not
compared: the evaluator counts them per component of the membership
graph, the reference over the whole system.

The program space widens ``test_random_translations.py``'s ``bodies``:
two mutually recursive constants; ``σ`` with ``=`` / ``!=`` under
``AndTest`` / ``OrTest`` / ``NotTest`` over ``x.i.j`` paths that are
undefined on some members (so some are join keys, some residual tests,
some neither); ``MAP`` with ``MkTup`` and partial registry functions;
heterogeneous members — atoms and integers beside pairs in one set;
double and triple subtraction; IFP sub-queries that are pre-evaluated or
refused; an optional bounding ``Universe``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra_to_datalog import translation_registry
from repro.core.evaluator import NonTerminating
from repro.core.expressions import (
    Diff,
    Map,
    Product,
    Select,
    Union,
    call,
    ifp,
    rel,
    setconst,
    union,
)
from repro.core.funcs import (
    AndTest,
    Apply,
    Arg,
    Comp,
    CompareTest,
    Lit,
    MkTup,
    NotTest,
    OrTest,
    compile_scalar,
    compile_test,
)
from repro.core.programs import AlgebraProgram, Definition, Dialect
from repro.core.valid_eval import EvalLimits, IfpThroughRecursion, valid_evaluate
from repro.relations import Atom, Relation, Universe, tup

from .test_random_translations import _combine
from .valid_eval_reference import eval_scalar, eval_test, reference_valid_evaluate

REGISTRY = translation_registry()

a, b, c = Atom("a"), Atom("b"), Atom("c")
ATOMS = (a, b, c)
ENV = {
    "A": Relation.of(a, b, 1, tup(a, b), name="A"),
    "B": Relation.of(tup(a, b), tup(b, c), tup(c, a), c, name="B"),
    "N": Relation.of(0, 1, tup(tup(a, b), tup(b, 2)), name="N"),
}
#: Atoms, a window of naturals, flat pairs: deep images fall outside.
WINDOW = Universe(
    [*ATOMS, *range(4), *(tup(x, y) for x in (*ATOMS, 0, 1) for y in (*ATOMS, 1, 2))]
)
#: Small enough that the reference's |L| · |R| pairs per round stay cheap,
#: large enough that finite programs of this size fit.
LIMITS = EvalLimits(max_rounds=12, max_values=120)

x = Arg()
left_paths = [Comp(x, 1), Comp(Comp(x, 1), 1), Comp(Comp(x, 1), 2)]
right_paths = [Comp(x, 2), Comp(Comp(x, 2), 1), Comp(Comp(x, 2), 2)]
paths = st.sampled_from([x, *left_paths, *right_paths])
scalars = st.one_of(
    paths,
    st.sampled_from([Lit(c), Lit(1)]),
    st.builds(lambda arg: Apply("succ", (arg,)), paths),
)
comparisons = st.one_of(
    # a join key when it sits over a product, in either orientation
    st.builds(CompareTest, st.just("="), st.sampled_from(left_paths), st.sampled_from(right_paths)),
    st.builds(CompareTest, st.just("="), st.sampled_from(right_paths), st.sampled_from(left_paths)),
    st.builds(CompareTest, st.sampled_from(["=", "!=", "<"]), scalars, scalars),
)
tests = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds(AndTest, inner, inner),
        st.builds(AndTest, inner, inner),
        st.builds(OrTest, inner, inner),
        st.builds(NotTest, inner),
    ),
    max_leaves=4,
)
functions = st.one_of(
    paths,
    st.builds(lambda left, right: MkTup((left, right)), paths, paths),
    st.builds(lambda name, arg: Apply(name, (arg,)), st.sampled_from(["succ", "pred"]), paths),
)

leaves = st.sampled_from(
    [rel("A"), rel("B"), rel("N"), call("S"), call("T"), setconst(a), setconst(0, tup(b, c))]
    * 4
    + [
        ifp("x", union(rel("B"), Map(rel("x"), Comp(x, 2)))),
        ifp("x", union(rel("x"), call("T"))),
    ]
)


def _widen(children):
    return st.one_of(
        _combine(children),
        st.builds(Select, children, tests),
        st.builds(lambda l, r, t: Select(Product(l, r), t), children, children, tests),
        st.builds(lambda l, r, t: Select(Product(l, r), t), children, children, tests),
        st.builds(Map, children, functions),
        st.builds(Map, children, functions),
        st.builds(Diff, children, st.sampled_from([call("S"), call("T")])),
        st.builds(lambda e, f: Diff(e, Diff(e, f)), children, children),
        st.builds(lambda e, f, g: Diff(e, Diff(f, Diff(g, e))), children, children, children),
    )


def _nested(depth):
    return leaves if depth == 0 else st.one_of(leaves, _widen(_nested(depth - 1)))


bodies = _widen(_nested(2))


def _outcome(evaluate, program, universe):
    try:
        result = evaluate(
            program, ENV, registry=REGISTRY, limits=LIMITS, universe=universe
        )
    except (NonTerminating, IfpThroughRecursion) as error:
        return type(error).__name__, str(error)
    return result.true, result.undefined, result.candidates


def _agree(s_body, t_body, universe):
    program = AlgebraProgram.of(
        Definition("S", (), s_body),
        Definition("T", (), t_body),
        database_relations=["A", "B", "N"],
        dialect=Dialect.IFP_ALGEBRA_EQ,
    )
    compiled = _outcome(valid_evaluate, program, universe)
    reference = _outcome(reference_valid_evaluate, program, universe)
    assert compiled == reference, program.pretty()


windows = st.sampled_from([None, WINDOW])

#: Every member the random systems draw from: atoms, naturals, flat
#: pairs and ``N``'s nested pair, so each ``x.i.j`` path is undefined on
#: some of them.
MEMBERS = [*WINDOW, *(member for relation in ENV.values() for member in relation.items)]


@given(tests, st.one_of(scalars, functions))
@settings(max_examples=300, deadline=None)
def test_compiled_tests_and_scalars_match_the_walks(test, function):
    """The closures ``σ`` and ``MAP`` run are the walks they replaced, on
    every member; ``¬`` included, over paths undefined on some."""
    compiled = compile_test(test, REGISTRY)
    negated = compile_test(NotTest(test), REGISTRY)
    scalar = compile_scalar(function, REGISTRY)
    for member in MEMBERS:
        assert compiled(member) == eval_test(test, member, REGISTRY), member
        assert negated(member) == eval_test(NotTest(test), member, REGISTRY), member
        assert scalar(member) == eval_scalar(function, member, REGISTRY), member


@given(bodies, bodies, windows)
@settings(max_examples=300, deadline=None)
def test_compiled_evaluator_matches_the_reference(s_body, t_body, universe):
    _agree(s_body, t_body, universe)


sides = _nested(1)


@given(sides, sides, sides, tests, functions, bodies, windows)
@settings(max_examples=200, deadline=None)
def test_recursion_through_a_join_matches_the_reference(
    base, left, right, test, function, t_body, universe
):
    """The transitive-closure shape ``S = base ∪ MAP[f](σ[test](L × R))``
    with arbitrary sides (often ``S`` or ``T`` themselves), beside a
    second equation that may subtract it."""
    _agree(
        Union(base, Map(Select(Product(left, right), test), function)),
        t_body,
        universe,
    )


@given(st.integers(1, 9), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_limits_trip_on_the_same_round_and_total(window, max_rounds, max_values):
    """``S = {0} ∪ MAP[succ](S)`` inside ``Universe(range(window))`` needs
    ``window + 1`` naive rounds and ``window`` values: every
    (``max_rounds``, ``max_values``) either side of those raises the same
    error from both evaluators, or none."""
    program = AlgebraProgram.of(
        Definition("S", (), Union(setconst(0), Map(call("S"), Apply("succ", (x,))))),
        dialect=Dialect.ALGEBRA_EQ,
    )

    def outcome(evaluate):
        try:
            result = evaluate(
                program,
                {},
                registry=REGISTRY,
                limits=EvalLimits(max_rounds=max_rounds, max_values=max_values),
                universe=Universe(range(window)),
            )
        except NonTerminating as error:
            return str(error)
        return result.candidates

    assert outcome(valid_evaluate) == outcome(reference_valid_evaluate)
