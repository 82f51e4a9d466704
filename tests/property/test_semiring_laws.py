"""Property-based tests: commutative-semiring axioms and homomorphisms.

Every semiring in :data:`repro.semiring.SEMIRINGS` is held to the
commutative-semiring laws — ``⊕``/``⊗`` associative and commutative,
``0`` the ``⊕``-identity and ``⊗``-annihilator, ``1`` the
``⊗``-identity, distributivity — and to the two side conditions negation
gates and "support = the boolean model" need (positivity, no zero
divisors), through a **registry-driven** parametrization: the suite enumerates the live registry, and
:func:`test_every_registered_semiring_has_a_strategy` fails CI the
moment someone registers a new :class:`~repro.semiring.Semiring`
without adding a value strategy here.  That meta-test is the
enforcement half of the extension contract documented in
``docs/SEMIRINGS.md``.

The second half checks the *model-level* homomorphisms on random small
programs: evaluating under a richer semiring and collapsing through a
semiring homomorphism must agree with evaluating under the poorer one
directly (Green–Karvounarakis–Tannen functoriality) — boolean as the
common image of naturals, tropical, and why-provenance, with the
support identical across all of them.

Seed scaling follows the chaos-suite convention: ``REPRO_BENCH_SCALE=
smoke`` shrinks the example budget for quick tripwire runs.
"""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import annotated_model
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.relations import Atom
from repro.semiring import SEMIRINGS, canonical_annotation, get_semiring

#: The chaos/bench scale convention: smoke runs shrink the budget.
_EXAMPLES = 25 if os.environ.get("REPRO_BENCH_SCALE") == "smoke" else 100

_TOKENS = ["e(a, b)", "e(b, c)", "e(a, c)", "f(a)"]

#: name -> hypothesis strategy over that semiring's carrier.  EVERY
#: registered semiring needs an entry — the meta-test below is the CI
#: gate that keeps this dict in lockstep with the registry.
STRATEGIES = {
    "bool": st.booleans(),
    "naturals": st.integers(min_value=0, max_value=7),
    "tropical": st.one_of(
        st.just(math.inf), st.integers(min_value=0, max_value=7)
    ),
    "why": st.frozensets(
        st.frozensets(st.sampled_from(_TOKENS), max_size=3), max_size=3
    ),
}

SEMIRING_NAMES = sorted(SEMIRINGS)


def test_every_registered_semiring_has_a_strategy():
    """The extension gate: registering a semiring without a laws-suite
    strategy must fail CI, not silently skip the axioms."""
    missing = set(SEMIRINGS) - set(STRATEGIES)
    assert not missing, (
        f"semiring(s) {sorted(missing)} are registered but have no "
        "value strategy in tests/property/test_semiring_laws.py — add "
        "one so the commutative-semiring axioms cover them"
    )


def _elements(name):
    return STRATEGIES[name]


@pytest.mark.parametrize("name", SEMIRING_NAMES)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_add_commutative_associative(name, data):
    s = get_semiring(name)
    a, b, c = (data.draw(_elements(name)) for _ in range(3))
    assert s.add(a, b) == s.add(b, a)
    assert s.add(s.add(a, b), c) == s.add(a, s.add(b, c))


@pytest.mark.parametrize("name", SEMIRING_NAMES)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_mul_commutative_associative(name, data):
    s = get_semiring(name)
    a, b, c = (data.draw(_elements(name)) for _ in range(3))
    assert s.mul(a, b) == s.mul(b, a)
    assert s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c))


@pytest.mark.parametrize("name", SEMIRING_NAMES)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_identities_and_annihilator(name, data):
    s = get_semiring(name)
    a = data.draw(_elements(name))
    assert s.add(a, s.zero) == a
    assert s.mul(a, s.one) == a
    assert s.mul(a, s.zero) == s.zero
    assert s.is_zero(s.zero)


@pytest.mark.parametrize("name", SEMIRING_NAMES)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_mul_distributes_over_add(name, data):
    s = get_semiring(name)
    a, b, c = (data.draw(_elements(name)) for _ in range(3))
    assert s.mul(a, s.add(b, c)) == s.add(s.mul(a, b), s.mul(a, c))


@pytest.mark.parametrize("name", SEMIRING_NAMES)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_positive_and_free_of_zero_divisors(name, data):
    """The side conditions that make the *support* of an annotated model
    the boolean model, and a ``not`` gate over a support the negation it
    stands for (docs/SEMIRINGS.md): alternative derivations never cancel
    (positivity, ``a ⊕ b = 0 ⇒ a = b = 0``) and a derivation from
    present rows is present (``a ⊗ b = 0 ⇒ a = 0 or b = 0``).  The
    engines keep their join kernel's facts on exactly that reading."""
    s = get_semiring(name)
    a, b = (data.draw(_elements(name)) for _ in range(2))
    if s.is_zero(s.add(a, b)):
        assert s.is_zero(a) and s.is_zero(b)
    if s.is_zero(s.mul(a, b)):
        assert s.is_zero(a) or s.is_zero(b)


@pytest.mark.parametrize("name", SEMIRING_NAMES)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_idempotency_flag_is_truthful(name, data):
    """``idempotent`` gates fixpoint-convergence reasoning, so a wrong
    flag is a correctness bug, not a doc nit."""
    s = get_semiring(name)
    a = data.draw(_elements(name))
    if s.idempotent:
        assert s.add(a, a) == a


def _one_derivation_settles(s, a) -> bool:
    """The law the maintenance engine reads, at ``a``: a non-zero
    annotation is ``1``, and ``1 ⊕ a = 1``."""
    return (s.is_zero(a) or a == s.one) and s.add(s.one, a) == s.one


#: A carrier value breaking the law, per semiring that does not declare
#: it: a count of two, a cost of three, a fact's own witness.
LAW_BREAKERS = {
    "naturals": 2,
    "tropical": 3,
    "why": get_semiring("why").from_edb("e", (Atom("a"), Atom("b"))),
}


@pytest.mark.parametrize("name", SEMIRING_NAMES)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_the_settle_law_holds_where_declared(name, data):
    """``one_derivation_settles`` picks the engine's re-derive (a probe
    for one surviving derivation), so a wrong flag is a wrong model."""
    s = get_semiring(name)
    if s.one_derivation_settles:
        assert _one_derivation_settles(s, data.draw(_elements(name)))
    else:
        assert not _one_derivation_settles(s, LAW_BREAKERS[name])


def test_the_settle_law_is_bool_alone():
    """It holds for bool and fails for every other shipped semiring —
    tropical included, though it is idempotent and absorptive
    (``min(0, x) = 0``): a probe keeps a row but not its cheapest cost."""
    assert {name for name in SEMIRINGS if get_semiring(name).one_derivation_settles} == {"bool"}
    tropical = get_semiring("tropical")
    assert tropical.idempotent and tropical.add(tropical.one, 3) == tropical.one
    assert set(LAW_BREAKERS) == set(SEMIRINGS) - {"bool"}


@pytest.mark.parametrize("name", SEMIRING_NAMES)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_wire_codec_round_trips(name, data):
    """``parse(format(a)) == a`` wherever parse is supported — WAL
    replay and checkpoint restore re-parse exactly what was formatted,
    so a drifting codec would corrupt recovered fingerprints."""
    s = get_semiring(name)
    a = data.draw(_elements(name))
    text = s.format(a)
    assert isinstance(text, str) and text
    try:
        parsed = s.parse(text)
    except ValueError:
        # Derived-only annotations (why-provenance) refuse parsing by
        # contract; the canonical rendering must still be stable.
        assert canonical_annotation(a) == canonical_annotation(a)
        return
    assert parsed == a, f"{name}: parse(format({a!r})) -> {parsed!r}"
    assert s.format(parsed) == text


def test_canonical_annotation_is_order_insensitive():
    left = frozenset({frozenset({"b", "a"}), frozenset({"c"})})
    right = frozenset({frozenset({"c"}), frozenset({"a", "b"})})
    assert canonical_annotation(left) == canonical_annotation(right)


# ---------------------------------------------------------------------------
# Model-level homomorphisms on random small programs
# ---------------------------------------------------------------------------

#: Non-recursive, so the naturals fixpoint converges on any edge set.
_HOP = parse_program("hop(X, Z) :- edge(X, Y), edge(Y, Z).")
#: Recursive; safe under every *idempotent* semiring (bool, tropical,
#: why) regardless of cycles.
_TC = parse_program(
    "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
)

_NODES = ["a", "b", "c", "d"]
_edges = st.sets(
    st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES)),
    max_size=7,
)


def _database(edges):
    database = Database()
    database.declare("edge")
    for source, target in sorted(edges):
        database.add("edge", Atom(source), Atom(target))
    return database


def _to_bool(name, value):
    """The semiring homomorphism onto ``bool`` (support collapse)."""
    if name == "naturals":
        return value > 0
    if name == "tropical":
        return value < math.inf
    if name == "why":
        return bool(value)
    return value


@settings(max_examples=_EXAMPLES, deadline=None)
@given(edges=_edges)
def test_naturals_collapse_to_boolean_model(edges):
    """h(n) = (n > 0) is a semiring homomorphism ℕ → 𝔹; evaluating
    under ℕ then collapsing must equal evaluating under 𝔹 directly."""
    database = _database(edges)
    rich = annotated_model(_HOP, database, get_semiring("naturals"))
    plain = annotated_model(_HOP, database, get_semiring("bool"))
    collapsed = {
        predicate: {
            row: _to_bool("naturals", weight)
            for row, weight in rows.items()
        }
        for predicate, rows in rich.items()
    }
    assert collapsed == plain


@pytest.mark.parametrize("name", ["tropical", "why"])
@settings(max_examples=_EXAMPLES, deadline=None)
@given(edges=_edges)
def test_idempotent_semirings_collapse_to_boolean_model(name, edges):
    """Same functoriality through the recursive program: cycles are
    fine because both source semirings are idempotent."""
    database = _database(edges)
    rich = annotated_model(_TC, database, get_semiring(name))
    plain = annotated_model(_TC, database, get_semiring("bool"))
    collapsed = {
        predicate: {
            row: _to_bool(name, weight) for row, weight in rows.items()
        }
        for predicate, rows in rich.items()
    }
    assert collapsed == plain


@settings(max_examples=_EXAMPLES, deadline=None)
@given(edges=_edges)
def test_why_witnesses_are_supported_derivations(edges):
    """Every why-provenance witness of a ``tc`` row must re-derive the
    row on its own: evaluating over just the witness facts keeps the
    row in the model (witnesses are *sufficient* supports)."""
    database = _database(edges)
    model = annotated_model(_TC, database, get_semiring("why"))
    checked = 0
    for row, witnesses in model.get("tc", {}).items():
        for witness in sorted(witnesses, key=canonical_annotation)[:2]:
            support = Database()
            support.declare("edge")
            for token in witness:
                inner = token[len("edge(") : -1]
                source, target = [part.strip() for part in inner.split(",")]
                support.add("edge", Atom(source), Atom(target))
            sub = annotated_model(_TC, support, get_semiring("bool"))
            assert row in sub.get("tc", {}), (
                f"witness {sorted(witness)} does not derive tc{row!r}"
            )
            checked += 1
            if checked >= 6:  # bound the per-example cost
                return
