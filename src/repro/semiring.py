"""Commutative semirings for K-relation annotations.

The paper's algebras compute *set* (boolean) semantics, but every
operation they use — join, union, projection, recursion — generalizes
verbatim to relations annotated over a commutative semiring
``(K, ⊕, ⊗, 0, 1)`` (Green–Karvounarakis–Tannen K-relations; see
PAPERS.md, *Codd's Theorem for Databases over Semirings*).  A joined
row multiplies its inputs' annotations, alternative derivations add,
and an absent row carries ``0``.  This module is the pluggable
annotation algebra the datalog engines and the service tier thread
through: each :class:`Semiring` packages the carrier operations plus
the wire encoding the line protocol and WAL use.

Shipped semirings:

``bool``
    Today's set semantics.  The default, and the one semiring where a
    single surviving derivation settles a row
    (:attr:`Semiring.one_derivation_settles`): boolean views keep no
    annotation, the support is the model.
``naturals``
    Bag semantics — the annotation of a derived row counts its
    derivation trees.  **Convergence condition:** recursive programs only have a
    finite annotation when the data is derivation-finite (e.g. acyclic
    graphs under transitive closure); a cyclic derivation space makes
    the fixpoint diverge and evaluation raises
    :class:`~repro.robustness.BudgetExceeded` at the round cap.
``tropical``
    Min-plus: ``⊕ = min``, ``⊗ = +``, ``0 = +∞``, ``1 = 0``.  Weighted
    recursion (shortest derivation cost).  **Convergence condition:**
    with non-negative weights the per-row minimum is reached after at
    most ``|rows|`` rounds (Bellman–Ford); the wire parser therefore
    rejects negative weights.
``why``
    Why-provenance: each annotation is a set of *witnesses*, each
    witness the set of base facts jointly sufficient for the
    derivation.  ``⊕ = ∪``, ``⊗ = pairwise ∪``, ``0 = ∅``,
    ``1 = {∅}``.  The carrier over a finite database is finite, so
    recursive fixpoints always converge (unlike full provenance
    polynomials ℕ[X]).  Served to clients through the ``explain``
    lines of the ``query`` verb.

Annotations on EDB inserts are *absolute*, not increments: re-applying
``+view edge(a, b) @ 2`` is idempotent (it sets the multiplicity to 2).
This is load-bearing — WAL replay after a crash may re-apply a suffix
of already-checkpointed updates, and replay must converge.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Optional, Tuple

__all__ = [
    "Semiring",
    "BooleanSemiring",
    "NaturalsSemiring",
    "TropicalSemiring",
    "WhyProvenanceSemiring",
    "SEMIRINGS",
    "get_semiring",
    "register_semiring",
    "canonical_annotation",
]


class Semiring:
    """A commutative semiring ``(K, ⊕, ⊗, 0, 1)`` plus wire codecs.

    Subclasses define the carrier operations; the laws the property
    suite (``tests/property/test_semiring_laws.py``) holds every
    implementation to are: ``⊕`` and ``⊗`` associative and commutative,
    ``0`` the ``⊕``-identity and ``⊗``-annihilator, ``1`` the
    ``⊗``-identity, ``⊗`` distributing over ``⊕`` — and, because the
    engines join and gate on the *support* (the non-zero rows),
    positivity (``a ⊕ b = 0`` only when both are) and no zero divisors.
    """

    #: Registry key and the value of the ``--semiring`` flags.
    name: str = "abstract"
    #: True when ``a ⊕ a = a`` — idempotent semirings reach their
    #: recursive fixpoint regardless of derivation multiplicity.
    idempotent: bool = False
    #: True when every non-zero annotation is ``1`` and ``1 ⊕ x = 1``:
    #: one surviving derivation settles a row, so the maintenance engine
    #: re-derives by probing for one.  (``tropical`` is idempotent and
    #: absorptive, but a probe does not find the cheapest derivation.)
    one_derivation_settles: bool = False

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        """``a ⊕ b`` — combine alternative derivations."""
        raise NotImplementedError

    def mul(self, a, b):
        """``a ⊗ b`` — combine joint (conjunctive) uses."""
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        """Is ``a`` the absent-row annotation?  (Maps are kept
        zero-free: a stored row always has a non-zero annotation.)"""
        return a == self.zero

    def from_edb(self, predicate: str, row: Tuple) -> object:
        """The default annotation of a base fact inserted without an
        explicit one.  ``1`` for most semirings; why-provenance mints
        the singleton witness naming the fact itself."""
        return self.one

    # -- wire encoding -------------------------------------------------------

    def parse(self, text: str):
        """Decode a client-supplied ``@ <annotation>`` suffix.

        Raises :class:`ValueError` on malformed input or when the
        semiring's annotations are derived, not supplied (``why``).
        """
        raise NotImplementedError

    def format(self, a) -> str:
        """Canonical wire text of an annotation (``explain`` lines,
        WAL records, checkpoint documents)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Semiring {self.name}>"


class BooleanSemiring(Semiring):
    """Set semantics: ``({False, True}, ∨, ∧, False, True)``."""

    name = "bool"
    idempotent = True
    one_derivation_settles = True

    @property
    def zero(self):
        return False

    @property
    def one(self):
        return True

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def parse(self, text: str):
        text = text.strip().lower()
        if text in ("true", "1"):
            return True
        if text in ("false", "0"):
            return False
        raise ValueError(f"not a boolean annotation: {text!r}")

    def format(self, a) -> str:
        return "true" if a else "false"


class NaturalsSemiring(Semiring):
    """Bag semantics: ``(ℕ, +, ×, 0, 1)`` — derivation counting."""

    name = "naturals"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def parse(self, text: str):
        try:
            value = int(text.strip())
        except ValueError:
            raise ValueError(f"not a natural-number annotation: {text!r}")
        if value < 0:
            raise ValueError(f"natural annotations must be >= 0: {text!r}")
        return value

    def format(self, a) -> str:
        return str(int(a))


class TropicalSemiring(Semiring):
    """Min-plus: ``(ℝ≥0 ∪ {∞}, min, +, ∞, 0)`` — shortest derivation."""

    name = "tropical"
    idempotent = True

    @property
    def zero(self):
        return math.inf

    @property
    def one(self):
        return 0

    def add(self, a, b):
        return a if a <= b else b

    def mul(self, a, b):
        return a + b

    def parse(self, text: str):
        text = text.strip()
        if text in ("inf", "infinity"):
            return math.inf
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"not a tropical annotation: {text!r}")
        if value < 0:
            # The documented convergence condition: non-negative weights
            # make the recursive min-plus fixpoint Bellman-Ford-finite.
            raise ValueError(
                f"tropical annotations must be >= 0 (convergence): {text!r}"
            )
        if isinstance(value, float) and value.is_integer():
            # Normalize integral floats so parse(format(a)) is a fixed
            # point — "3.0" and "3" must store the same carrier value,
            # or WAL replay would restore a fingerprint-divergent
            # database.
            value = int(value)
        return value

    def format(self, a) -> str:
        if a == math.inf:
            return "inf"
        if isinstance(a, float) and a.is_integer():
            return str(int(a))
        return str(a)


#: A why-provenance annotation: a set of witnesses, each witness a set
#: of base-fact tokens (the fact's ``format_fact`` text).
Witnesses = FrozenSet[FrozenSet[str]]


class WhyProvenanceSemiring(Semiring):
    """Why-provenance: sets of witness sets of base facts.

    ``a ⊕ b = a ∪ b`` (either derivation works); ``a ⊗ b`` unions each
    pair of witnesses (a joint derivation needs both supports).  The
    absorbing ``0 = ∅`` (no way to derive) and ``1 = {∅}`` (derivable
    from nothing).  Finite carrier over a finite EDB ⇒ recursive
    fixpoints converge.
    """

    name = "why"
    idempotent = True

    @property
    def zero(self) -> Witnesses:
        return frozenset()

    @property
    def one(self) -> Witnesses:
        return frozenset({frozenset()})

    def add(self, a: Witnesses, b: Witnesses) -> Witnesses:
        return a | b

    def mul(self, a: Witnesses, b: Witnesses) -> Witnesses:
        return frozenset(x | y for x in a for y in b)

    def from_edb(self, predicate: str, row: Tuple) -> Witnesses:
        from .datalog.facts import format_fact

        return frozenset({frozenset({format_fact(predicate, row)})})

    def parse(self, text: str):
        raise ValueError(
            "why-provenance annotations are derived from the base facts, "
            "not supplied on inserts"
        )

    def format(self, a: Witnesses) -> str:
        witnesses = sorted("{" + ", ".join(sorted(w)) + "}" for w in a)
        return "{" + ", ".join(witnesses) + "}"


#: Name → instance registry backing the ``--semiring`` flags.  Third
#: parties extend it with :func:`register_semiring`; the laws property
#: suite parametrizes over this dict, so every registered semiring is
#: automatically held to the axioms (and CI fails when a new
#: implementation lacks a laws-suite strategy registration).
SEMIRINGS: Dict[str, Semiring] = {}


def register_semiring(semiring: Semiring) -> Semiring:
    """Add a semiring to the registry (returns it, decorator-style)."""
    if not semiring.name or semiring.name == "abstract":
        raise ValueError("semiring must define a concrete name")
    SEMIRINGS[semiring.name] = semiring
    return semiring


register_semiring(BooleanSemiring())
register_semiring(NaturalsSemiring())
register_semiring(TropicalSemiring())
register_semiring(WhyProvenanceSemiring())


def get_semiring(name: str) -> Semiring:
    """Look up a registered semiring by name (``ValueError`` on miss)."""
    try:
        return SEMIRINGS[name]
    except KeyError:
        known = ", ".join(sorted(SEMIRINGS))
        raise ValueError(f"unknown semiring {name!r} (known: {known})")


def canonical_annotation(value) -> str:
    """A deterministic text form of any carrier value, for content
    hashing (``Database.fingerprint``).  ``repr`` is unstable for
    frozensets (iteration order varies per process), so set-like
    carriers are rendered sorted and recursively."""
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(canonical_annotation(v) for v in value)) + "}"
    return repr(value)
