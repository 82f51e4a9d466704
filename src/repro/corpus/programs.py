"""The shared corpus of deductive and algebraic programs.

Every test suite and benchmark harness draws from this corpus, so the
equivalence theorems are exercised on the same programs everywhere.
Each entry records whether the program is stratified and which predicates
carry the interesting answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from ..core.programs import AlgebraProgram, Dialect
from ..datalog.ast import Program
from ..datalog.parser import parse_program
from ..lang.parser import parse_algebra_program

__all__ = [
    "DeductiveCase",
    "AlgebraCase",
    "DEDUCTIVE_CORPUS",
    "ALGEBRA_CORPUS",
    "deductive_case",
    "algebra_case",
]


@dataclass(frozen=True)
class DeductiveCase:
    """A named deductive program with metadata."""

    name: str
    source: str
    predicates: Tuple[str, ...]
    stratified: bool
    uses_functions: bool = False

    @cached_property
    def program(self) -> Program:
        """Parse the source into a program (parsed once; programs are immutable)."""
        return parse_program(self.source, name=self.name)


@dataclass(frozen=True)
class AlgebraCase:
    """A named ``algebra=`` program with metadata."""

    name: str
    source: str
    results: Tuple[str, ...]
    dialect: Dialect = Dialect.ALGEBRA_EQ
    always_defined: bool = True

    @cached_property
    def program(self) -> AlgebraProgram:
        """Parse the source into a program (parsed once; programs are immutable)."""
        return parse_algebra_program(self.source, dialect=self.dialect, name=self.name)


_DEDUCTIVE: Tuple[DeductiveCase, ...] = (
    DeductiveCase(
        "transitive-closure",
        """
        tc(X, Y) :- move(X, Y).
        tc(X, Z) :- move(X, Y), tc(Y, Z).
        """,
        ("tc",),
        stratified=True,
    ),
    DeductiveCase(
        "win-move",
        """
        win(X) :- move(X, Y), not win(Y).
        """,
        ("win",),
        stratified=False,
    ),
    DeductiveCase(
        "win-lose-draw",
        """
        win(X) :- move(X, Y), not win(Y).
        position(X) :- move(X, Y).
        position(Y) :- move(X, Y).
        """,
        ("win", "position"),
        stratified=False,
    ),
    DeductiveCase(
        "unreachable",
        """
        tc(X, Y) :- move(X, Y).
        tc(X, Z) :- move(X, Y), tc(Y, Z).
        node(X) :- move(X, Y).
        node(Y) :- move(X, Y).
        unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
        """,
        ("tc", "unreach"),
        stratified=True,
    ),
    DeductiveCase(
        "same-generation",
        """
        node(X) :- move(X, Y).
        node(Y) :- move(X, Y).
        sg(X, X) :- node(X).
        sg(X, Y) :- move(XP, X), sg(XP, YP), move(YP, Y).
        """,
        ("sg",),
        stratified=True,
    ),
    DeductiveCase(
        "choice",
        """
        p :- not q.
        q :- not p.
        r :- p.
        r :- q.
        s :- p, q.
        """,
        ("p", "q", "r", "s"),
        stratified=False,
    ),
    DeductiveCase(
        "double-negation",
        """
        node(X) :- move(X, Y).
        node(Y) :- move(X, Y).
        out(X) :- node(X), not win(X).
        win(X) :- move(X, Y), not win(Y).
        safe(X) :- node(X), not out(X).
        """,
        ("win", "out", "safe"),
        stratified=False,
    ),
    DeductiveCase(
        "arith-evens",
        """
        even(0).
        even(N) :- even(M), N = add2(M), N <= 20.
        odd(N) :- even(M), N = succ(M), N <= 20.
        """,
        ("even", "odd"),
        stratified=True,
        uses_functions=True,
    ),
    DeductiveCase(
        "tuples",
        """
        pair(P) :- move(X, Y), P = [X, Y].
        swapped(P) :- move(X, Y), P = [Y, X].
        sym(P) :- pair(P), swapped(P).
        asym(P) :- pair(P), not swapped(P).
        """,
        ("pair", "sym", "asym"),
        stratified=True,
    ),
    DeductiveCase(
        "zero-arity",
        """
        hasmoves :- move(X, Y).
        hascycleish :- move(X, X).
        quiet :- not hasmoves.
        active :- hasmoves, not hascycleish.
        """,
        ("hasmoves", "hascycleish", "quiet", "active"),
        stratified=True,
    ),
    DeductiveCase(
        "nested-tuples",
        """
        pp(P) :- move(X, Y), move(Y, Z), P = [[X, Y], [Y, Z]].
        firsthop(H) :- pp(P), H = comp1(P).
        deep(X) :- pp(P), X = comp1(comp1(P)).
        """,
        ("pp", "firsthop", "deep"),
        stratified=True,
    ),
    DeductiveCase(
        "sources-sinks",
        """
        src(X) :- move(X, Y).
        snk(Y) :- move(X, Y).
        pure_src(X) :- src(X), not snk(X).
        pure_snk(X) :- snk(X), not src(X).
        inner(X) :- src(X), snk(X).
        """,
        ("pure_src", "pure_snk", "inner"),
        stratified=True,
    ),
    DeductiveCase(
        "arith-squares",
        """
        n(0).
        n(Y) :- n(X), Y = succ(X), Y <= 6.
        sq(S) :- n(X), S = mul(X, X).
        nonsq(X) :- n(X), not sq(X).
        """,
        ("n", "sq", "nonsq"),
        stratified=True,
        uses_functions=True,
    ),
)


_ALGEBRA: Tuple[AlgebraCase, ...] = (
    AlgebraCase(
        "win-game",
        """
        relations MOVE;
        WIN = pi1(MOVE - (pi1(MOVE) * WIN));
        """,
        ("WIN",),
        always_defined=False,
    ),
    AlgebraCase(
        "transitive-closure",
        """
        relations MOVE;
        TC = MOVE u map[[it.1.1, it.2.2]](sigma[it.1.2 = it.2.1](MOVE * TC));
        """,
        ("TC",),
    ),
    AlgebraCase(
        "positions",
        """
        relations MOVE;
        POS = pi1(MOVE) u pi2(MOVE);
        SINKS = POS - pi1(MOVE);
        """,
        ("POS", "SINKS"),
    ),
    AlgebraCase(
        "derived-operators",
        """
        relations A, B;
        inter(s, t) = s - (s - t);
        xor(s, t) = (s - t) u (t - s);
        I = inter(A, B);
        X = xor(A, B);
        """,
        ("I", "X"),
    ),
    AlgebraCase(
        "paradox",
        """
        relations A;
        S = A - S;
        """,
        ("S",),
        always_defined=False,
    ),
    AlgebraCase(
        "double-subtraction",
        """
        relations A;
        S = A - (A - S);
        """,
        ("S",),
    ),
    AlgebraCase(
        "win-closure-mix",
        """
        relations MOVE;
        WIN = pi1(MOVE - (pi1(MOVE) * WIN));
        TC = MOVE u map[[it.1.1, it.2.2]](sigma[it.1.2 = it.2.1](MOVE * TC));
        WINPAIRS = sigma[it.1 != it.2](TC - (TC - (WIN * WIN)));
        """,
        ("WIN", "TC", "WINPAIRS"),
        always_defined=False,
    ),
    AlgebraCase(
        "mutual-negation",
        """
        relations MOVE;
        P = pi1(MOVE) - Q;
        Q = pi2(MOVE) - P;
        """,
        ("P", "Q"),
        always_defined=False,
    ),
    AlgebraCase(
        "nested-map",
        """
        relations MOVE;
        NEST = map[[it, [it, it]]](pi1(MOVE));
        BACK = pi1(NEST);
        DEEP = map[it.2.1](NEST);
        """,
        ("NEST", "BACK", "DEEP"),
    ),
    AlgebraCase(
        "selection-heavy",
        """
        relations A;
        SMALL = sigma[it <= 3](A);
        BIG = A - SMALL;
        DOUBLED = map[mul(it, 2)](SMALL);
        MIX = (SMALL * BIG) u (BIG * SMALL);
        LEFTS = pi1(MIX);
        """,
        ("SMALL", "BIG", "DOUBLED", "MIX", "LEFTS"),
    ),
)


DEDUCTIVE_CORPUS: Dict[str, DeductiveCase] = {case.name: case for case in _DEDUCTIVE}
ALGEBRA_CORPUS: Dict[str, AlgebraCase] = {case.name: case for case in _ALGEBRA}


def deductive_case(name: str) -> DeductiveCase:
    """Look up a deductive corpus entry by name."""
    return DEDUCTIVE_CORPUS[name]


def algebra_case(name: str) -> AlgebraCase:
    """Look up an algebra corpus entry by name."""
    return ALGEBRA_CORPUS[name]
