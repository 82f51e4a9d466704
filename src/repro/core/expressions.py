"""Algebra expression syntax (Section 3).

An expression denotes a set.  The operators are exactly the paper's:
union, difference, cartesian product, selection, MAP, the inflationary
fixed point ``IFP``, plus:

* ``RelVar(name)`` — a reference to a database relation or to a
  parameter of the enclosing definition;
* ``SetConst(values)`` — a set constant such as ``{0}`` ("since {0} is a
  constant of the algebra", Example 3);
* ``Call(name, args)`` — application of a *defined* operation, the
  ``algebra=`` extension of Section 3.2.

Expressions are immutable; helpers compute free relation variables,
called operation names, and perform (capture-avoiding) substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

from ..relations.values import Value, format_value, is_value
from .funcs import Comp, Arg, ScalarExpr, Test, TrueTest, component

__all__ = [
    "Expr",
    "RelVar",
    "SetConst",
    "Union",
    "Diff",
    "Product",
    "Select",
    "Map",
    "Ifp",
    "Call",
    "walk",
    "free_rel_vars",
    "called_names",
    "substitute",
    "rel",
    "setconst",
    "empty",
    "union",
    "diff",
    "intersect",
    "product",
    "select",
    "map_",
    "project",
    "ifp",
    "call",
]


class Expr:
    """Base class for algebra expressions."""

    __slots__ = ()

    # Operator sugar for building expressions fluently.
    def __or__(self, other: "Expr") -> "Union":
        return Union(self, other)

    def __sub__(self, other: "Expr") -> "Diff":
        return Diff(self, other)

    def __mul__(self, other: "Expr") -> "Product":
        return Product(self, other)


@dataclass(frozen=True, slots=True)
class RelVar(Expr):
    """A named relation: a database relation or a definition parameter."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("relation variable must be named")

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class SetConst(Expr):
    """A set constant, e.g. ``{a}`` or ``{0}`` (EMPTY is ``SetConst(())``)."""

    values: FrozenSet[Value]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", frozenset(self.values))
        for value in self.values:
            if not is_value(value):
                raise TypeError(f"not a value: {value!r}")

    def __repr__(self) -> str:
        from ..relations.values import sorted_values

        return "{" + ", ".join(format_value(v) for v in sorted_values(self.values)) + "}"


@dataclass(frozen=True, slots=True)
class Union(Expr):
    """Set union ``left ∪ right``."""
    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"({self.left!r} ∪ {self.right!r})"


@dataclass(frozen=True, slots=True)
class Diff(Expr):
    """Set difference ``left − right`` (the negative operator)."""
    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"({self.left!r} − {self.right!r})"


@dataclass(frozen=True, slots=True)
class Product(Expr):
    """Cartesian product ``left × right`` (members become pairs)."""
    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"({self.left!r} × {self.right!r})"


@dataclass(frozen=True, slots=True)
class Select(Expr):
    """Selection ``σ_test(child)``."""
    child: Expr
    test: Test

    def __repr__(self) -> str:
        return f"σ[{self.test!r}]({self.child!r})"


@dataclass(frozen=True, slots=True)
class Map(Expr):
    """Restructuring ``MAP_func(child)``."""
    child: Expr
    func: ScalarExpr

    def __repr__(self) -> str:
        return f"MAP[{self.func!r}]({self.child!r})"


@dataclass(frozen=True, slots=True)
class Ifp(Expr):
    """``IFP_exp``: the inflationary fixed point of ``λ param. body``.

    Starting from the empty set, ``body`` is applied repeatedly with
    ``param`` bound to the accumulated result (Section 3.1).
    """

    param: str
    body: Expr

    def __repr__(self) -> str:
        return f"IFP[{self.param}. {self.body!r}]"


@dataclass(frozen=True, slots=True)
class Call(Expr):
    """Application of a defined operation (``algebra=``, Section 3.2).

    A recursive set constant like ``WIN`` is a 0-ary call ``Call('WIN')``.
    """

    name: str
    args: Tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __repr__(self) -> str:
        if not self.args:
            return self.name
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.name}({inner})"


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all subexpressions, pre-order."""
    yield expr
    if isinstance(expr, (Union, Diff, Product)):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, (Select, Map)):
        yield from walk(expr.child)
    elif isinstance(expr, Ifp):
        yield from walk(expr.body)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk(arg)


def free_rel_vars(expr: Expr) -> FrozenSet[str]:
    """Relation-variable names free in ``expr`` (Ifp binds its parameter)."""
    if isinstance(expr, RelVar):
        return frozenset((expr.name,))
    if isinstance(expr, SetConst):
        return frozenset()
    if isinstance(expr, (Union, Diff, Product)):
        return free_rel_vars(expr.left) | free_rel_vars(expr.right)
    if isinstance(expr, (Select, Map)):
        return free_rel_vars(expr.child)
    if isinstance(expr, Ifp):
        return free_rel_vars(expr.body) - {expr.param}
    if isinstance(expr, Call):
        result: FrozenSet[str] = frozenset()
        for arg in expr.args:
            result |= free_rel_vars(arg)
        return result
    raise TypeError(f"not an expression: {expr!r}")


def called_names(expr: Expr) -> FrozenSet[str]:
    """Names of defined operations applied anywhere in ``expr``."""
    return frozenset(node.name for node in walk(expr) if isinstance(node, Call))


def _rebuild(expr: Expr, rewrite) -> Expr:
    """``expr`` with ``rewrite`` applied to its immediate subexpressions."""
    if isinstance(expr, (Union, Diff, Product)):
        return replace(expr, left=rewrite(expr.left), right=rewrite(expr.right))
    if isinstance(expr, (Select, Map)):
        return replace(expr, child=rewrite(expr.child))
    if isinstance(expr, Ifp):
        return replace(expr, body=rewrite(expr.body))
    if isinstance(expr, Call):
        return replace(expr, args=tuple(map(rewrite, expr.args)))
    return expr


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace free relation variables by expressions, capture-avoiding:
    an ``Ifp`` parameter shadows any mapping entry of the same name, and
    is renamed to a fresh name when it is free in an expression put in
    its scope (``IFP[X. Y × {b}]`` with ``Y := X`` is ``IFP[X_1. X × {b}]``)."""
    if isinstance(expr, RelVar):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Ifp):
        free = free_rel_vars(expr)
        mapping = {name: value for name, value in mapping.items() if name in free}
        outside = set().union(*map(free_rel_vars, mapping.values()))
        if expr.param in outside:
            taken = outside | free_rel_vars(expr.body)
            names = (f"{expr.param}_{n}" for n in count(1))
            fresh = next(name for name in names if name not in taken)
            body = substitute(expr.body, {expr.param: RelVar(fresh)})
            return Ifp(fresh, substitute(body, mapping))
    return _rebuild(expr, lambda node: substitute(node, mapping))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def rel(name: str) -> RelVar:
    """A relation variable reference."""
    return RelVar(name)


def setconst(*values: Value) -> SetConst:
    """A set constant from its members."""
    return SetConst(frozenset(values))


def empty() -> SetConst:
    """EMPTY."""
    return SetConst(frozenset())


def union(left: Expr, right: Expr) -> Union:
    """Build ``left ∪ right``."""
    return Union(left, right)


def diff(left: Expr, right: Expr) -> Diff:
    """Build ``left − right``."""
    return Diff(left, right)


def intersect(left: Expr, right: Expr) -> Diff:
    """Example 3's derived ``∩``: ``x ∩ y = x − (x − y)``."""
    return Diff(left, Diff(left, right))


def product(left: Expr, right: Expr) -> Product:
    """Build ``left × right``."""
    return Product(left, right)


def select(child: Expr, test: Test) -> Select:
    """Build ``σ_test(child)``."""
    return Select(child, test)


def map_(child: Expr, func: ScalarExpr) -> Map:
    """Build ``MAP_func(child)``."""
    return Map(child, func)


def project(child: Expr, index: int) -> Map:
    """``π_i`` — the paper's shorthand ``MAP_{x.i}``."""
    return Map(child, component(index))


def ifp(param: str, body: Expr) -> Ifp:
    """Build ``IFP`` of ``λ param. body``."""
    return Ifp(param, body)


def call(name: str, *args: Expr) -> Call:
    """Apply a defined operation."""
    return Call(name, tuple(args))
