"""The restructuring-function and selection-test languages.

The paper's ``MAP_f`` and ``σ_test`` operators are generic in a
restructuring function ``f`` and a boolean-valued test ``test``
(Section 3.1), but the framework "is strictly first order ... a special
specification must be provided for every specific function".  We mirror
that: functions and tests are *syntax* (small ASTs), so they can be both
evaluated and *translated* into deductive rules (Sections 5 and 6).

Scalar expressions (functions of the set member ``x``):

* ``Arg()`` — the member itself;
* ``Comp(e, i)`` — 1-indexed tuple component ``e.i``;
* ``Lit(v)`` — a constant value;
* ``MkTup(e1, ..., en)`` — tuple construction;
* ``Apply(name, e1, ..., en)`` — a registered domain function.

Tests are boolean combinations of (dis)equalities and order comparisons
between scalar expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..datalog.binding import _compare
from ..relations.universe import FunctionRegistry
from ..relations.values import Tup, Value, format_value, is_value

__all__ = [
    "ScalarExpr",
    "Arg",
    "Comp",
    "Lit",
    "MkTup",
    "Apply",
    "eval_scalar",
    "Test",
    "TrueTest",
    "CompareTest",
    "NotTest",
    "AndTest",
    "OrTest",
    "eval_test",
    "component",
    "pair",
]


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


class ScalarExpr:
    """Base class for restructuring-function syntax."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Arg(ScalarExpr):
    """The set member being restructured (the ``x`` in ``MAP_{x.i}``)."""

    def __repr__(self) -> str:
        return "x"


@dataclass(frozen=True, slots=True)
class Comp(ScalarExpr):
    """1-indexed tuple component: ``Comp(Arg(), 2)`` is ``x.2``."""

    child: ScalarExpr
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("components are 1-indexed")

    def __repr__(self) -> str:
        return f"{self.child!r}.{self.index}"


@dataclass(frozen=True, slots=True)
class Lit(ScalarExpr):
    """A constant value."""

    value: Value

    def __post_init__(self) -> None:
        if not is_value(self.value):
            raise TypeError(f"not a value: {self.value!r}")

    def __repr__(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True, slots=True)
class MkTup(ScalarExpr):
    """Tuple construction: ``MkTup((e1, e2))`` builds ``[e1, e2]``."""

    items: Tuple[ScalarExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(item) for item in self.items) + "]"


@dataclass(frozen=True, slots=True)
class Apply(ScalarExpr):
    """Application of a registered domain function: ``Apply('add2', (e,))``."""

    name: str
    args: Tuple[ScalarExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __repr__(self) -> str:
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.name}({inner})"


def eval_scalar(
    expr: ScalarExpr, member: Value, registry: Optional[FunctionRegistry] = None
) -> Optional[Value]:
    """Evaluate a scalar expression on a member.

    Returns ``None`` when undefined: a component of a non-tuple or
    out-of-range index, or a partial domain function off its domain.
    MAP simply drops members its function is undefined on — the paper's
    functions are total on their intended sorts, and partiality is how a
    first-order implementation expresses "wrong sort".
    """
    if isinstance(expr, Arg):
        return member
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Comp):
        child = eval_scalar(expr.child, member, registry)
        if not isinstance(child, Tup) or not 1 <= expr.index <= len(child):
            return None
        return child.component(expr.index)
    if isinstance(expr, MkTup):
        values = []
        for item in expr.items:
            value = eval_scalar(item, member, registry)
            if value is None:
                return None
            values.append(value)
        return Tup(tuple(values))
    if isinstance(expr, Apply):
        values = []
        for arg in expr.args:
            value = eval_scalar(arg, member, registry)
            if value is None:
                return None
            values.append(value)
        if registry is None:
            raise KeyError(f"no registry supplied for function {expr.name!r}")
        return registry.get(expr.name).apply(tuple(values))
    raise TypeError(f"not a scalar expression: {expr!r}")


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class Test:
    """Base class for selection-test syntax."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TrueTest(Test):
    """The always-true test (σ_TRUE is the identity)."""

    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True, slots=True)
class CompareTest(Test):
    """Comparison of two scalar expressions: ``=``, ``!=``, ``<``, ...

    Order comparisons are false across incomparable sorts, mirroring the
    partiality convention of the deductive engine.
    """

    op: str
    left: ScalarExpr
    right: ScalarExpr

    def __post_init__(self) -> None:
        if self.op not in ("=", "!=", "<", "<=", ">", ">="):
            raise ValueError(f"unknown comparison {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, slots=True)
class NotTest(Test):
    """Boolean negation of a test."""
    child: Test

    def __repr__(self) -> str:
        return f"not {self.child!r}"


@dataclass(frozen=True, slots=True)
class AndTest(Test):
    """Conjunction of two tests."""
    left: Test
    right: Test

    def __repr__(self) -> str:
        return f"({self.left!r} and {self.right!r})"


@dataclass(frozen=True, slots=True)
class OrTest(Test):
    """Disjunction of two tests."""
    left: Test
    right: Test

    def __repr__(self) -> str:
        return f"({self.left!r} or {self.right!r})"


def eval_test(
    test: Test, member: Value, registry: Optional[FunctionRegistry] = None
) -> bool:
    """Evaluate a selection test on a member.

    A comparison whose scalar operands are undefined is false (so the
    member is not selected); boolean connectives are classical.
    """
    if isinstance(test, TrueTest):
        return True
    if isinstance(test, CompareTest):
        left = eval_scalar(test.left, member, registry)
        right = eval_scalar(test.right, member, registry)
        if left is None or right is None:
            return False
        return _compare(test.op, left, right)
    if isinstance(test, NotTest):
        return not eval_test(test.child, member, registry)
    if isinstance(test, AndTest):
        return eval_test(test.left, member, registry) and eval_test(
            test.right, member, registry
        )
    if isinstance(test, OrTest):
        return eval_test(test.left, member, registry) or eval_test(
            test.right, member, registry
        )
    raise TypeError(f"not a test: {test!r}")


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def component(index: int) -> Comp:
    """The projection function ``x.i`` (so ``MAP_{component(i)}`` is π_i)."""
    return Comp(Arg(), index)


def pair(left: ScalarExpr, right: ScalarExpr) -> MkTup:
    """Build the pair ``[left, right]``."""
    return MkTup((left, right))
