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
between scalar expressions.  A comparison with an undefined operand, or
an order comparison across sorts, is itself undefined, and ``¬`` reads it
as Kleene does: such a comparison selects nothing at either polarity.
Negation is pushed onto the comparison as its complement
(``formula.COMPLEMENT_OP``, the way ``formula.to_nnf`` pushes it for the
Proposition 5.4 translation), and the complemented comparison is false
there too — so ``σ[¬(x.1 = a)]`` does not select ``b``, which has no
first component.  The same holds where a subtraction's ``¬`` reaches a
``σ`` with no ``×`` or ``MAP`` between (the translation's NNF pushes it
onto the comparisons there): the evaluators take a member out of
``σ[t](E)`` only where ``t``'s complement holds
(:func:`compile_selection`), so ``A − σ[¬(x.1 = a)](A)`` keeps ``b``
out as well.

Both languages are compiled, not walked: :func:`compile_scalar` and
:func:`compile_test` turn a node into one closure per node (function
symbols resolved once, by :func:`~repro.datalog.ast.resolve_function`),
built once per evaluation and then applied per member.
:func:`eval_scalar` and :func:`eval_test` compile and apply in one go.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..datalog.ast import resolve_function
from ..datalog.binding import _compare
from ..relations.universe import FunctionRegistry
from ..relations.values import Tup, Value, format_value, is_value
from .formula import COMPLEMENT_OP

__all__ = [
    "ScalarExpr",
    "Arg",
    "Comp",
    "Lit",
    "MkTup",
    "Apply",
    "compile_scalar",
    "eval_scalar",
    "Test",
    "TrueTest",
    "CompareTest",
    "NotTest",
    "AndTest",
    "OrTest",
    "compile_test",
    "compile_selection",
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


#: A compiled scalar: member → value, ``None`` when undefined.
Scalar = Callable[[Value], Optional[Value]]


def compile_scalar(
    expr: ScalarExpr, registry: Optional[FunctionRegistry] = None
) -> Scalar:
    """``expr`` as a function of the member, one closure per node.

    The function returns ``None`` when undefined: a component of a
    non-tuple or out-of-range index, or a partial domain function off its
    domain.  MAP simply drops members its function is undefined on — the
    paper's functions are total on their intended sorts, and partiality
    is how a first-order implementation expresses "wrong sort".  An
    unknown function name raises ``KeyError`` when first applied.
    """
    if isinstance(expr, Arg):
        return _member
    if isinstance(expr, Lit):
        value = expr.value
        return lambda member: value
    if isinstance(expr, Comp):
        index, position = expr.index, expr.index - 1
        if isinstance(expr.child, Arg):

            def component(member: Value) -> Optional[Value]:
                if type(member) is Tup and index <= len(member.items):
                    return member.items[position]
                return None

            return component
        child = compile_scalar(expr.child, registry)

        def nested(member: Value) -> Optional[Value]:
            value = child(member)
            if type(value) is Tup and index <= len(value.items):
                return value.items[position]
            return None

        return nested
    if isinstance(expr, (MkTup, Apply)):
        if isinstance(expr, MkTup):
            build, parts = Tup, expr.items
        else:
            build = resolve_function(expr.name, registry, len(expr.args))
            parts = expr.args
        items = tuple(compile_scalar(part, registry) for part in parts)

        def apply(member: Value) -> Optional[Value]:
            values = []
            for item in items:
                value = item(member)
                if value is None:
                    return None
                values.append(value)
            return build(tuple(values))

        return apply
    raise TypeError(f"not a scalar expression: {expr!r}")


def _member(member: Value) -> Value:
    return member


def eval_scalar(
    expr: ScalarExpr, member: Value, registry: Optional[FunctionRegistry] = None
) -> Optional[Value]:
    """Evaluate a scalar expression on a member (see :func:`compile_scalar`)."""
    return compile_scalar(expr, registry)(member)


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
    partiality convention of the deductive engine; so is their
    complement, which is what ``¬`` of one reads (see the module
    docstring).
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


#: A compiled test: member → selected.
Predicate = Callable[[Value], bool]


def compile_test(
    test: Test, registry: Optional[FunctionRegistry] = None, negated: bool = False
) -> Predicate:
    """``test`` (``¬test`` when ``negated``) as a function of the member,
    one closure per node.

    Negation is carried down to the comparisons (De Morgan over ``∧`` /
    ``∨``) and applied there as the complemented operator, so a
    comparison whose operands are undefined, or that orders values of
    different sorts, is false at both polarities (Kleene's reading).
    """
    if isinstance(test, TrueTest):
        return _never if negated else _always
    if isinstance(test, CompareTest):
        op = COMPLEMENT_OP[test.op] if negated else test.op
        left = compile_scalar(test.left, registry)
        right = compile_scalar(test.right, registry)
        if op == "=":

            def equal(member: Value) -> bool:
                first, second = left(member), right(member)
                return first is not None and second is not None and first == second

            return equal
        if op == "!=":

            def unequal(member: Value) -> bool:
                first, second = left(member), right(member)
                return first is not None and second is not None and first != second

            return unequal

        def ordered(member: Value) -> bool:
            first, second = left(member), right(member)
            if first is None or second is None:
                return False
            return _compare(op, first, second)

        return ordered
    if isinstance(test, NotTest):
        return compile_test(test.child, registry, not negated)
    if isinstance(test, (AndTest, OrTest)):
        first = compile_test(test.left, registry, negated)
        second = compile_test(test.right, registry, negated)
        if isinstance(test, AndTest) != negated:
            return lambda member: first(member) and second(member)
        return lambda member: first(member) or second(member)
    raise TypeError(f"not a test: {test!r}")


def compile_selection(
    test: Test, registry: Optional[FunctionRegistry] = None, negated: bool = False
) -> Predicate:
    """What keeps a member in ``σ[test](E)``: ``test`` itself, or — where
    a subtraction's ``¬`` reaches the ``σ`` with no ``×`` or ``MAP``
    between (``negated``), as the translation's NNF pushes it onto the
    comparisons — anything but ``test``'s complement.  A comparison
    undefined on a member neither selects it nor takes it out."""
    if not negated:
        return compile_test(test, registry)
    complement = compile_test(test, registry, True)
    return lambda member: not complement(member)


def _always(member: Value) -> bool:
    return True


def _never(member: Value) -> bool:
    return False


def eval_test(
    test: Test, member: Value, registry: Optional[FunctionRegistry] = None
) -> bool:
    """Evaluate a selection test on a member (see :func:`compile_test`)."""
    return compile_test(test, registry)(member)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def component(index: int) -> Comp:
    """The projection function ``x.i`` (so ``MAP_{component(i)}`` is π_i)."""
    return Comp(Arg(), index)


def pair(left: ScalarExpr, right: ScalarExpr) -> MkTup:
    """Build the pair ``[left, right]``."""
    return MkTup((left, right))
