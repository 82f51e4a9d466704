"""Pretty-printing algebra programs back into parseable surface syntax.

``parse_algebra_program(pretty_algebra_program(p))`` round-trips.
"""

from __future__ import annotations

from typing import List

from ..core.expressions import (
    Call,
    Diff,
    Expr,
    Ifp,
    Map,
    Product,
    RelVar,
    Select,
    SetConst,
    Union,
)
from ..core.funcs import (
    AndTest,
    Apply,
    Arg,
    Comp,
    CompareTest,
    Lit,
    MkTup,
    NotTest,
    OrTest,
    ScalarExpr,
    Test,
    TrueTest,
)
from ..core.programs import AlgebraProgram
from ..relations.values import FSet, Value, format_value, sorted_values

__all__ = ["pretty_algebra_expr", "pretty_algebra_program"]


def _pretty_value(value: Value) -> str:
    if isinstance(value, FSet):
        raise ValueError("nested set constants have no surface syntax")
    return format_value(value)


def _pretty_scalar(expr: ScalarExpr) -> str:
    if isinstance(expr, Arg):
        return "it"
    if isinstance(expr, Comp):
        return f"{_pretty_scalar(expr.child)}.{expr.index}"
    if isinstance(expr, Lit):
        return _pretty_value(expr.value)
    if isinstance(expr, MkTup):
        return "[" + ", ".join(_pretty_scalar(item) for item in expr.items) + "]"
    if isinstance(expr, Apply):
        inner = ", ".join(_pretty_scalar(arg) for arg in expr.args)
        return f"{expr.name}({inner})"
    raise TypeError(f"not a scalar expression: {expr!r}")


def _pretty_test(test: Test) -> str:
    if isinstance(test, TrueTest):
        return "true"
    if isinstance(test, CompareTest):
        return f"{_pretty_scalar(test.left)} {test.op} {_pretty_scalar(test.right)}"
    if isinstance(test, NotTest):
        return f"not ({_pretty_test(test.child)})"
    if isinstance(test, AndTest):
        return f"({_pretty_test(test.left)}) and ({_pretty_test(test.right)})"
    if isinstance(test, OrTest):
        return f"({_pretty_test(test.left)}) or ({_pretty_test(test.right)})"
    raise TypeError(f"not a test: {test!r}")


def pretty_algebra_expr(expr: Expr) -> str:
    """Render an expression in the surface syntax."""
    if isinstance(expr, RelVar):
        return expr.name
    if isinstance(expr, SetConst):
        return "{" + ", ".join(_pretty_value(v) for v in sorted_values(expr.values)) + "}"
    if isinstance(expr, Union):
        return f"({pretty_algebra_expr(expr.left)} u {pretty_algebra_expr(expr.right)})"
    if isinstance(expr, Diff):
        return f"({pretty_algebra_expr(expr.left)} - {pretty_algebra_expr(expr.right)})"
    if isinstance(expr, Product):
        return f"({pretty_algebra_expr(expr.left)} * {pretty_algebra_expr(expr.right)})"
    if isinstance(expr, Select):
        return f"sigma[{_pretty_test(expr.test)}]({pretty_algebra_expr(expr.child)})"
    if isinstance(expr, Map):
        return f"map[{_pretty_scalar(expr.func)}]({pretty_algebra_expr(expr.child)})"
    if isinstance(expr, Ifp):
        return f"ifp({expr.param}, {pretty_algebra_expr(expr.body)})"
    if isinstance(expr, Call):
        if not expr.args:
            return expr.name
        inner = ", ".join(pretty_algebra_expr(arg) for arg in expr.args)
        return f"{expr.name}({inner})"
    raise TypeError(f"not an expression: {expr!r}")


def pretty_algebra_program(program: AlgebraProgram) -> str:
    """Render a whole program, declaration header included."""
    lines: List[str] = []
    if program.name:
        lines.append(f"% {program.name}")
    if program.database_relations:
        lines.append("relations " + ", ".join(sorted(program.database_relations)) + ";")
    for definition in program.definitions:
        header = definition.name
        if definition.params:
            header += "(" + ", ".join(definition.params) + ")"
        lines.append(f"{header} = {pretty_algebra_expr(definition.body)};")
    return "\n".join(lines)
