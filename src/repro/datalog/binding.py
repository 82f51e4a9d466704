"""Binding orders: when a rule body is evaluable, and in what order.

The leaf module under every rule walker — the join kernel, the grounder
on top of it, the annotated evaluator and the Datalog → algebra
translation all take "which literal can be matched now, does this
comparison bind or test" from here, so the answer to "is this rule
safe?" (Definition 4.1) is the same everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Set, Tuple

from ..relations.values import Value
from .ast import Comparison, FuncTerm, Literal, Rule, Var, term_vars

__all__ = [
    "GroundingError",
    "UnsafeRuleError",
    "binding_order",
    "compiled_binding_order",
]


class GroundingError(Exception):
    """Base class for grounding failures."""


class UnsafeRuleError(GroundingError):
    """A rule has no evaluable binding order (it is not range-restricted)."""


def _literal_processable(literal: Literal, bound: Set[Var]) -> bool:
    """A positive literal is matchable when every non-variable argument's
    variables are either already bound or bound by variable arguments of
    this same literal."""
    newly_bound = set(bound)
    for arg in literal.atom.args:
        if isinstance(arg, Var):
            newly_bound.add(arg)
    for arg in literal.atom.args:
        if isinstance(arg, FuncTerm) and not term_vars(arg) <= newly_bound:
            return False
    return True


def _comparison_mode(comparison: Comparison, bound: Set[Var]) -> Optional[str]:
    """'assign-left' / 'assign-right' / 'test' / None (not processable)."""
    left_free = term_vars(comparison.left) - bound
    right_free = term_vars(comparison.right) - bound
    if not left_free and not right_free:
        return "test"
    if comparison.op != "=":
        return None
    if (
        isinstance(comparison.left, Var)
        and comparison.left in left_free
        and not right_free
    ):
        return "assign-left"
    if (
        isinstance(comparison.right, Var)
        and comparison.right in right_free
        and not left_free
    ):
        return "assign-right"
    return None


def binding_order(rule: Rule) -> List[Tuple[str, object]]:
    """Compute an evaluable processing order for a rule body.

    Returns a list of ``(kind, item)`` with kind in ``{'match', 'assign',
    'test', 'negtest'}``.  Raises :class:`UnsafeRuleError` when no order
    exists — which, by Definition 4.1, means the rule is not safe.
    """
    pending: List[object] = list(rule.body)
    order: List[Tuple[str, object]] = []
    bound: Set[Var] = set()

    while pending:
        progress = False
        for item in list(pending):
            if isinstance(item, Literal) and item.positive:
                if _literal_processable(item, bound):
                    order.append(("match", item))
                    bound |= item.vars()
                    pending.remove(item)
                    progress = True
                    break
            elif isinstance(item, Comparison):
                mode = _comparison_mode(item, bound)
                if mode == "test":
                    order.append(("test", item))
                    pending.remove(item)
                    progress = True
                    break
                if mode in ("assign-left", "assign-right"):
                    order.append(("assign", (mode, item)))
                    bound |= item.vars()
                    pending.remove(item)
                    progress = True
                    break
            elif isinstance(item, Literal) and not item.positive:
                if item.vars() <= bound:
                    order.append(("negtest", item))
                    pending.remove(item)
                    progress = True
                    break
        if not progress:
            raise UnsafeRuleError(
                f"rule has no evaluable binding order (unsafe): {rule!r}"
            )

    head_free = rule.head.vars() - bound
    if head_free:
        raise UnsafeRuleError(
            f"head variables {sorted(v.name for v in head_free)} are not "
            f"restricted by the body: {rule!r}"
        )
    return order


@lru_cache(maxsize=4096)
def _compiled_order(rule: Rule) -> Tuple[Tuple[str, object], ...]:
    return tuple(binding_order(rule))


def compiled_binding_order(rule: Rule) -> Tuple[Tuple[str, object], ...]:
    """Memoized :func:`binding_order`.

    Rules are immutable and hashable, so repeated evaluations of the
    same program (the grounder, the direct engine, and the service
    layer's prepared plans) share one compiled order per rule instead of
    re-deriving it on every call.
    """
    return _compiled_order(rule)


# ---------------------------------------------------------------------------
# Comparison evaluation
# ---------------------------------------------------------------------------


def _compare(op: str, left: Value, right: Value) -> bool:
    """``left op right``; an order comparison across types is false."""
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    comparable = (
        isinstance(left, int)
        and isinstance(right, int)
        and not isinstance(left, bool)
        and not isinstance(right, bool)
    ) or (isinstance(left, str) and isinstance(right, str))
    if not comparable:
        return False
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ValueError(f"unknown comparison {op!r}")
