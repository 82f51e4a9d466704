"""Polarity and monotonicity analysis.

Section 4 singles out the **positive IFP-algebra**: the fixed point
operator is applied only to expressions where the bound variable "does
not appear negatively, i.e. does not appear in a sub-expression being
subtracted".  Such expressions are certainly monotone (Definition 3.3),
and by Proposition 3.4 the recursive equation ``S = exp(S)`` and the
inflationary ``IFP_exp`` then agree.

This module provides the syntactic criterion, a program-aware variant
that looks through ``Call`` sites, and a semantic monotonicity *oracle*
used by the property-based tests (the syntactic check is sufficient but
not necessary, and the oracle lets tests confirm both directions on
random expressions).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from ..relations.relation import Relation
from ..relations.universe import FunctionRegistry
from .expressions import (
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

__all__ = [
    "subtracted_names",
    "occurs_negatively",
    "is_positive_in",
    "is_positive_ifp_expr",
    "polarity_of_names",
    "is_monotone_semantically",
]


def _names(expr: Expr, subtracted: bool) -> FrozenSet[str]:
    """Free relation-variable names with an occurrence inside
    (``subtracted``) or outside a subtracted sub-expression."""
    def visit(node: Expr, under_subtraction: bool) -> FrozenSet[str]:
        if isinstance(node, RelVar):
            hit = under_subtraction == subtracted
            return frozenset((node.name,)) if hit else frozenset()
        if isinstance(node, SetConst):
            return frozenset()
        if isinstance(node, (Union, Product)):
            return visit(node.left, under_subtraction) | visit(
                node.right, under_subtraction
            )
        if isinstance(node, Diff):
            return visit(node.left, under_subtraction) | visit(node.right, True)
        if isinstance(node, (Select, Map)):
            return visit(node.child, under_subtraction)
        if isinstance(node, Ifp):
            # Occurrences of the bound parameter inside the body are not
            # free occurrences of an outer name.
            return visit(node.body, under_subtraction) - {node.param}
        if isinstance(node, Call):
            # Without the definition in hand, any argument occurrence is
            # treated conservatively as potentially subtracted.
            result: FrozenSet[str] = frozenset()
            for arg in node.args:
                result |= visit(arg, True)
            return result
        raise TypeError(f"not an expression: {node!r}")

    return visit(expr, False)


def subtracted_names(expr: Expr) -> FrozenSet[str]:
    """Free relation-variable names occurring inside a subtracted
    sub-expression (the right operand of some ``−``), at any depth."""
    return _names(expr, True)


def occurs_negatively(expr: Expr, name: str) -> bool:
    """Does ``name`` appear in a sub-expression being subtracted?"""
    return name in subtracted_names(expr)


def is_positive_in(expr: Expr, name: str) -> bool:
    """The paper's positivity criterion for a single variable."""
    return not occurs_negatively(expr, name)


def is_positive_ifp_expr(expr: Expr) -> bool:
    """True iff every ``IFP`` in ``expr`` binds a positive variable —
    membership in the *positive IFP-algebra* of Section 4."""
    from .expressions import walk

    for node in walk(expr):
        if isinstance(node, Ifp) and occurs_negatively(node.body, node.param):
            return False
    return True


def polarity_of_names(expr: Expr) -> Dict[str, str]:
    """Per free name: ``'positive'`` (never subtracted), ``'negative'``
    (only subtracted), or ``'mixed'``."""
    from .expressions import free_rel_vars

    negative, positive = _names(expr, True), _names(expr, False)
    return {
        name: "positive"
        if name not in negative
        else "mixed" if name in positive else "negative"
        for name in free_rel_vars(expr)
    }


def is_monotone_semantically(
    body: Expr,
    param: str,
    environment: Mapping[str, Relation],
    candidates: Iterable,
    registry: Optional[FunctionRegistry] = None,
    max_pairs: int = 200,
) -> bool:
    """Brute-force Definition 3.3 over subsets of ``candidates``.

    Checks ``S1 ⊆ S2 ⇒ exp(S1) ⊆ exp(S2)`` for up to ``max_pairs``
    subset pairs drawn from the candidate pool.  An *oracle for tests*:
    exhaustive only for small candidate pools, but disagreement with the
    syntactic criterion on any checked pair is conclusive.
    """
    from .evaluator import evaluate

    pool = list(candidates)
    if len(pool) > 10:
        pool = pool[:10]
    checked = 0
    subsets = [
        frozenset(combo)
        for size in range(len(pool) + 1)
        for combo in itertools.combinations(pool, size)
    ]
    for small in subsets:
        for large in subsets:
            if not small <= large:
                continue
            if checked >= max_pairs:
                return True
            checked += 1
            env_small = dict(environment)
            env_small[param] = Relation(small)
            env_large = dict(environment)
            env_large[param] = Relation(large)
            result_small = evaluate(body, env_small, registry=registry)
            result_large = evaluate(body, env_large, registry=registry)
            if not result_small.items <= result_large.items:
                return False
    return True
