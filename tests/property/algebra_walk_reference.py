"""The two-valued tree walk, kept as the differential oracle.

Until it was retired, this walk evaluated the plain ``algebra`` /
``IFP-algebra`` dialects beside :mod:`repro.core.valid_eval`; now
:func:`repro.core.evaluate` solves such an expression as a one-equation
system on the compiled evaluator, and the walk is moved here unchanged so
``test_algebra_walk_reference.py`` can hold that route to it.

This evaluator covers the dialects *without* recursive definitions:
expressions are evaluated directly over relations, non-recursive calls
are inlined, and ``IFP`` runs the inflationary iteration of Section 3.1
("starting with the empty set, at each step exp is applied on the result
obtained in the previous step, and the result is accumulated").

A ``σ`` test or a ``MAP`` function is compiled once per node visited
(:func:`~repro.core.funcs.compile_selection`,
:func:`~repro.core.funcs.compile_scalar`), then applied per member.  A
``σ`` that a subtraction's ``¬`` reaches with no ``×``, ``MAP`` or
``IFP`` between keeps a member unless its test's complement holds, as
the Proposition 5.1 translation reads it (its NNF pushes that ``¬`` onto
the comparisons).  A call is read as its inlined body, so that ``¬``
reaches through it, and into an argument where its parameter stands.

Because the paper's domains may be infinite, the iteration takes an
explicit ``max_iterations`` bound and raises :class:`NonTerminating` when
it is hit.  A recursive call raises :class:`RecursionNotSupported`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.core.expressions import (
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
from repro.core.funcs import compile_scalar, compile_selection
from repro.core.programs import AlgebraProgram
from repro.core.valid_eval import RecursionNotSupported
from repro.relations.relation import Relation
from repro.relations.universe import FunctionRegistry
from repro.robustness import EvaluationBudget, NonTerminating

__all__ = ["evaluate", "evaluate_query", "NonTerminating", "RecursionNotSupported"]


class _Argument:
    """A call's argument bound to its parameter, read as inlining the
    call would read it: positively, or — where a subtraction's ``¬``
    reaches the parameter — with that ``¬`` reaching the ``σ`` tests
    inside it (evaluated on first such read)."""

    __slots__ = ("positive", "_negative", "_read")

    def __init__(self, read: Callable[[bool], Relation]):
        self._read = read
        self.positive = read(False)
        self._negative: Optional[Relation] = None

    def at(self, negated: bool) -> Relation:
        """The argument's value where ``negated`` reaches its parameter."""
        if not negated:
            return self.positive
        if self._negative is None:
            self._negative = self._read(True)
        return self._negative


def evaluate(
    expr: Expr,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    program: Optional[AlgebraProgram] = None,
    max_iterations: int = 10_000,
    budget: Optional[EvaluationBudget] = None,
) -> Relation:
    """Evaluate an expression to a relation.

    ``environment`` binds database relations and any enclosing parameters;
    ``program`` (optional) supplies definitions for non-recursive calls.
    ``budget`` adds wall-clock/step governance to the IFP iteration on
    top of the ``max_iterations`` cap.
    """
    recursive = program.recursive_names() if program else frozenset()

    def run(node: Expr, env: Mapping[str, Relation], negated: bool = False) -> Relation:
        if isinstance(node, RelVar):
            if node.name not in env:
                raise KeyError(f"unbound relation variable {node.name!r}")
            value = env[node.name]
            return value.at(negated) if isinstance(value, _Argument) else value
        if isinstance(node, SetConst):
            return Relation(node.values)
        if isinstance(node, Union):
            return run(node.left, env, negated).union(run(node.right, env, negated))
        if isinstance(node, Diff):
            return run(node.left, env, negated).difference(
                run(node.right, env, not negated)
            )
        if isinstance(node, Product):
            return run(node.left, env).product(run(node.right, env))
        if isinstance(node, Select):
            test = compile_selection(node.test, registry, negated)
            return run(node.child, env, negated).select(test)
        if isinstance(node, Map):
            function = compile_scalar(node.func, registry)
            images = map(function, run(node.child, env).items)
            return Relation(image for image in images if image is not None)
        if isinstance(node, Ifp):
            current = Relation.empty()
            for _step in range(max_iterations):
                if budget is not None:
                    budget.note_iteration(phase="ifp")
                inner = dict(env)
                inner[node.param] = current
                step = run(node.body, inner)
                accumulated = current.union(step)
                if accumulated == current:
                    return current
                if budget is not None:
                    budget.charge_facts(len(accumulated) - len(current))
                current = accumulated
            raise NonTerminating(
                f"IFP did not converge within {max_iterations} iterations "
                f"(the fixed point may be an infinite set)",
                progress=budget.progress if budget is not None else None,
            )
        if isinstance(node, Call):
            if program is None:
                raise RecursionNotSupported(
                    f"call to {node.name!r} without a program in scope"
                )
            if node.name in recursive:
                raise RecursionNotSupported(
                    f"{node.name!r} is recursively defined; recursive programs "
                    f"have three-valued semantics — use repro.core.valid_eval"
                )
            definition = program.definition(node.name)
            arguments = [
                _Argument(lambda negated, arg=arg: run(arg, env, negated))
                for arg in node.args
            ]
            inner = dict(env)
            inner.update(zip(definition.params, arguments))
            return run(definition.body, inner, negated)
        raise TypeError(f"not an expression: {node!r}")

    return run(expr, environment)


def evaluate_query(
    program: AlgebraProgram,
    result: str,
    environment: Mapping[str, Relation],
    registry: Optional[FunctionRegistry] = None,
    max_iterations: int = 10_000,
    budget: Optional[EvaluationBudget] = None,
) -> Relation:
    """Evaluate a named (non-recursive) query constant of a program."""
    definition = program.definition(result)
    if definition.params:
        raise ValueError(f"query constant {result!r} must be 0-ary")
    return evaluate(
        definition.body,
        environment,
        registry=registry,
        program=program,
        max_iterations=max_iterations,
        budget=budget,
    ).renamed(result)
