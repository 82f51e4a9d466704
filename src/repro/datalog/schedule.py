"""The evaluation schedule: a program's components, dependencies first.

"The answer can be obtained by successively computing the minimal model
of each stratum" (Section 4).  Both evaluators that close a stratified
program on the join kernel — ``run()``'s
:func:`~repro.datalog.seminaive.seminaive_stratified` and the service's
delta-stream engine — do it one strongly connected component of the
predicate graph at a time, in the order :func:`components` works out
once per :class:`~repro.datalog.ast.Program`.  A module of its own: it
loads the kernel, which the cluster router (reading
:mod:`~repro.datalog.stratification` for ``SEMANTICS``) must not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, NamedTuple, Tuple

from .ast import Literal, Program, Rule
from .kernel import HEAD, Plan, compile_plan
from .stratification import condensation

__all__ = ["Circuit", "Component", "Variant", "components"]


class Variant(NamedTuple):
    """One lead-first firing: body literal ``plan.pivot`` carries the delta."""

    plan: Plan
    predicate: str
    negated: bool


class Circuit(NamedTuple):
    """Everything a closure or maintenance step needs from a component
    that depends only on the program: compiled once, shared by every
    evaluator."""

    #: Predicates whose change touches the component (body + own).
    watch: FrozenSet[str]
    #: One no-lead plan per rule (initial evaluation).
    naive: Tuple[Plan, ...]
    #: Positive leads over the component's own predicates (fixpoint rounds).
    internal: Tuple[Variant, ...]
    #: Leads over earlier components (triggers; every variant of a
    #: non-recursive component, fired at OLD for its candidates and at
    #: NEW for its arrivals).
    external: Tuple[Variant, ...]
    #: Head predicate → head-bound plans (re-derivation probes: does a
    #: rule still derive this row?).  Read-only: every evaluator of an
    #: equal program shares it.
    probes: Mapping[str, Tuple[Plan, ...]]

    def plans(self) -> Tuple[Plan, ...]:
        """Every plan above (what a kernel registers indexes for)."""
        return (
            self.naive
            + tuple(variant.plan for variant in self.internal + self.external)
            + tuple(plan for plans in self.probes.values() for plan in plans)
        )


@dataclass(frozen=True)
class Component:
    """One strongly connected component of the predicate graph.

    ``recursive`` is True when the component contains a dependency edge
    (mutual or self recursion) — the flag that routes delta-stream
    maintenance to the nested fixpoint (retract, re-derive, close)
    instead of one probe step (candidates, probes, arrivals).
    """

    predicates: FrozenSet[str]
    rules: Tuple[Rule, ...]
    recursive: bool

    def has_rules(self) -> bool:
        """False for pure-EDB components (no rule derives them)."""
        return bool(self.rules)

    @cached_property
    def circuit(self) -> Circuit:
        """The component's compiled firings (built on first use)."""
        watch = set(self.predicates)
        internal, external = [], []
        probes: Dict[str, Tuple[Plan, ...]] = {}
        for rule in self.rules:
            head = rule.head.predicate
            probes[head] = probes.get(head, ()) + (compile_plan(rule, HEAD),)
            for index, item in enumerate(rule.body):
                if not isinstance(item, Literal):
                    continue
                predicate = item.atom.predicate
                watch.add(predicate)
                variant = Variant(
                    compile_plan(rule, index), predicate, not item.positive
                )
                if item.positive and predicate in self.predicates:
                    internal.append(variant)
                else:
                    external.append(variant)
        return Circuit(
            frozenset(watch),
            tuple(map(compile_plan, self.rules)),
            tuple(internal),
            tuple(external),
            MappingProxyType(probes),
        )


@lru_cache(maxsize=1024)
def components(program: Program) -> Tuple[Component, ...]:
    """The program's components, every one after the ones it reads —
    pure-EDB components included.  Memoized: programs are immutable."""
    return tuple(
        Component(
            members,
            tuple(rule for rule in program.rules if rule.head.predicate in members),
            any(target in members for target, _negative in leaving),
        )
        for members, leaving in condensation(program)
    )
