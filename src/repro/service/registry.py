"""Program registration and prepared plans.

A long-lived query service should pay for parsing, safety checking,
stratification, and binding-order compilation **once** per program, not
once per query.  :func:`prepare_program` does exactly that: it turns
program text (or an AST) into a :class:`PreparedProgram` holding

* the compiled binding order of every rule (the safety check — an
  unsafe rule has no evaluable order, Definition 4.1 operationalised);
* a dependency-condensation **component schedule** (strongly connected
  components of the predicate graph in topological order, each flagged
  recursive or not) — the unit the maintenance engines iterate over;
  and
* the classical stratum assignment when the program is stratified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple, Union

from ..datalog.ast import Literal, Program, Rule
from ..datalog.binding import compiled_binding_order
from ..datalog.database import Database, split_program_and_facts
from ..datalog.kernel import HEAD, Plan, compile_plan
from ..datalog.parser import parse_program
from ..datalog.stratification import dependency_graph, is_stratified, stratify
from ..digraph import strongly_connected_components

__all__ = [
    "Circuit",
    "Component",
    "PreparedProgram",
    "prepare_program",
    "split_program_and_facts",
]


class Variant(NamedTuple):
    """One lead-first firing: body literal ``plan.pivot`` carries the delta."""

    plan: Plan
    predicate: str
    negated: bool


class Circuit(NamedTuple):
    """Everything a maintenance step needs from a component that depends
    only on the program: compiled once, shared by every engine."""

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
    #: rule still derive this row?).
    probes: Dict[str, Tuple[Plan, ...]]

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
    rules: Tuple[Tuple[Rule, Tuple[Tuple[str, object], ...]], ...]
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
        for rule, _order in self.rules:
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
            tuple(compile_plan(rule) for rule, _order in self.rules),
            tuple(internal),
            tuple(external),
            probes,
        )


@dataclass
class PreparedProgram:
    """A program compiled once for repeated serving."""

    name: str
    program: Program
    seed_facts: Database
    stratified: bool
    strata: Optional[Dict[str, int]]
    schedule: Tuple[Component, ...]
    arities: Dict[str, int]
    #: The program text it was compiled from (``None`` for an AST):
    #: what checkpoints carry and recovery re-registers.
    source: Optional[str] = None

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary (the ``register`` reply)."""
        return {
            "name": self.name,
            "rules": len(self.program.rules),
            "stratified": self.stratified,
            "strata": (max(self.strata.values(), default=0) + 1)
            if self.strata is not None and self.strata
            else (1 if self.stratified else None),
            "components": len(self.schedule),
            "recursive_components": sum(
                1 for component in self.schedule if component.recursive
            ),
            "idb": sorted(self.program.idb_predicates()),
            "edb": sorted(self.program.edb_predicates()),
            "seed_facts": self.seed_facts.fact_count(),
        }


def _build_schedule(program: Program) -> Tuple[Component, ...]:
    graph = dependency_graph(program)
    components = []
    # Components come out dependents first: reversed, every component
    # follows the ones it reads.
    for members in reversed(strongly_connected_components(graph)):
        recursive = any(
            graph.has_edge(source, target)
            for source in members
            for target in members
        )
        rules = tuple(
            (rule, compiled_binding_order(rule))
            for rule in program.rules
            if rule.head.predicate in members
        )
        components.append(Component(members, rules, recursive))
    return tuple(components)


def prepare_program(
    name: str, source: Union[str, Program]
) -> PreparedProgram:
    """Compile ``source`` (text or AST) into a :class:`PreparedProgram`.

    Raises :class:`~repro.datalog.binding.UnsafeRuleError` when any
    rule lacks an evaluable binding order, and parse errors verbatim.
    Inline ground facts are split off into ``seed_facts``.
    """
    if isinstance(source, str):
        program = parse_program(source, name=name)
    else:
        program = source
    program, seed_facts = split_program_and_facts(program)
    arities = program.arities()
    for rule in program.rules:
        compiled_binding_order(rule)  # safety check; memoized for reuse
    stratified = is_stratified(program)
    strata = stratify(program) if stratified else None
    schedule = _build_schedule(program)
    return PreparedProgram(
        name=name,
        program=program,
        seed_facts=seed_facts,
        stratified=stratified,
        strata=strata,
        schedule=schedule,
        arities=arities,
        source=source if isinstance(source, str) else None,
    )

