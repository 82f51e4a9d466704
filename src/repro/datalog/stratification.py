"""Stratification analysis.

The paper's earlier equivalence result (Theorem 4.3) concerns *stratified*
programs: programs whose predicate dependency graph has no cycle through a
negative edge.  This module builds the dependency graph, tests
stratification, computes strata, and additionally tests *local*
stratification on ground programs (used in the Theorem 3.1 discussion:
IFP-algebra specifications are well-defined by a "local stratification"
argument, while Example 3's WIN equation is locally stratified exactly
when MOVE is acyclic).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from ..digraph import (
    DiGraph,
    has_negative_cycle,
    shortest_path,
    strongly_connected_components,
)
from .ast import Program

if TYPE_CHECKING:
    from .grounding import GroundProgram

__all__ = [
    "SEMANTICS",
    "NotStratifiedError",
    "dependency_graph",
    "negative_edges",
    "is_stratified",
    "stratify",
    "open_cone",
    "strata_partition",
    "ground_dependency_graph",
    "is_locally_stratified",
    "explain_undefined",
]

#: The semantics :func:`~repro.datalog.engine.run` (and a served view)
#: answers under; ``stratified`` only for stratified programs.
SEMANTICS = ("stratified", "inflationary", "wellfounded", "valid")


class NotStratifiedError(ValueError):
    """Raised when strata are requested for a non-stratified program."""


def dependency_graph(program: Program) -> DiGraph:
    """Predicate dependency graph: edge ``q → p`` when ``q`` occurs in the
    body of a rule for ``p``; the edge attribute ``negative`` records
    whether any such occurrence is negated."""
    graph = DiGraph()
    for rule in program.rules:
        graph.add_node(rule.head.predicate)
        for literal in rule.positive_literals():
            graph.add_edge(literal.atom.predicate, rule.head.predicate, False)
        for literal in rule.negative_literals():
            graph.add_edge(literal.atom.predicate, rule.head.predicate, True)
    return graph


def negative_edges(graph: DiGraph) -> List[Tuple[str, str]]:
    """Edges carrying a negated dependency."""
    return [(source, target) for source, target, negative in graph.edges() if negative]


def is_stratified(program: Program) -> bool:
    """True iff no cycle of the dependency graph passes through negation."""
    return not has_negative_cycle(dependency_graph(program))


def stratify(program: Program) -> Dict[str, int]:
    """Assign each predicate a stratum (0-based).

    Positive dependencies may stay level; negative dependencies must strictly
    increase.  Raises :class:`NotStratifiedError` when impossible.
    """
    graph = dependency_graph(program)
    components = strongly_connected_components(graph)
    component_of = {
        predicate: number
        for number, component in enumerate(components)
        for predicate in component
    }
    # Components come out dependents first; walking them backwards, a
    # component's level is final before it is pushed along its edges.
    level = [0] * len(components)
    for number in reversed(range(len(components))):
        for source in components[number]:
            for target, data in graph[source].items():
                dependent = component_of[target]
                if dependent != number:
                    level[dependent] = max(
                        level[dependent], level[number] + data["negative"]
                    )
                elif data["negative"]:
                    raise NotStratifiedError(
                        f"program {program.name or ''} is not stratified"
                    )
    strata = {predicate: level[number] for predicate, number in component_of.items()}
    # EDB predicates never at a positive level unless forced by the graph.
    for predicate in program.edb_predicates():
        strata.setdefault(predicate, 0)
    return strata


@lru_cache(maxsize=1024)
def open_cone(program: Program) -> FrozenSet[str]:
    """The predicates negation leaves open: every component of the
    dependency graph with a negative edge inside it, plus everything
    that depends on one.  Empty iff the program is stratified.

    The rules headed outside the cone form a stratified program and read
    nothing inside it, so they have a total model computable stratum by
    stratum (Section 4); only the cone needs a three-valued semantics,
    over that model as its database.  Memoized: programs are immutable.
    """
    graph = dependency_graph(program)
    cone: Set[str] = set()
    # Dependencies first: whatever reads the cone is marked before reached.
    for component in reversed(strongly_connected_components(graph)):
        if cone.isdisjoint(component) and not any(
            data["negative"] and target in component
            for source in component
            for target, data in graph[source].items()
        ):
            continue
        cone.update(component)
        for source in component:
            cone.update(graph[source])
    return frozenset(cone)


def strata_partition(program: Program) -> List[FrozenSet[str]]:
    """Predicates grouped by stratum, lowest first."""
    strata = stratify(program)
    height = max(strata.values(), default=0)
    return [
        frozenset(p for p, s in strata.items() if s == level)
        for level in range(height + 1)
    ]


def ground_dependency_graph(program: GroundProgram) -> DiGraph:
    """Atom-level dependency graph of a ground program."""
    graph = DiGraph()
    for rule in program.rules:
        graph.add_node(rule.head)
        for atom in rule.pos:
            graph.add_edge(atom, rule.head, False)
        for atom in rule.neg:
            graph.add_edge(atom, rule.head, True)
    return graph


def explain_undefined(program: GroundProgram, atom_id: int) -> Optional[List[str]]:
    """A negative cycle through ``atom_id`` in the ground dependency
    graph, rendered as atom strings — the structural reason a membership
    can come out undefined under the valid/well-founded semantics.

    Returns None when the atom lies on no cycle through negation (its
    truth value, whatever it is, has a stratified explanation).
    """
    graph = ground_dependency_graph(program)
    if atom_id not in graph:
        return None
    component = next(
        members
        for members in strongly_connected_components(graph)
        if atom_id in members
    )
    negative_inside = next(
        (
            (source, target)
            for source, target, negative in graph.edges()
            if negative and source in component and target in component
        ),
        None,
    )
    if negative_inside is None:
        return None
    # A closed walk through atom_id and that negative edge.
    source, target = negative_inside
    to_source = shortest_path(graph, atom_id, source, component)
    back_home = shortest_path(graph, target, atom_id, component)
    rendered = []
    for node in to_source + back_home:
        predicate, args = program.decode(node)
        inner = ", ".join(str(a) for a in args)
        rendered.append(f"{predicate}({inner})" if args else predicate)
    return rendered


def is_locally_stratified(program: GroundProgram) -> bool:
    """True iff the *ground* dependency graph has no negative cycle.

    Local stratification is the argument behind Theorem 3.1 (IFP-algebra
    operations are well-defined) and explains Example 3: the WIN equation
    is locally stratified iff the MOVE graph is acyclic.  On locally
    stratified ground programs the well-founded/valid model is total.
    """
    return not has_negative_cycle(ground_dependency_graph(program))
