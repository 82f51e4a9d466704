"""Stratification analysis.

The paper's earlier equivalence result (Theorem 4.3) concerns *stratified*
programs: programs whose predicate dependency graph has no cycle through a
negative edge.  This module builds the dependency graph and condenses it
once per program (:func:`condensation`: what strata, the open cone and
:mod:`repro.datalog.schedule` read), tests stratification, computes
strata, and additionally tests *local*
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
from .facts import format_fact

if TYPE_CHECKING:
    from .grounding import GroundProgram

__all__ = [
    "SEMANTICS",
    "NotStratifiedError",
    "condensation",
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


#: The dependency graph condensed: its strongly connected components,
#: dependencies first, each beside the edges that leave its members,
#: ``(target, negative)`` (an edge inside the component included).
Condensation = Tuple[Tuple[FrozenSet[str], Tuple[Tuple[str, bool], ...]], ...]


@lru_cache(maxsize=1024)
def condensation(program: Program) -> Condensation:
    """What every analysis below reads — strata, the open cone, and
    :func:`~repro.datalog.schedule.components`.  Memoized: programs are
    immutable, and so is what it returns."""
    graph = dependency_graph(program)
    # Components come out dependents first; reversed, every component
    # follows the ones it reads.
    return tuple(
        (
            members,
            tuple(
                (target, data["negative"])
                for source in members
                for target, data in graph[source].items()
            ),
        )
        for members in reversed(strongly_connected_components(graph))
    )


def is_stratified(program: Program) -> bool:
    """True iff no cycle of the dependency graph passes through negation."""
    return not open_cone(program)


def stratify(program: Program) -> Dict[str, int]:
    """Assign each predicate a stratum (0-based).

    Positive dependencies may stay level; negative dependencies must strictly
    increase.  Raises :class:`NotStratifiedError` when impossible.
    """
    if open_cone(program):
        raise NotStratifiedError(f"program {program.name or ''} is not stratified")
    strata: Dict[str, int] = {}
    # Dependencies first: a component's level is final before it is
    # pushed along its edges.
    for members, leaving in condensation(program):
        level = max(strata.get(predicate, 0) for predicate in members)
        strata.update(dict.fromkeys(members, level))
        for target, negative in leaving:
            if target not in members:
                strata[target] = max(strata.get(target, 0), level + negative)
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
    cone: Set[str] = set()
    # Dependencies first: whatever reads the cone is marked before reached.
    for members, leaving in condensation(program):
        if cone.isdisjoint(members) and not any(
            negative and target in members for target, negative in leaving
        ):
            continue
        cone.update(members)
        cone.update(target for target, _negative in leaving)
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
    return [format_fact(*program.decode(node)) for node in to_source + back_home]


def is_locally_stratified(program: GroundProgram) -> bool:
    """True iff the *ground* dependency graph has no negative cycle.

    Local stratification is the argument behind Theorem 3.1 (IFP-algebra
    operations are well-defined) and explains Example 3: the WIN equation
    is locally stratified iff the MOVE graph is acyclic.  On locally
    stratified ground programs the well-founded/valid model is total.
    """
    return not has_negative_cycle(ground_dependency_graph(program))
