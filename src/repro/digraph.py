"""A signed directed graph, as small as dependency analysis needs.

The paper's stratification (Theorem 4.3) and local stratification
(Theorem 3.1) arguments ask four things of a dependency graph: edges
that remember whether *any* of their occurrences is negated, strongly
connected components, an order of those components in which every
dependency precedes its dependents, and — for diagnostics — one path
inside a component.  The graphs are tiny (2–5 predicates per program;
a few thousand atoms when a ground program is inspected), so this leaf
module replaces a general graph library with exactly those operations.

Everything iterates in insertion order: building the same graph in the
same order yields the same components in the same order, whatever the
hash seed.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Container,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "DiGraph",
    "strongly_connected_components",
    "has_negative_cycle",
    "shortest_path",
]

Node = Hashable


class DiGraph:
    """Nodes and signed edges, both kept in insertion order.

    ``graph[source][target]["negative"]`` reads an edge's sign;
    ``add_edge`` is *sticky*: once any occurrence of an edge was
    negative, the edge stays negative.
    """

    def __init__(self) -> None:
        self._successors: Dict[Node, Dict[Node, Dict[str, bool]]] = {}

    def add_node(self, node: Node) -> None:
        self._successors.setdefault(node, {})

    def add_edge(self, source: Node, target: Node, negative: bool = False) -> None:
        self.add_node(source)
        self.add_node(target)
        data = self._successors[source].setdefault(target, {"negative": False})
        data["negative"] = data["negative"] or bool(negative)

    def has_edge(self, source: Node, target: Node) -> bool:
        return target in self._successors.get(source, ())

    def edges(self) -> Iterator[Tuple[Node, Node, bool]]:
        """``(source, target, negative)`` for every edge."""
        for source, targets in self._successors.items():
            for target, data in targets.items():
                yield source, target, data["negative"]

    def __getitem__(self, node: Node) -> Dict[Node, Dict[str, bool]]:
        return self._successors[node]

    def __contains__(self, node: object) -> bool:
        return node in self._successors

    def __iter__(self) -> Iterator[Node]:
        return iter(self._successors)

    def __len__(self) -> int:
        return len(self._successors)


def strongly_connected_components(
    graph: Iterable[Node],
    successors: Optional[Callable[[Node], Iterable[Node]]] = None,
) -> List[FrozenSet[Node]]:
    """Tarjan's algorithm, iteratively (ground graphs outgrow the
    recursion limit).

    ``graph`` is a :class:`DiGraph`, or any iterable of nodes together
    with ``successors(node)`` — how the three-valued solvers walk an
    atom-level graph without building one.  A successor must be one of
    the nodes.

    Components come out **successors first**: a component is emitted
    only after every component reachable from it, so the reversed list
    is a topological order of the condensation.
    """
    if successors is None:
        successors = graph.__getitem__
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    stack: List[Node] = []
    on_stack = set()
    components: List[FrozenSet[Node]] = []
    for root in graph:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, pending = work[-1]
            for successor in pending:
                if successor not in index:
                    index[successor] = lowlink[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors(successor))))
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        if member == node:
                            break
                    components.append(frozenset(members))
    return components


def has_negative_cycle(graph: DiGraph) -> bool:
    """Does some cycle pass through a negative edge — i.e. does a
    negative edge join two nodes of one component?"""
    component_of = {
        node: number
        for number, component in enumerate(strongly_connected_components(graph))
        for node in component
    }
    return any(
        negative and component_of[source] == component_of[target]
        for source, target, negative in graph.edges()
    )


def shortest_path(
    graph: DiGraph, source: Node, target: Node, within: Container[Node]
) -> Optional[List[Node]]:
    """A shortest ``source → target`` path through nodes of ``within``
    (breadth first), or None when there is none."""
    if source not in within or target not in within:
        return None
    parent: Dict[Node, Optional[Node]] = {source: None}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        if node == target:
            path = []
            while node is not None:
                path.append(node)
                node = parent[node]
            return path[::-1]
        for successor in graph[node]:
            if successor in within and successor not in parent:
                parent[successor] = node
                frontier.append(successor)
    return None
