"""The repo's digraph against brute force.

:mod:`repro.digraph` is everything dependency analysis stands on —
stratification (Theorem 4.3), local stratification (Theorem 3.1), the
service's component schedule, ``explain_undefined`` — so it is held to
definitions, not to another graph library: reachability is a
Floyd–Warshall closure, strata are longest paths counted in negative
edges.  Graphs are drawn with self-loops, parallel edges whose sign is
upgraded later, and isolated nodes.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Program, fact, neg, pos, rule
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.datalog.stratification import (
    NotStratifiedError,
    dependency_graph,
    explain_undefined,
    ground_dependency_graph,
    is_locally_stratified,
    is_stratified,
    stratify,
)
from repro.digraph import (
    DiGraph,
    has_negative_cycle,
    shortest_path,
    strongly_connected_components,
)

_EXAMPLES = 60 if os.environ.get("REPRO_BENCH_SCALE") == "smoke" else 300


@st.composite
def signed_graphs(draw):
    """``(nodes, edges)``: nodes in insertion order, ``(source, target,
    negative)`` triples in insertion order, repeats allowed."""
    size = draw(st.integers(1, 7))
    nodes = draw(st.permutations(range(size)))
    node = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(node, node, st.booleans()), max_size=16))
    return nodes, edges


def build(nodes, edges):
    graph = DiGraph()
    for node in nodes:
        graph.add_node(node)
    for source, target, negative in edges:
        graph.add_edge(source, target, negative)
    return graph


def closure(nodes, edges):
    """Floyd–Warshall: ``reach[a][b]`` iff a path of ≥ 0 edges leads
    from ``a`` to ``b``."""
    reach = {a: {b: a == b for b in nodes} for a in nodes}
    for source, target, _negative in edges:
        reach[source][target] = True
    for k in nodes:
        for a in nodes:
            for b in nodes:
                reach[a][b] = reach[a][b] or (reach[a][k] and reach[k][b])
    return reach


def signs(edges):
    """Sticky: an edge is negative once any occurrence was."""
    sign = {}
    for source, target, negative in edges:
        sign[source, target] = sign.get((source, target), False) or negative
    return sign


def on_negative_cycle(nodes, edges):
    reach = closure(nodes, edges)
    return {
        node
        for (source, target), negative in signs(edges).items()
        if negative and reach[target][source]
        for node in nodes
        if reach[node][source] and reach[target][node]
    }


def as_program(nodes, edges):
    """One zero-arity predicate per node, a fact each (so every atom is
    relevant to the grounder) and one rule per edge."""
    rules = [fact(f"p{node}") for node in nodes]
    for source, target, negative in edges:
        literal = (neg if negative else pos)(f"p{source}")
        rules.append(rule(f"p{target}", [], [literal]))
    return Program(tuple(rules))


@settings(max_examples=_EXAMPLES, deadline=None)
@given(signed_graphs())
def test_edges_are_sticky_and_ordered(graph_spec):
    nodes, edges = graph_spec
    graph = build(nodes, edges)
    assert list(graph) == list(nodes) and len(graph) == len(nodes)
    sign = signs(edges)
    # By source in node order, then by first mention.
    assert [(s, t) for s, t, _ in graph.edges()] == [
        edge for node in nodes for edge in sign if edge[0] == node
    ]
    for (source, target), negative in sign.items():
        assert graph.has_edge(source, target)
        assert graph[source][target]["negative"] == negative
    assert not graph.has_edge(nodes[0], "elsewhere")
    assert "elsewhere" not in graph


@settings(max_examples=_EXAMPLES, deadline=None)
@given(signed_graphs())
def test_components_are_mutual_reachability_classes(graph_spec):
    nodes, edges = graph_spec
    reach = closure(nodes, edges)
    components = strongly_connected_components(build(nodes, edges))
    classes = {
        frozenset(b for b in nodes if reach[a][b] and reach[b][a]) for a in nodes
    }
    assert len(components) == len(classes) and set(components) == classes
    # Successors first: an edge never points at a later component.
    position = {
        node: index for index, members in enumerate(components) for node in members
    }
    for source, target, _negative in edges:
        assert position[target] <= position[source]
    # Same construction order, same component order.
    assert components == strongly_connected_components(build(nodes, edges))


@settings(max_examples=_EXAMPLES, deadline=None)
@given(signed_graphs())
def test_stratification_is_no_negative_edge_inside_a_component(graph_spec):
    nodes, edges = graph_spec
    cyclic = bool(on_negative_cycle(nodes, edges))
    assert has_negative_cycle(build(nodes, edges)) == cyclic
    program = as_program(nodes, edges)
    assert is_stratified(program) == (not cyclic)
    assert set(dependency_graph(program)) == {f"p{node}" for node in nodes}
    if cyclic:
        try:
            stratify(program)
        except NotStratifiedError:
            return
        raise AssertionError("stratify accepted a negative cycle")
    # The least solution of: level(t) ≥ level(s) on a positive edge,
    # level(t) > level(s) on a negative one — longest paths, counted in
    # negative edges (finite: no cycle carries one).
    least = dict.fromkeys(nodes, 0)
    for _round in nodes:
        for (source, target), negative in signs(edges).items():
            least[target] = max(least[target], least[source] + negative)
    assert stratify(program) == {f"p{node}": level for node, level in least.items()}


@settings(max_examples=_EXAMPLES, deadline=None)
@given(signed_graphs())
def test_explain_undefined_walks_a_negative_cycle(graph_spec):
    nodes, edges = graph_spec
    ground_program = ground(as_program(nodes, edges), Database())
    graph = ground_dependency_graph(ground_program)
    ids = {node: ground_program.atom_id(f"p{node}", ()) for node in nodes}
    assert None not in ids.values() and set(graph) == set(ids.values())
    sign = {
        (ids[source], ids[target]): negative
        for (source, target), negative in signs(edges).items()
    }
    assert {(s, t): negative for s, t, negative in graph.edges()} == sign
    cyclic = on_negative_cycle(nodes, edges)
    assert is_locally_stratified(ground_program) == (not cyclic)
    name = {atom_id: f"p{node}" for node, atom_id in ids.items()}
    for node in nodes:
        walk = explain_undefined(ground_program, ids[node])
        if node not in cyclic:
            assert walk is None
            continue
        # Closed, through the atom, every step an edge, one negative.
        assert walk[0] == walk[-1] == f"p{node}" and len(walk) >= 2
        steps = list(zip(walk, walk[1:]))
        by_name = {(name[s], name[t]): negative for (s, t), negative in sign.items()}
        assert all(step in by_name for step in steps)
        assert any(by_name[step] for step in steps)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(signed_graphs(), st.data())
def test_shortest_path_stays_inside_and_is_shortest(graph_spec, data):
    nodes, edges = graph_spec
    graph = build(nodes, edges)
    within = set(data.draw(st.lists(st.sampled_from(nodes), unique=True)))
    source, target = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
    inside = [(s, t, n) for s, t, n in edges if s in within and t in within]
    # Bellman–Ford over the induced subgraph.
    distance = {source: 0} if source in within else {}
    for _round in nodes:
        for s, t, _negative in inside:
            if s in distance:
                distance[t] = min(distance.get(t, len(nodes)), distance[s] + 1)
    path = shortest_path(graph, source, target, within)
    if target not in distance:
        assert path is None
        return
    assert path[0] == source and path[-1] == target
    assert len(path) == distance[target] + 1 and set(path) <= within
    assert all(graph.has_edge(s, t) for s, t in zip(path, path[1:]))


def test_component_order_does_not_depend_on_the_hash_seed():
    """The bench's exact work counts rest on a schedule that is a
    function of the program text alone."""
    code = (
        "from repro.service.registry import prepare_program\n"
        "prepared = prepare_program('p', '''\n"
        "  tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
        "  far(X) :- tc(X, Y), not near(X). near(X) :- edge(X, X).\n"
        "  odd(X) :- edge(X, Y), even(Y). even(X) :- edge(X, Y), odd(Y).\n"
        "  lone(X) :- other(X).''')\n"
        "print([sorted(c.predicates) for c in prepared.schedule])\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
