"""Unit tests for the semiring-annotated evaluator (K-relations).

Complement to the property suite (``tests/property/test_semiring_laws``):
fixed, readable scenarios per shipped semiring — tropical shortest
paths, naturals derivation counting and its documented divergence on
cyclic derivation spaces, why-provenance witnesses, and the boolean
negation gate.
"""

import math

import pytest

from repro.datalog import run
from repro.datalog.annotated import annotated_model, edb_annotations
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.relations import Atom
from repro.robustness import BudgetExceeded
from repro.semiring import SEMIRINGS, get_semiring

TC = parse_program(
    "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."
)
HOP = parse_program("hop(X, Z) :- edge(X, Y), edge(Y, Z).")

A, B, C, D = Atom("a"), Atom("b"), Atom("c"), Atom("d")


def _chain(*pairs, annotations=None):
    database = Database()
    database.declare("edge")
    annotations = annotations or {}
    for pair in pairs:
        database.add("edge", *pair, annotation=annotations.get(pair))
    return database


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_support_matches_boolean_engine(name):
    """The non-zero rows of the annotated model coincide with the
    boolean least model, whatever the semiring (no zero-divisors)."""
    database = _chain((A, B), (B, C), (C, A))  # a cycle, worst case
    semiring = get_semiring(name)
    if name == "naturals":
        # Bag semantics diverges on cyclic derivation spaces; compare
        # on the acyclic program instead.
        model = annotated_model(HOP, database, semiring)
        oracle = run(HOP, _chain((A, B), (B, C), (C, A)))
        assert set(model["hop"]) == oracle.true_rows("hop")
        return
    model = annotated_model(TC, database, semiring)
    oracle = run(TC, _chain((A, B), (B, C), (C, A)))
    assert set(model["tc"]) == oracle.true_rows("tc")


def test_tropical_computes_shortest_paths():
    database = _chain(
        (A, B), (B, C), (A, C),
        annotations={(A, B): 1, (B, C): 1, (A, C): 5},
    )
    model = annotated_model(TC, database, get_semiring("tropical"))
    # Direct a→c costs 5 but the two-hop route costs 2: min wins.
    assert model["tc"][(A, C)] == 2
    assert model["tc"][(A, B)] == 1
    # Tropical from_edb defaults to the semiring one (cost 0): an
    # unweighted edge is free.
    free = annotated_model(TC, _chain((A, B), (B, C)), get_semiring("tropical"))
    assert free["tc"][(A, C)] == 0


def test_tropical_cycle_converges_bellman_ford():
    database = _chain(
        (A, B), (B, A), annotations={(A, B): 2, (B, A): 3}
    )
    model = annotated_model(TC, database, get_semiring("tropical"))
    # Going around the cycle only adds weight; the fixpoint keeps the
    # cheapest (simple-path) costs.
    assert model["tc"][(A, A)] == 5
    assert model["tc"][(A, B)] == 2


def test_naturals_counts_derivations():
    # Two distinct derivations of hop(a, c): via b and via d.
    database = _chain((A, B), (B, C), (A, D), (D, C))
    model = annotated_model(HOP, database, get_semiring("naturals"))
    assert model["hop"][(A, C)] == 2
    # Explicit multiplicities multiply through the rule body.
    weighted = _chain(
        (A, B), (B, C), annotations={(A, B): 3, (B, C): 2}
    )
    model = annotated_model(HOP, weighted, get_semiring("naturals"))
    assert model["hop"][(A, C)] == 6


def test_naturals_diverges_on_cyclic_derivations():
    """A cycle gives every tc row infinitely many derivations: no
    finite bag annotation exists, and the round cap must surface that
    as BudgetExceeded rather than looping."""
    database = _chain((A, B), (B, A))
    with pytest.raises(BudgetExceeded):
        annotated_model(
            TC, database, get_semiring("naturals"), max_rounds=50
        )


def test_why_provenance_collects_witnesses():
    database = _chain((A, B), (B, C), (A, C))
    model = annotated_model(TC, database, get_semiring("why"))
    witnesses = model["tc"][(A, C)]
    # Two minimal witnesses: the direct edge, and the two-hop route.
    assert frozenset({"edge(a, c)"}) in witnesses
    assert frozenset({"edge(a, b)", "edge(b, c)"}) in witnesses
    # Base facts witness themselves.
    assert model["edge"][(A, B)] == frozenset({frozenset({"edge(a, b)"})})


def test_negation_is_a_boolean_gate():
    """Negative literals gate derivations without contributing weight:
    only positive support is tracked (standard why-provenance rule)."""
    program = parse_program(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        sink(X) :- node(X), not out(X).
        out(X) :- edge(X, Y).
        """
    )
    database = _chain((A, B), (B, C), annotations={(A, B): 4, (B, C): 4})
    database.declare("node")
    for node in (A, B, C):
        database.add("node", node)
    model = annotated_model(program, database, get_semiring("tropical"))
    # c has no outgoing edge: sink(c) holds, at the weight of its
    # positive support (node(c), unannotated → one = 0) only.
    assert model["sink"] == {(C,): 0}
    # The boolean oracle agrees on the support.
    oracle = run(program, _chain((A, B), (B, C)).add("node", A)
                 .add("node", B).add("node", C))
    assert set(model["sink"]) == oracle.true_rows("sink")


def test_edb_annotations_drop_zero_rows():
    semiring = get_semiring("naturals")
    database = _chain((A, B), (B, C), annotations={(A, B): 0})
    maps = edb_annotations(database, semiring)
    assert (A, B) not in maps["edge"]  # multiplicity 0 == absent
    assert maps["edge"][(B, C)] == 1


# ---------------------------------------------------------------------------
# annotated_model against a reference that shares nothing with it
# ---------------------------------------------------------------------------
#
# The model and the serving engine enumerate rule instances through the
# same widened kernel plans, so the service fuzz (which compares the two)
# cannot see a defect in what they share.  This reference does: plain
# nested loops over the annotation maps, one dict binding per candidate.

import itertools  # noqa: E402
import random  # noqa: E402

from repro.datalog.ast import Comparison, Const, Var, eval_term, term_vars  # noqa: E402
from repro.datalog.binding import _compare  # noqa: E402
from repro.datalog.stratification import stratify  # noqa: E402


def _reference_instances(rule, maps):
    """``(head row, annotations of the positive body rows)`` of every
    instance of ``rule`` over ``maps``, by brute force."""
    positives = rule.positive_literals()
    tables = [maps.get(literal.atom.predicate, {}).items() for literal in positives]
    for rows in itertools.product(*tables):
        binding = {}
        for literal, (row, _annotation) in zip(positives, rows):
            if len(row) != len(literal.atom.args):
                break
            for arg, value in zip(literal.atom.args, row):
                if isinstance(arg, Const):
                    if arg.value != value:
                        break
                elif binding.setdefault(arg, value) != value:
                    break
            else:
                continue
            break
        else:
            pending = [item for item in rule.body if isinstance(item, Comparison)]
            holds = True
            while pending and holds:
                for item in pending:
                    left, right = (
                        eval_term(term, binding, None)
                        if term_vars(term) <= binding.keys()
                        else None
                        for term in (item.left, item.right)
                    )
                    if left is not None and right is not None:
                        holds = _compare(item.op, left, right)
                    elif isinstance(item.left, Var) and right is not None:
                        binding[item.left] = right
                    elif isinstance(item.right, Var) and left is not None:
                        binding[item.right] = left
                    else:
                        continue
                    pending.remove(item)
                    break
                else:
                    raise AssertionError(f"unsafe rule in the corpus: {rule!r}")
            if not holds:
                continue
            if any(
                tuple(eval_term(arg, binding, None) for arg in literal.atom.args)
                in maps.get(literal.atom.predicate, {})
                for literal in rule.negative_literals()
            ):
                continue
            yield (
                tuple(eval_term(arg, binding, None) for arg in rule.head.args),
                [annotation for _row, annotation in rows],
            )


def reference_model(program, database, semiring, max_rounds=200):
    """Stratum-wise Jacobi iteration over :func:`_reference_instances`."""
    strata = stratify(program)
    edb = edb_annotations(database, semiring)
    maps = {predicate: dict(rows) for predicate, rows in edb.items()}
    for level in range(max(strata.values(), default=0) + 1):
        rules = [r for r in program.rules if strata[r.head.predicate] == level]
        heads = {rule.head.predicate for rule in rules}
        for _round in range(max_rounds):
            fresh = {predicate: dict(edb.get(predicate, {})) for predicate in heads}
            for rule in rules:
                bucket = fresh[rule.head.predicate]
                for head_row, annotations in _reference_instances(rule, maps):
                    weight = semiring.one
                    for annotation in annotations:
                        weight = semiring.mul(weight, annotation)
                    bucket[head_row] = (
                        semiring.add(bucket[head_row], weight)
                        if head_row in bucket
                        else weight
                    )
            if all(fresh[p] == maps.get(p, {}) for p in heads):
                break
            maps.update(fresh)
        else:
            raise AssertionError("reference did not converge")
    return maps


#: (program, binary update predicates, unary update predicates).
REFERENCE_CORPUS = {
    "tc": (TC, ("edge",), ()),
    "nonlinear": (
        parse_program("tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), tc(Y, Z)."),
        ("edge",),
        (),
    ),
    "mutual": (
        parse_program(
            """
            odd(X, Y) :- edge(X, Y).
            odd(X, Z) :- even(X, Y), edge(Y, Z).
            even(X, Z) :- odd(X, Y), edge(Y, Z).
            """
        ),
        ("edge",),
        (),
    ),
    "gated": (
        parse_program(
            """
            r(X, Y) :- e(X, Y), not b(X, Y).
            r(X, Z) :- r(X, Y), e(Y, Z), not b(Y, Z).
            """
        ),
        ("e", "b"),
        (),
    ),
    "strata": (
        parse_program(
            """
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
            apart(X, Y) :- node(X), node(Y), not tc(X, Y).
            lacks(X) :- apart(X, Y).
            full(X) :- node(X), not lacks(X).
            """
        ),
        ("edge",),
        ("node",),
    ),
    "shapes": (
        parse_program(
            """
            loop(X) :- edge(X, X).
            out(X, a) :- edge(X, Y), X != Y.
            twin(X, Y, W) :- edge(X, Y), edge(Y, X), W = X.
            """
        ),
        ("edge",),
        (),
    ),
}


def _random_database(rng, binary, unary, nodes, acyclic, weights):
    database = Database()
    for predicate in binary + unary:
        database.declare(predicate)
    for predicate in binary:
        for _ in range(rng.randint(1, 6)):
            i, j = rng.randrange(nodes), rng.randrange(nodes)
            if acyclic:
                if i == j:
                    continue
                i, j = min(i, j), max(i, j)
            annotation = rng.choice(weights) if weights else None
            database.add(predicate, Atom(f"n{i}"), Atom(f"n{j}"), annotation=annotation)
    for predicate in unary:
        for i in range(nodes):
            if rng.random() < 0.7:
                database.add(predicate, Atom(f"n{i}"))
    return database


@pytest.mark.parametrize("name", sorted(REFERENCE_CORPUS))
@pytest.mark.parametrize(
    "semiring_name, acyclic, weights",
    [
        ("naturals", True, (None, 1, 2, 3)),
        ("tropical", False, (None, 0, 1, 2, 5)),
        ("why", False, ()),
    ],
)
def test_model_matches_nested_loop_reference(name, semiring_name, acyclic, weights):
    program, binary, unary = REFERENCE_CORPUS[name]
    semiring = get_semiring(semiring_name)
    for seed in range(12):
        rng = random.Random(f"{name}-{semiring_name}-{seed}")
        database = _random_database(rng, binary, unary, 4, acyclic, weights)
        expected = reference_model(program, database, semiring)
        model = annotated_model(program, database, semiring)
        assert {p: rows for p, rows in model.items() if rows} == {
            p: rows for p, rows in expected.items() if rows
        }, f"seed {seed}: {database.pretty()}"
