"""Differential property suite: ``ground()`` vs. brute-force instantiation.

The grounder runs the relevant-atom closure on the join kernel (compiled
plans, index probes, one lead per changed literal and round).  The
reference below knows none of that: per round it tries every assignment
of every rule's variables over the whole domain against the atoms known
at the start of the round, and adds the heads it finds at the end of it.
Both must return the same ground program — as a set of decoded
``(head, positive atoms, negated atoms)`` rules — the same possible
atoms and the same ``complete`` verdict, also when ``max_rounds`` cuts
the closure short.

Programs are random safe programs (``program_strategies``: safe by
construction) over two EDB and three IDB predicates (one of them, ``m``,
used with two arities) with repeated variables, constants in literals,
function terms in heads, bodies and negated literals (``pred`` is
partial: undefined on 0), comparisons that assign or test, bodiless
rules, and negation over atoms that may or may not survive the closure.
"""

import itertools
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Comparison, eval_term
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.relations.universe import standard_registry

from .program_strategies import DOMAIN, programs, stores

REGISTRY = standard_registry()
COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt}


def reference(program, facts, max_rounds):
    """(rules, atoms, complete) by nested loops, round by round."""
    known = {(name, row) for name, rows in facts.items() for row in rows}
    instances = set()
    complete = False
    for _round in range(max_rounds):
        heads = set()
        for rule in program.rules:
            variables = sorted(rule.vars(), key=repr)
            for values in itertools.product(DOMAIN, repeat=len(variables)):
                env = dict(zip(variables, values))
                atoms = {True: [], False: []}
                for item in rule.body:
                    if isinstance(item, Comparison):
                        left = eval_term(item.left, env, REGISTRY)
                        right = eval_term(item.right, env, REGISTRY)
                        if None in (left, right) or not COMPARE[item.op](left, right):
                            break
                        continue
                    row = tuple(eval_term(arg, env, REGISTRY) for arg in item.atom.args)
                    atom = (item.atom.predicate, row)
                    if None in row or (item.positive and atom not in known):
                        break
                    atoms[item.positive].append(atom)
                else:
                    head = tuple(eval_term(arg, env, REGISTRY) for arg in rule.head.args)
                    if None not in head:
                        head = (rule.head.predicate, head)
                        heads.add(head)
                        instances.add((head, tuple(sorted(atoms[True])), tuple(atoms[False])))
        if heads <= known:
            complete = True
            break
        known |= heads
    rules = {
        ((name, row), (), frozenset()) for name, rows in facts.items() for row in rows
    }
    for head, positive, negated in instances:
        rules.add((head, positive, frozenset(negated) & known))
    return rules, known, complete


def _decoded(ground_program):
    decode = ground_program.decode
    return [
        (decode(rule.head), tuple(map(decode, rule.pos)), tuple(map(decode, rule.neg)))
        for rule in ground_program.rules
    ]


@given(programs(), stores, st.sampled_from([1, 2, 3, 50]))
@settings(max_examples=300, deadline=None)
def test_ground_equals_brute_force_instantiation(program, facts, max_rounds):
    ground_program = ground(
        program,
        Database(facts),
        registry=REGISTRY,
        max_rounds=max_rounds,
        require_complete=False,
    )
    expected_rules, expected_atoms, complete = reference(program, facts, max_rounds)
    decoded = _decoded(ground_program)
    assert len(set(decoded)) == len(decoded)  # no instance listed twice
    assert {
        (head, tuple(sorted(positive)), frozenset(negated))
        for head, positive, negated in decoded
    } == expected_rules
    assert {(name, row) for _id, name, row in ground_program.atoms()} == expected_atoms
    assert ground_program.complete == complete
