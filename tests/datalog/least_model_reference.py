"""Naive iterate-to-fixpoint least model: the reference the
dependency-counting ``least_model_with_oracle`` is checked against
(``test_semantics_fixpoints.py``, ``test_ground_semantics.py``) and timed
against (``benchmarks/bench_p02_seminaive.py``)."""

from typing import Callable, FrozenSet, Sequence, Set

from repro.datalog.grounding import GroundRule


def least_model_naive(
    rules: Sequence[GroundRule], negation_oracle: Callable[[int], bool]
) -> FrozenSet[int]:
    """Sweep every rule until a sweep derives nothing new."""
    derived: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head in derived:
                continue
            if all(atom in derived for atom in rule.pos) and all(
                negation_oracle(atom) for atom in rule.neg
            ):
                derived.add(rule.head)
                changed = True
    return frozenset(derived)
