"""Two- and three-valued interpretations over ground programs.

The valid model of a program is *three-valued*: a set ``T`` of true facts,
a set ``F`` of false facts, and the rest undefined (paper, Section 2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Set, Tuple

from ..grounding import GroundProgram

__all__ = ["Truth", "Interpretation"]


class Truth(enum.Enum):
    """Kleene's three truth values."""

    FALSE = 0
    UNDEFINED = 1
    TRUE = 2

    def negate(self) -> "Truth":
        """Kleene negation."""
        if self is Truth.TRUE:
            return Truth.FALSE
        if self is Truth.FALSE:
            return Truth.TRUE
        return Truth.UNDEFINED

    @staticmethod
    def meet(left: "Truth", right: "Truth") -> "Truth":
        """Three-valued conjunction (minimum in the truth order)."""
        return left if left.value <= right.value else right

    @staticmethod
    def join(left: "Truth", right: "Truth") -> "Truth":
        """Three-valued disjunction (maximum in the truth order)."""
        return left if left.value >= right.value else right


@dataclass(frozen=True)
class Interpretation:
    """A (possibly partial) assignment of truth values to ground atoms.

    ``true`` and ``false`` are disjoint sets of atom ids; atoms in neither
    are undefined.  A *total* interpretation has no undefined atoms
    relative to the program's atom universe.
    """

    true: FrozenSet[int]
    false: FrozenSet[int]

    def __post_init__(self) -> None:
        overlap = self.true & self.false
        if overlap:
            raise ValueError(f"atoms both true and false: {sorted(overlap)[:5]}")

    @classmethod
    def total(cls, true: Iterable[int], atom_count: int) -> "Interpretation":
        """A two-valued interpretation: everything not true is false."""
        true_set = frozenset(true)
        return cls(true_set, frozenset(range(atom_count)) - true_set)

    @classmethod
    def three_valued(cls, true: Iterable[int], false: Iterable[int]) -> "Interpretation":
        """Build a partial interpretation from true/false sets."""
        return cls(frozenset(true), frozenset(false))

    def value_of(self, atom_id: int) -> Truth:
        """Truth value of an atom id."""
        if atom_id in self.true:
            return Truth.TRUE
        if atom_id in self.false:
            return Truth.FALSE
        return Truth.UNDEFINED

    def undefined_in(self, program: GroundProgram) -> FrozenSet[int]:
        """Atom ids left undefined relative to a program."""
        everything = frozenset(range(program.atom_count))
        return everything - self.true - self.false

    def is_total_for(self, program: GroundProgram) -> bool:
        """No undefined atoms relative to a program?"""
        return not self.undefined_in(program)

    def true_rows(self, program: GroundProgram, predicate: str):
        """True rows of ``predicate`` (frozenset of value tuples)."""
        return program.rows_where(lambda a: a in self.true, predicate)

    def false_rows(self, program: GroundProgram, predicate: str):
        """Certainly-false rows of a predicate."""
        return program.rows_where(lambda a: a in self.false, predicate)

    def undefined_rows(self, program: GroundProgram, predicate: str):
        """Undefined rows of a predicate."""
        return program.rows_where(
            lambda a: a not in self.true and a not in self.false, predicate
        )

    def agrees_with(self, other: "Interpretation") -> bool:
        """Same true and false sets?"""
        return self.true == other.true and self.false == other.false

    def __repr__(self) -> str:
        return f"<Interpretation true={len(self.true)} false={len(self.false)}>"
