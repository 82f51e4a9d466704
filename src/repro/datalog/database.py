"""Extensional databases (EDB) for the deductive engine.

A :class:`Database` maps predicate names to finite sets of ground value
tuples.  Conversion helpers connect it to the algebraic side: a database
*relation* (a named set, Section 3) corresponds to a *unary* predicate
holding its members — this is exactly the correspondence the translations
of Sections 5 and 6 rely on.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, Mapping
from typing import Optional, Set, Tuple

from ..relations.values import FSet, Tup, Value, is_value, sorted_values
from .ast import Program

if TYPE_CHECKING:
    from ..relations.relation import Relation

__all__ = ["Database", "split_program_and_facts"]


class Database:
    """A finite collection of ground facts, grouped by predicate."""

    def __init__(self, facts: Optional[Mapping[str, Iterable[Tuple[Value, ...]]]] = None):
        self._facts: Dict[str, Set[Tuple[Value, ...]]] = {}
        # Explicit semiring annotations, predicate → row → carrier
        # value.  Only *explicitly supplied* annotations live here —
        # facts without one take their semiring's ``from_edb`` default
        # at evaluation time, so boolean databases never populate this
        # and their fingerprints stay byte-identical to the
        # pre-annotation format.
        self._annotations: Dict[str, Dict[Tuple[Value, ...], object]] = {}
        # Cached content hash; None = dirty.  Every mutator clears it
        # *before* touching the fact sets so there is no window in which
        # a stale fingerprint could be observed for mutated content (a
        # stale hit would poison the ground-program cache keyed on it).
        self._fingerprint: Optional[str] = None
        if facts:
            for predicate, rows in facts.items():
                for row in rows:
                    self.add(predicate, *row)

    # -- construction --------------------------------------------------------

    def add(self, predicate: str, *args: Value, annotation: object = None) -> "Database":
        """Add a ground fact ``predicate(args...)`` (mutating; returns self).

        ``annotation`` attaches an explicit semiring annotation to the
        fact, *replacing* any previous one (absolute, not combined —
        re-adding with the same annotation is idempotent, which WAL
        replay relies on).  Without one, the fact keeps whatever
        explicit annotation it already had, or none.
        """
        for arg in args:
            if not is_value(arg):
                raise TypeError(f"fact argument is not a value: {arg!r}")
        self._fingerprint = None
        rows = self._facts.setdefault(predicate, set())
        if rows and len(next(iter(rows))) != len(args):
            raise ValueError(
                f"predicate {predicate} used with inconsistent arities"
            )
        rows.add(tuple(args))
        if annotation is not None:
            self._annotations.setdefault(predicate, {})[tuple(args)] = annotation
        return self

    def declare(self, predicate: str) -> "Database":
        """Register a predicate with no facts yet (an empty relation is
        still part of the schema)."""
        self._fingerprint = None
        self._facts.setdefault(predicate, set())
        return self

    def remove(self, predicate: str, *args: Value) -> "Database":
        """Remove a ground fact (mutating; returns self).

        Symmetric with :meth:`add`; raises :class:`KeyError` when the
        fact is not present.  The predicate stays declared even when its
        last fact is removed — the empty relation remains in the schema.
        """
        rows = self._facts.get(predicate)
        row = tuple(args)
        if rows is None or row not in rows:
            raise KeyError(f"fact not present: {predicate}{row!r}")
        self._fingerprint = None
        rows.discard(row)
        self._drop_annotation(predicate, row)
        return self

    def discard(self, predicate: str, *args: Value) -> "Database":
        """Remove a ground fact if present (mutating; returns self).

        Like :meth:`remove` but silent when the fact is absent — the
        set-style counterpart, used by idempotent update paths.
        """
        rows = self._facts.get(predicate)
        if rows is not None and tuple(args) in rows:
            self._fingerprint = None
            rows.discard(tuple(args))
            self._drop_annotation(predicate, tuple(args))
        return self

    def _drop_annotation(self, predicate: str, row: Tuple[Value, ...]) -> None:
        bucket = self._annotations.get(predicate)
        if bucket is not None:
            bucket.pop(row, None)
            if not bucket:
                del self._annotations[predicate]

    # -- semiring annotations -------------------------------------------------

    def set_annotation(self, predicate: str, row: Tuple[Value, ...], annotation: object) -> "Database":
        """Attach (or replace) the explicit annotation of a present fact."""
        if tuple(row) not in self._facts.get(predicate, ()):
            raise KeyError(f"fact not present: {predicate}{tuple(row)!r}")
        self._fingerprint = None
        self._annotations.setdefault(predicate, {})[tuple(row)] = annotation
        return self

    def annotation(self, predicate: str, row: Tuple[Value, ...], default: object = None):
        """The explicit annotation of a fact, or ``default``."""
        return self._annotations.get(predicate, {}).get(tuple(row), default)

    def annotations(self, predicate: str) -> Mapping[Tuple[Value, ...], object]:
        """Explicitly annotated rows of a predicate (read-only view)."""
        return dict(self._annotations.get(predicate, {}))

    def has_annotations(self) -> bool:
        """Does any fact carry an explicit annotation?"""
        return any(self._annotations.values())

    @classmethod
    def from_relations(cls, *relations: Relation) -> "Database":
        """Each named relation becomes a unary predicate of its members."""
        database = cls()
        for relation in relations:
            if relation.name is None:
                raise ValueError("relations stored in a database must be named")
            database.declare(relation.name)
            for member in relation.items:
                database.add(relation.name, member)
        return database

    def with_relation(self, relation: Relation) -> "Database":
        """A copy with ``relation`` added as a unary predicate."""
        clone = self.copy()
        if relation.name is None:
            raise ValueError("relation must be named")
        clone.declare(relation.name)
        for member in relation.items:
            clone.add(relation.name, member)
        return clone

    def copy(self) -> "Database":
        """An independent copy (shares the memoized fingerprint)."""
        clone = Database()
        clone._facts = {pred: set(rows) for pred, rows in self._facts.items()}
        clone._annotations = {
            pred: dict(anns) for pred, anns in self._annotations.items() if anns
        }
        clone._fingerprint = self._fingerprint
        return clone

    # -- access ---------------------------------------------------------------

    def predicates(self) -> FrozenSet[str]:
        """All predicates with facts (or declared)."""
        return frozenset(self._facts)

    def arity(self, predicate: str) -> Optional[int]:
        """Arity of a predicate, or None when empty."""
        rows = self._facts.get(predicate)
        if not rows:
            return None
        return len(next(iter(rows)))

    def rows(self, predicate: str) -> FrozenSet[Tuple[Value, ...]]:
        """The fact rows of a predicate."""
        return frozenset(self._facts.get(predicate, ()))

    def holds(self, predicate: str, *args: Value) -> bool:
        """Is the ground fact present?"""
        return tuple(args) in self._facts.get(predicate, ())

    def unary_relation(self, predicate: str) -> Relation:
        """Read a unary predicate back as a named algebraic relation."""
        from ..relations.relation import Relation

        members = []
        for row in self._facts.get(predicate, ()):
            if len(row) != 1:
                raise ValueError(f"predicate {predicate} is not unary")
            members.append(row[0])
        return Relation(members, name=predicate)

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._facts

    def __iter__(self) -> Iterator[Tuple[str, Tuple[Value, ...]]]:
        for predicate in sorted(self._facts):
            for row in sorted(self._facts[predicate], key=lambda r: tuple(map(repr, r))):
                yield predicate, row

    def fact_count(self) -> int:
        """Total number of facts."""
        return sum(len(rows) for rows in self._facts.values())

    def fingerprint(self) -> str:
        """A stable content hash of the fact set.

        Two databases with the same predicates and rows (declared-empty
        predicates included) share a fingerprint; any insert or delete
        changes it.  Durability keys on it: a checkpoint records each
        view's fingerprint, and recovery verifies the rebuilt database
        against it.

        Memoized: the digest is computed at most once per content state
        (every mutator clears the cache, :meth:`copy` carries it over).
        """
        if self._fingerprint is not None:
            return self._fingerprint
        hasher = hashlib.sha256()
        for predicate in sorted(self._facts):
            hasher.update(predicate.encode("utf-8"))
            hasher.update(b"\x00")
            for row in sorted(self._facts[predicate], key=lambda r: tuple(map(repr, r))):
                hasher.update(repr(row).encode("utf-8"))
                hasher.update(b"\x01")
            hasher.update(b"\x02")
        if self.has_annotations():
            # Annotated content gets an extra section.  Unannotated
            # databases skip it entirely so their digests stay
            # byte-identical to the pre-annotation format (the boolean
            # fast path and every existing cache key are unchanged).
            # ``repr`` of set-like carriers is per-process unstable, so
            # annotations hash via their canonical sorted rendering.
            from ..semiring import canonical_annotation

            hasher.update(b"\x03annotations\x03")
            for predicate in sorted(self._annotations):
                bucket = self._annotations[predicate]
                if not bucket:
                    continue
                hasher.update(predicate.encode("utf-8"))
                hasher.update(b"\x00")
                for row in sorted(bucket, key=lambda r: tuple(map(repr, r))):
                    hasher.update(repr(row).encode("utf-8"))
                    hasher.update(b"\x04")
                    hasher.update(canonical_annotation(bucket[row]).encode("utf-8"))
                    hasher.update(b"\x01")
                hasher.update(b"\x02")
        self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    # -- the active domain -----------------------------------------------------

    def active_domain(self, deep: bool = True) -> FrozenSet[Value]:
        """All values appearing in facts.

        With ``deep=True`` (default) the components of tuples and members
        of set values are included too — the paper's range formulas allow
        variables to range over "components of database members".
        """
        domain: Set[Value] = set()

        def visit(value: Value) -> None:
            domain.add(value)
            if not deep:
                return
            if isinstance(value, Tup):
                for item in value.items:
                    visit(item)
            elif isinstance(value, FSet):
                for item in value.items:
                    visit(item)

        for rows in self._facts.values():
            for row in rows:
                for value in row:
                    visit(value)
        return frozenset(domain)

    def __repr__(self) -> str:
        parts = []
        for predicate in sorted(self._facts):
            parts.append(f"{predicate}/{self.arity(predicate)}:{len(self._facts[predicate])}")
        return f"<Database {' '.join(parts)}>"

    def pretty(self) -> str:
        """Render the facts in Datalog syntax."""
        lines = []
        for predicate, row in self:
            inner = ", ".join(str(v) for v in row)
            lines.append(f"{predicate}({inner}).")
        return "\n".join(lines)


def split_program_and_facts(program: Program) -> Tuple[Program, Database]:
    """Ground facts written inside a program become database facts."""
    rules = []
    database = Database()
    for rule in program.rules:
        if rule.is_fact():
            database.add(rule.head.predicate, *(arg.value for arg in rule.head.args))
        else:
            rules.append(rule)
    return Program(tuple(rules), name=program.name), database
