"""Immutable complex-object values.

The paper's data model (Section 2) is the complex-object model: database
relations are *sets* whose members may be atomic values, tuples, or again
sets, to any depth.  This module defines the Python-level value universe
used throughout the reproduction:

* symbolic atoms (``Atom``) — uninterpreted constants such as the game
  positions of Example 3;
* Python ``int``, ``str`` and ``bool`` — the imported ``nat``/``bool``
  domains of Section 2.1;
* ``Tup`` — tuples, the result of the cartesian product operator;
* ``FSet`` — finite sets as first-class values (nested relations).

All values are immutable and hashable, so relations can be plain Python
sets of values.  A deterministic total order (`value_key`) is provided so
results can be printed reproducibly.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Union

__all__ = [
    "Atom",
    "Tup",
    "FSet",
    "Value",
    "tup",
    "fset",
    "is_value",
    "value_key",
    "sort_of",
    "format_value",
    "sorted_values",
]


class Atom:
    """A symbolic, uninterpreted constant (e.g. a game position ``a``).

    Atoms are interned: ``Atom(name)`` returns the one live instance for
    ``name``, so equality and hashing are ``object``'s identity versions,
    which run in C.  The table holds its atoms weakly, so names nobody
    references any more are released (see DESIGN.md, "Value identity").
    """

    __slots__ = ("name", "__weakref__")

    name: str

    def __new__(cls, name: str) -> "Atom":
        if not isinstance(name, str) or not name:
            raise ValueError(f"Atom name must be a non-empty string, got {name!r}")
        with _ATOMS_LOCK:
            atom = _ATOMS.get(name)
            if atom is None:
                atom = object.__new__(cls)
                object.__setattr__(atom, "name", name)
                _ATOMS[name] = atom
        return atom

    def __setattr__(self, attribute: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {attribute!r}")

    def __delattr__(self, attribute: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {attribute!r}")

    def __reduce__(self):
        return (Atom, (self.name,))

    def __copy__(self) -> "Atom":
        return self

    def __deepcopy__(self, memo) -> "Atom":
        return self

    def __repr__(self) -> str:
        return self.name


# name -> the live Atom of that name.  Weak, so a long-running server
# does not keep every name it ever parsed; the lock makes lookup-and-
# insert atomic, since two live instances of one name would compare
# unequal.
_ATOMS: "weakref.WeakValueDictionary[str, Atom]" = weakref.WeakValueDictionary()
_ATOMS_LOCK = threading.Lock()


@dataclass(frozen=True, slots=True)
class Tup:
    """An ordered tuple of values (components are 1-indexed, as in the paper)."""

    items: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))
        for item in self.items:
            if type(item) not in _VALUE_TYPES:
                _check_value(item)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def component(self, index: int) -> "Value":
        """Return the ``index``-th component, 1-indexed (``x.i`` in the paper)."""
        if not 1 <= index <= len(self.items):
            raise IndexError(
                f"tuple of width {len(self.items)} has no component {index}"
            )
        return self.items[index - 1]

    def __repr__(self) -> str:
        return "[" + ", ".join(format_value(item) for item in self.items) + "]"


@dataclass(frozen=True, slots=True)
class FSet:
    """A finite set as a first-class value (a nested relation)."""

    items: frozenset

    def __post_init__(self) -> None:
        if not isinstance(self.items, frozenset):
            object.__setattr__(self, "items", frozenset(self.items))
        for item in self.items:
            _check_value(item)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(sorted_values(self.items))

    def __contains__(self, value: "Value") -> bool:
        return value in self.items

    def __repr__(self) -> str:
        return "{" + ", ".join(format_value(item) for item in self) + "}"


Value = Union[Atom, Tup, FSet, int, str, bool]

_SCALAR_TYPES = (int, str, bool)
#: The value classes themselves: a member of one of them is a value
#: without an ``isinstance`` walk (subclasses fall back to ``is_value``).
_VALUE_TYPES = frozenset((Atom, Tup, FSet, *_SCALAR_TYPES))


def is_value(candidate: object) -> bool:
    """Return True if ``candidate`` belongs to the value universe."""
    return isinstance(candidate, (Atom, Tup, FSet)) or isinstance(
        candidate, _SCALAR_TYPES
    )


def _check_value(candidate: object) -> None:
    if not is_value(candidate):
        raise TypeError(f"not a valid complex-object value: {candidate!r}")


def tup(*items: Value) -> Tup:
    """Build a tuple value: ``tup(a, b)`` is the pair ``[a, b]``."""
    return Tup(tuple(items))


def fset(*items: Value) -> FSet:
    """Build a set value: ``fset(1, 2)`` is ``{1, 2}``."""
    return FSet(frozenset(items))


def value_key(value: Value):
    """A deterministic total-order key over heterogeneous values.

    Values are ordered first by a type rank (bool < int < str < atom <
    tuple < set), then structurally.  Used only for reproducible printing
    and iteration order; not semantically meaningful.
    """
    if isinstance(value, bool):
        return (0, value)
    if isinstance(value, int):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, Atom):
        return (3, value.name)
    if isinstance(value, Tup):
        return (4, len(value.items), tuple(value_key(item) for item in value.items))
    if isinstance(value, FSet):
        return (
            5,
            len(value.items),
            tuple(sorted(value_key(item) for item in value.items)),
        )
    raise TypeError(f"not a value: {value!r}")


def sorted_values(values: Iterable[Value]) -> list:
    """Sort an iterable of values deterministically."""
    return sorted(values, key=value_key)


def sort_of(value: Value):
    """Infer the sort (type descriptor) of a value.

    Sorts are plain data: ``'bool' | 'int' | 'str' | 'atom'`` for scalars,
    ``('tup', (s1, ..., sn))`` for tuples and ``('set', s)`` for sets.  The
    sort of an empty set is ``('set', None)`` (polymorphic empty set).
    """
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, str):
        return "str"
    if isinstance(value, Atom):
        return "atom"
    if isinstance(value, Tup):
        return ("tup", tuple(sort_of(item) for item in value.items))
    if isinstance(value, FSet):
        member_sorts = {sort_of(item) for item in value.items}
        if not member_sorts:
            return ("set", None)
        if len(member_sorts) == 1:
            return ("set", member_sorts.pop())
        return ("set", "mixed")
    raise TypeError(f"not a value: {value!r}")


#: A quote, and a backslash ``unquote`` would read as an escape (before
#: a quote, a backslash, a line break or the end); any other stands for
#: itself, so tuples keep the ``repr`` database fingerprints hash.
_ESCAPED = re.compile(r"'|\\(?=[\\'\n]|\Z)")


def format_value(value: Value) -> str:
    """Render a value the way the program grammar reads it back
    (``true``, ``'it\\'s'``, ``[a, 1]``); sets, which have no literal,
    in braces."""
    if isinstance(value, (Atom, Tup, FSet)):
        return repr(value)
    if isinstance(value, str):
        if "'" in value or "\\" in value:
            value = _ESCAPED.sub(r"\\\g<0>", value)
        return f"'{value}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)
