"""Bounded active-domain machinery.

The paper deliberately works over possibly-infinite domains: "we allow
functions on the domains, such as addition on numbers, hence the fixed
point operator may generate infinite sets" (Section 3.1), and membership
is undecidable in general (Proposition 6.3).  Any executable reproduction
must therefore bound the portion of the initial model it materialises.

This module makes the bound an explicit object: a :class:`Universe` is a
finite set of values obtained by closing a seed set (the database's active
domain) under a chosen collection of domain functions up to a depth bound.
Engines that quantify over "all elements" quantify over a universe, and
answers that could change with a larger universe are reported as
``UNDEFINED`` rather than silently clipped.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .values import Tup, Value, is_value, sorted_values

__all__ = [
    "DomainFunction",
    "FunctionRegistry",
    "standard_registry",
    "MAX_COMPONENT",
    "translation_registry",
    "Universe",
]


class DomainFunction:
    """A named (possibly partial) function on values, e.g. ``succ``.

    The underlying callable may return ``None`` or raise ``ValueError`` /
    ``TypeError`` / ``ZeroDivisionError`` / ``IndexError`` to signal that
    it is undefined on the given arguments (partiality); such applications
    simply produce no value.
    """

    __slots__ = ("name", "arity", "func")

    def __init__(self, name: str, arity: int, func: Callable[..., Optional[Value]]):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self.name = name
        self.arity = arity
        self.func = func

    def apply(self, args: Sequence[Value]) -> Optional[Value]:
        """Apply to ``args``; return None when undefined on them."""
        if len(args) != self.arity:
            raise ValueError(
                f"function {self.name}/{self.arity} applied to {len(args)} arguments"
            )
        try:
            result = self.func(*args)
        except (ValueError, TypeError, ZeroDivisionError, IndexError, OverflowError):
            return None
        if result is None:
            return None
        if not is_value(result):
            raise TypeError(
                f"domain function {self.name} returned a non-value: {result!r}"
            )
        return result

    def __repr__(self) -> str:
        return f"DomainFunction({self.name}/{self.arity})"


class FunctionRegistry:
    """A namespace of domain functions usable in MAP expressions and rules."""

    def __init__(self) -> None:
        self._functions: Dict[str, DomainFunction] = {}

    def register(
        self, name: str, arity: int, func: Callable[..., Optional[Value]]
    ) -> DomainFunction:
        """Register ``func`` under ``name``; replaces any previous binding."""
        entry = DomainFunction(name, arity, func)
        self._functions[name] = entry
        return entry

    def get(self, name: str) -> DomainFunction:
        """Look up a function by name."""
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"unknown domain function: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> Tuple[str, ...]:
        """Registered function names, sorted."""
        return tuple(sorted(self._functions))

    def copy(self) -> "FunctionRegistry":
        """An independent copy of the registry."""
        clone = FunctionRegistry()
        clone._functions = dict(self._functions)
        return clone


def _int_only(func: Callable[..., Value]) -> Callable[..., Optional[Value]]:
    def wrapper(*args: Value) -> Optional[Value]:
        booleans = any(isinstance(arg, bool) for arg in args)
        if booleans or not all(isinstance(arg, int) for arg in args):
            return None
        return func(*args)

    return wrapper


def standard_registry() -> FunctionRegistry:
    """The registry used throughout the examples and tests.

    Includes the arithmetic the paper leans on: ``succ`` (nat successor),
    ``pred`` (partial), ``add2`` (the ``+2`` of Example 3), ``add``,
    ``mul``, and ``double``.
    """
    registry = FunctionRegistry()
    registry.register("succ", 1, _int_only(lambda n: n + 1))
    registry.register("pred", 1, _int_only(lambda n: n - 1 if n > 0 else None))
    registry.register("add2", 1, _int_only(lambda n: n + 2))
    registry.register("double", 1, _int_only(lambda n: n * 2))
    registry.register("add", 2, _int_only(lambda a, b: a + b))
    registry.register("mul", 2, _int_only(lambda a, b: a * b))
    return registry


MAX_COMPONENT = 9
"""Largest tuple component index the translation supports."""


def translation_registry(base: Optional[FunctionRegistry] = None) -> FunctionRegistry:
    """A registry extended with the structural functions the translated
    programs use: ``comp1 ... comp9`` (1-indexed tuple component, partial
    off tuples / out of range)."""
    registry = (base or standard_registry()).copy()

    def _component(index: int):
        def pick(value: Value) -> Optional[Value]:
            if isinstance(value, Tup) and 1 <= index <= len(value):
                return value.component(index)
            return None

        return pick

    for index in range(1, MAX_COMPONENT + 1):
        registry.register(f"comp{index}", 1, _component(index))
    return registry


class Universe:
    """A finite, explicit value universe.

    Construct directly from values, or via :meth:`closure` which closes a
    seed set under registry functions to a depth bound — the executable
    stand-in for the paper's infinite initial model.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Value] = ()):
        self._items = frozenset(items)
        for item in self._items:
            if not is_value(item):
                raise TypeError(f"not a value: {item!r}")

    @classmethod
    def closure(
        cls,
        seed: Iterable[Value],
        registry: FunctionRegistry,
        functions: Sequence[str] = (),
        depth: int = 0,
        max_size: int = 100_000,
    ) -> "Universe":
        """Close ``seed`` under the named functions, ``depth`` rounds.

        Raises ``RuntimeError`` if the closure exceeds ``max_size`` values
        (the finite-budget analogue of a non-terminating construction).
        """
        current = set(seed)
        selected = [registry.get(name) for name in functions]
        for _round in range(depth):
            frontier = set()
            for function in selected:
                if function.arity == 0:
                    result = function.apply(())
                    if result is not None and result not in current:
                        frontier.add(result)
                    continue
                for args in itertools.product(current, repeat=function.arity):
                    result = function.apply(args)
                    if result is not None and result not in current:
                        frontier.add(result)
            if not frontier:
                break
            current |= frontier
            if len(current) > max_size:
                raise RuntimeError(
                    f"universe closure exceeded {max_size} values at depth {_round + 1}"
                )
        return cls(current)

    @property
    def items(self) -> frozenset:
        """The values, as a frozenset."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(sorted_values(self._items))

    def __contains__(self, value: Value) -> bool:
        return value in self._items

    def union(self, other: "Universe") -> "Universe":
        """Union of two universes."""
        return Universe(self._items | other._items)

    def __repr__(self) -> str:
        preview = ", ".join(str(v) for v in list(self)[:8])
        suffix = ", ..." if len(self) > 8 else ""
        return f"Universe({len(self)} values: {preview}{suffix})"
