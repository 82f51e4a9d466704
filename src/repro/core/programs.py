"""Definitions, programs, queries, and dialect validation (Section 3.2).

An ``algebra=`` program is a collection of definitions

    ``f_i(x_1, ..., x_n) = exp_i(x_1, ..., x_n)``

— one equation per new operation name, input/output of set type only, and
``exp_i`` an algebra expression over the parameters, the database
relations, and (this is the extension) the defined names themselves.

Four dialects:

=================  ==========================================================
``ALGEBRA``        no IFP, definitions must be non-recursive (pure sugar)
``IFP_ALGEBRA``    IFP allowed, definitions non-recursive
``ALGEBRA_EQ``     recursive definitions, no IFP        (``algebra=``)
``IFP_ALGEBRA_EQ`` recursive definitions and IFP        (``IFP-algebra=``)
=================  ==========================================================

Theorem 3.5 / Corollary 3.6 prove ``IFP-algebra ⊂ algebra= =
IFP-algebra=``; the benchmarks exercise those inclusions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..digraph import DiGraph, strongly_connected_components
from .expressions import Call, Expr, Ifp, _rebuild, called_names, free_rel_vars, substitute, walk

__all__ = [
    "Dialect",
    "Definition",
    "AlgebraProgram",
    "AlgebraQuery",
    "ProgramError",
    "ExpansionLimitExceeded",
]


class Dialect(enum.Enum):
    """The four language dialects of Section 3."""
    ALGEBRA = "algebra"
    IFP_ALGEBRA = "IFP-algebra"
    ALGEBRA_EQ = "algebra="
    IFP_ALGEBRA_EQ = "IFP-algebra="

    @property
    def allows_ifp(self) -> bool:
        """Does this dialect include the IFP operator?"""
        return self in (Dialect.IFP_ALGEBRA, Dialect.IFP_ALGEBRA_EQ)

    @property
    def allows_recursion(self) -> bool:
        """Does this dialect allow recursive definitions?"""
        return self in (Dialect.ALGEBRA_EQ, Dialect.IFP_ALGEBRA_EQ)


class ProgramError(ValueError):
    """A structurally invalid algebra program."""


class ExpansionLimitExceeded(ProgramError):
    """Inlining parameterised recursive calls did not terminate."""


@dataclass(frozen=True)
class Definition:
    """One equation ``name(params...) = body``.

    The paper's restriction: "for each new operation name f_i we have only
    one equation f_i(x1,...,xn) = exp(x1,...,xn), where exp is an algebraic
    expression that contains no variables other than x1,...,xn" — enforced
    at program construction (free names of the body must be parameters,
    database relations, or defined names).
    """

    name: str
    params: Tuple[str, ...]
    body: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if len(set(self.params)) != len(self.params):
            raise ProgramError(f"duplicate parameters in {self.name}")
        if self.name in self.params:
            raise ProgramError(f"{self.name}: definition name shadows a parameter")

    @property
    def arity(self) -> int:
        """Number of parameters."""
        return len(self.params)

    def __repr__(self) -> str:
        header = self.name
        if self.params:
            header += "(" + ", ".join(self.params) + ")"
        return f"{header} = {self.body!r}"


@dataclass(frozen=True)
class AlgebraProgram:
    """A set of definitions plus the database relation names they may use."""

    definitions: Tuple[Definition, ...]
    database_relations: FrozenSet[str] = frozenset()
    dialect: Dialect = Dialect.IFP_ALGEBRA_EQ
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "definitions", tuple(self.definitions))
        object.__setattr__(
            self, "database_relations", frozenset(self.database_relations)
        )
        self._validate()

    @classmethod
    def of(
        cls,
        *definitions: Definition,
        database_relations: Sequence[str] = (),
        dialect: Dialect = Dialect.IFP_ALGEBRA_EQ,
        name: Optional[str] = None,
    ) -> "AlgebraProgram":
        """Build a program from definitions."""
        return cls(tuple(definitions), frozenset(database_relations), dialect, name)

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        seen: Set[str] = set()
        for definition in self.definitions:
            if definition.name in seen:
                raise ProgramError(f"multiple equations for {definition.name}")
            if definition.name in self.database_relations:
                raise ProgramError(
                    f"{definition.name} is both defined and a database relation"
                )
            seen.add(definition.name)

        arities = {d.name: d.arity for d in self.definitions}
        for definition in self.definitions:
            allowed = set(definition.params) | self.database_relations
            loose = free_rel_vars(definition.body) - allowed
            if loose:
                raise ProgramError(
                    f"{definition.name}: free relation variables {sorted(loose)} "
                    f"are neither parameters nor database relations"
                )
            for node in walk(definition.body):
                if isinstance(node, Call):
                    if node.name not in arities:
                        raise ProgramError(
                            f"{definition.name}: call to undefined operation "
                            f"{node.name!r}"
                        )
                    if len(node.args) != arities[node.name]:
                        raise ProgramError(
                            f"{definition.name}: {node.name} called with "
                            f"{len(node.args)} arguments, expected {arities[node.name]}"
                        )
                if isinstance(node, Ifp) and not self.dialect.allows_ifp:
                    raise ProgramError(
                        f"{definition.name}: IFP is not part of {self.dialect.value}"
                    )
        if not self.dialect.allows_recursion and self.is_recursive():
            raise ProgramError(
                f"recursive definitions are not part of {self.dialect.value}"
            )

    # -- structure --------------------------------------------------------------

    def definition(self, name: str) -> Definition:
        """Look up a definition by name."""
        for definition in self.definitions:
            if definition.name == name:
                return definition
        raise KeyError(f"no definition named {name!r}")

    def defined_names(self) -> FrozenSet[str]:
        """Names of all defined operations."""
        return frozenset(d.name for d in self.definitions)

    def call_graph(self) -> DiGraph:
        """Edge ``f → g`` when the body of ``f`` calls ``g``."""
        graph = DiGraph()
        for definition in self.definitions:
            graph.add_node(definition.name)
            for callee in called_names(definition.body):
                graph.add_edge(definition.name, callee)
        return graph

    def is_recursive(self) -> bool:
        """Does the call graph contain a cycle?"""
        return bool(self.recursive_names())

    def recursive_names(self) -> FrozenSet[str]:
        """Definitions involved in some call-graph cycle."""
        graph = self.call_graph()
        cyclic: Set[str] = set()
        for component in strongly_connected_components(graph):
            if len(component) > 1:
                cyclic |= component
            else:
                (node,) = component
                if graph.has_edge(node, node):
                    cyclic.add(node)
        return frozenset(cyclic)

    def uses_ifp(self) -> bool:
        """Does any definition body contain an IFP?"""
        return any(
            isinstance(node, Ifp)
            for definition in self.definitions
            for node in walk(definition.body)
        )

    # -- inlining -----------------------------------------------------------------

    def inline_nonrecursive(self, expr: Expr) -> Expr:
        """Expand every call to a *non-recursive* definition in ``expr``.

        For the plain ``algebra``/``IFP-algebra`` dialects this realises the
        paper's observation that non-recursive definitions are syntactic
        sugar: the result contains no calls.
        """
        recursive = self.recursive_names()

        def expand(node: Expr, depth: int) -> Expr:
            if depth > 500:
                raise ExpansionLimitExceeded("non-recursive inlining looped")
            if isinstance(node, Call) and node.name not in recursive:
                definition = self.definition(node.name)
                args = tuple(expand(arg, depth + 1) for arg in node.args)
                mapping = dict(zip(definition.params, args))
                return expand(substitute(definition.body, mapping), depth + 1)
            if isinstance(node, Call):
                depth += 1
            return _rebuild(node, lambda child: expand(child, depth))

        return expand(expr, 0)

    def to_constant_system(self, max_expansions: int = 2_000) -> "AlgebraProgram":
        """Normalise to a system of 0-ary recursive definitions.

        Parameterised calls are specialised per call site (the paper's
        Proposition 5.4 builds one predicate per call expression).  The
        result has only 0-ary recursive constants, which is the form the
        native three-valued evaluator and the translators consume.  Raises
        :class:`ExpansionLimitExceeded` when specialisation does not close
        off (a genuinely parameter-recursive program).
        """
        for name in self.recursive_names():
            if self.definition(name).arity > 0:
                raise ExpansionLimitExceeded(
                    "parameter-recursive definitions cannot be normalised to a "
                    "finite constant system; see DESIGN.md (call-site "
                    "specialisation is bounded to recursion through 0-ary names)"
                )
        # Only 0-ary recursion: inline all non-recursive calls.
        kept = [
            Definition(definition.name, (), self.inline_nonrecursive(definition.body))
            for definition in self.definitions
            if definition.arity == 0
        ]
        return AlgebraProgram(
            tuple(kept), self.database_relations, self.dialect, self.name
        )

    def __repr__(self) -> str:
        label = self.name or "program"
        return f"<AlgebraProgram {label}: {len(self.definitions)} definitions>"

    def pretty(self) -> str:
        """Render the definitions, one per line."""
        return "\n".join(repr(d) for d in self.definitions)


@dataclass(frozen=True)
class AlgebraQuery:
    """A program plus a result: either a defined constant's name or an
    expression over the program (Section 3: "a query is represented by a
    constant Q defined using an equation Q = exp")."""

    program: AlgebraProgram
    result: str

    def __post_init__(self) -> None:
        self.program.definition(self.result)  # must exist

    def __repr__(self) -> str:
        return f"<AlgebraQuery {self.result} over {self.program!r}>"
