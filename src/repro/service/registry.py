"""Program registration and prepared plans.

A long-lived query service should pay for parsing, safety checking,
stratification, and binding-order compilation **once** per program, not
once per query.  :func:`prepare_program` does exactly that: it turns
program text (or an AST) into a :class:`PreparedProgram` holding

* the compiled binding order of every rule (the safety check — an
  unsafe rule has no evaluable order, Definition 4.1 operationalised);
* the program's **component schedule**
  (:func:`~repro.datalog.schedule.components`: strongly connected
  components of the predicate graph in topological order, each flagged
  recursive or not) — the unit the maintenance engines iterate over,
  and the order ``run()`` closes a stratified program in; and
* the classical stratum assignment when the program is stratified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..datalog.ast import Program
from ..datalog.binding import compiled_binding_order
from ..datalog.database import Database, split_program_and_facts
from ..datalog.parser import parse_program
from ..datalog.schedule import Component, components
from ..datalog.stratification import is_stratified, stratify

__all__ = [
    "Component",
    "PreparedProgram",
    "prepare_program",
    "split_program_and_facts",
]


@dataclass
class PreparedProgram:
    """A program compiled once for repeated serving."""

    name: str
    program: Program
    seed_facts: Database
    stratified: bool
    strata: Optional[Dict[str, int]]
    schedule: Tuple[Component, ...]
    arities: Dict[str, int]
    #: The program text it was compiled from (``None`` for an AST):
    #: what checkpoints carry and recovery re-registers.
    source: Optional[str] = None

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary (the ``register`` reply)."""
        return {
            "name": self.name,
            "rules": len(self.program.rules),
            "stratified": self.stratified,
            "strata": (max(self.strata.values(), default=0) + 1)
            if self.strata is not None and self.strata
            else (1 if self.stratified else None),
            "components": len(self.schedule),
            "recursive_components": sum(
                1 for component in self.schedule if component.recursive
            ),
            "idb": sorted(self.program.idb_predicates()),
            "edb": sorted(self.program.edb_predicates()),
            "seed_facts": self.seed_facts.fact_count(),
        }


def prepare_program(
    name: str, source: Union[str, Program]
) -> PreparedProgram:
    """Compile ``source`` (text or AST) into a :class:`PreparedProgram`.

    Raises :class:`~repro.datalog.binding.UnsafeRuleError` when any
    rule lacks an evaluable binding order, and parse errors verbatim.
    Inline ground facts are split off into ``seed_facts``.
    """
    if isinstance(source, str):
        program = parse_program(source, name=name)
    else:
        program = source
    program, seed_facts = split_program_and_facts(program)
    arities = program.arities()
    for rule in program.rules:
        compiled_binding_order(rule)  # safety check; memoized for reuse
    stratified = is_stratified(program)
    strata = stratify(program) if stratified else None
    return PreparedProgram(
        name=name,
        program=program,
        seed_facts=seed_facts,
        stratified=stratified,
        strata=strata,
        schedule=components(program),
        arities=arities,
        source=source if isinstance(source, str) else None,
    )

