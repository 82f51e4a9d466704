"""Pretty-printing deductive programs back into parseable syntax.

``parse_program(pretty_program(p))`` round-trips for every program whose
constants are atoms, integers, strings, booleans or tuples thereof.
"""

from __future__ import annotations

from typing import List

from ..relations.values import format_value as pretty_value
from .ast import (
    Comparison,
    Const,
    FuncTerm,
    Literal,
    PredAtom,
    Program,
    Rule,
    Term,
    Var,
)

__all__ = ["pretty_term", "pretty_atom", "pretty_rule", "pretty_program", "pretty_value"]


def pretty_term(term: Term) -> str:
    """Render a term."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        return pretty_value(term.value)
    if term.name == "tuple":
        return "[" + ", ".join(pretty_term(arg) for arg in term.args) + "]"
    inner = ", ".join(pretty_term(arg) for arg in term.args)
    return f"{term.name}({inner})"


def pretty_atom(atom: PredAtom) -> str:
    """Render a predicate atom."""
    if not atom.args:
        return atom.predicate
    inner = ", ".join(pretty_term(arg) for arg in atom.args)
    return f"{atom.predicate}({inner})"


def _pretty_body_item(item) -> str:
    if isinstance(item, Literal):
        rendered = pretty_atom(item.atom)
        return rendered if item.positive else f"not {rendered}"
    if isinstance(item, Comparison):
        return f"{pretty_term(item.left)} {item.op} {pretty_term(item.right)}"
    raise TypeError(f"not a body item: {item!r}")


def pretty_rule(rule: Rule) -> str:
    """Render a rule."""
    head = pretty_atom(rule.head)
    if not rule.body:
        return f"{head}."
    body = ", ".join(_pretty_body_item(item) for item in rule.body)
    return f"{head} :- {body}."


def pretty_program(program: Program) -> str:
    """Render a whole program."""
    lines: List[str] = []
    if program.name:
        lines.append(f"% {program.name}")
    lines.extend(pretty_rule(rule) for rule in program.rules)
    return "\n".join(lines)
