"""One ground fact as text: the one place a fact is spelled and read.

A fact's identity is its values, not the text that carried them.  The
wire, the WAL, checkpoints, full reads, the cluster router's records
and why-provenance witnesses all spell a fact with :func:`format_fact`
(the grammar's spelling, values by ``format_value``) and read it with
:func:`parse_fact` / :func:`parse_annotated_fact`, so
``parse_fact(format_fact(p, row)) == (p, row)``, value types included.
The reader also takes ``True`` / ``False`` as booleans: logs and
checkpoints were written so before.  In a rule ``True`` is a variable.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Tuple

from ..relations.values import Atom, Tup, Value, format_value
from .parser import ParseError, _Parser, _tokenize, unquote

__all__ = ["fact_key", "format_fact", "parse_fact", "parse_annotated_fact"]

Row = Tuple[Value, ...]

#: One flat argument: a symbol, a boolean in either spelling, an
#: integer or a quoted string, as the grammar's tokens spell them.
_FLAT_ARGUMENT = r"[a-z][A-Za-z0-9_]*|True|False|-?[0-9]+|'(?:[^'\\]|\\.)*'"
#: A flat ground fact: a predicate over flat arguments, an optional
#: period, spaces (no other whitespace) between tokens; then an optional
#: ``@ annotation`` holding no ``)``, so that its ``@`` is the first
#: after the fact's last parenthesis, where :func:`parse_annotated_fact`
#: splits any other text.
_FLAT_FACT = re.compile(
    rf"([a-z_][A-Za-z0-9_]*)"
    rf"(?:\( *((?:{_FLAT_ARGUMENT})(?: *, *(?:{_FLAT_ARGUMENT}))*)? *\))? *\.?"
    r"(?: *@([^)]*))?"
)
_FLAT_ARGUMENTS = re.compile(_FLAT_ARGUMENT)
_BOOLEANS = {"true": True, "false": False, "True": True, "False": False}


def format_fact(predicate: str, row: Row) -> str:
    """One fact in wire text: ``edge(a, b)`` (``p`` for arity 0)."""
    if not row:
        return predicate
    return f"{predicate}({', '.join(map(format_value, row))})"


def _flat_value(token: str) -> Value:
    """The value of one flat argument, as the program parser builds it."""
    first = token[0]
    if first == "'":
        return unquote(token)
    if first in "-0123456789":
        return int(token)
    boolean = _BOOLEANS.get(token)
    return Atom(token) if boolean is None else boolean


def _spelling(token: str) -> str:
    """``format_value`` of a flat argument's value, interning no atom."""
    return token if token[0].islower() else format_value(_flat_value(token))


def _flat(text: str, value: Callable[[str], object]):
    """``(predicate, arguments mapped by value, annotation text or None)``
    of a flat fact, or ``None`` where ``text`` is not one."""
    flat = _FLAT_FACT.fullmatch(text)
    if flat is not None:
        predicate, arguments, annotation = flat.groups()
        row = tuple(map(value, _FLAT_ARGUMENTS.findall(arguments or "")))
        return predicate, row, annotation


def _value(parser: _Parser) -> Value:
    token = parser._next()
    kind, text = token.kind, token.text
    if text == "[":
        return Tup(parser._arguments("]", lambda: _value(parser)))
    if kind in ("int", "string") or (
        kind == "name" and (text[0].islower() or text in _BOOLEANS)
    ):
        return _flat_value(text)
    raise ParseError(f"expected a constant, found {text!r}")


def parse_fact(text: str) -> Tuple[str, Row]:
    """``edge(a, b)`` or ``edge(a, b).`` → ``("edge", (a, b))``.  A flat
    fact (symbols, booleans, integers, strings) is one regex match; other
    text takes the grammar's tokenizer and fails as parsing it as a
    program does (``ParseError``; ``ValueError`` if no single ground fact).
    """
    text = text.strip()
    flat = _flat(text, _flat_value)
    if flat is not None and flat[2] is None:
        return flat[0], flat[1]
    if not text.endswith("."):
        text += "."
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    try:
        predicate = parser._next()
        if predicate.kind == "name" and not predicate.text[0].isupper():
            row = ()
            if parser.accept("("):
                row = tuple(parser._arguments(")", lambda: _value(parser)))
            if parser.accept(".") and parser.at_end():
                return predicate.text, row
    except ParseError:
        pass
    _Parser(tokens).parse_program()  # raises where the text is no program
    raise ValueError(f"expected a single ground fact, got {text!r}")


def parse_annotated_fact(text: str) -> Tuple[str, Row, Optional[str]]:
    """``edge(a, b) @ 3`` → ``("edge", (a, b), "3")``; annotation
    ``None`` for a plain fact.  The annotation is opaque text (the view's
    semiring reads it); only an ``@`` after the argument list splits."""
    text = text.strip()
    flat = _flat(text, _flat_value)
    if flat is not None:
        return flat[0], flat[1], (flat[2] or "").strip() or None
    marker = text.find("@", text.rfind(")") + 1)
    if marker == -1:
        return (*parse_fact(text), None)
    return (*parse_fact(text[:marker]), text[marker + 1 :].strip() or None)


def fact_key(text: str) -> Tuple[str, str]:
    """A fact's identity as text, and the text to send it again: for what
    :func:`parse_annotated_fact` reads, ``format_fact(predicate, row)``
    and that plus `` @ annotation`` where there is one.  A flat fact is
    spelled from its tokens, building no values (the router keys facts
    it never holds)."""
    flat = _flat(text.strip(), _spelling)
    if flat is None:
        predicate, row, annotation = parse_annotated_fact(text)
        key = format_fact(predicate, row)
    else:
        predicate, spelled, annotation = flat
        key = f"{predicate}({', '.join(spelled)})" if spelled else predicate
        annotation = (annotation or "").strip() or None
    return key, key if annotation is None else f"{key} @ {annotation}"
