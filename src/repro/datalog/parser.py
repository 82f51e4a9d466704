"""A concrete syntax for deductive programs.

Grammar (Prolog-flavoured)::

    program     := (rule | comment)*
    rule        := atom [ ':-' body ] '.'
    body        := bodyitem (',' bodyitem)*
    bodyitem    := 'not' atom | atom | term OP term
    atom        := name [ '(' term (',' term)* ')' ]
    term        := VARIABLE | INTEGER | STRING | name [ '(' args ')' ]
                 | '[' args ']'          (tuple value / tuple term)
    OP          := '=' | '!=' | '<' | '<=' | '>' | '>='
    comment     := '%' ... end of line

Lower-case names in term position denote symbolic :class:`Atom` constants
unless applied to arguments, in which case they are function terms
(resolved against a registry at evaluation time).  Upper-case names are
variables.  ``[a, b]`` builds a tuple — ground brackets make a ``Tup``
value, brackets with variables make a ``tuple(...)`` function term.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from ..relations.values import Atom, Tup, Value
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

__all__ = ["ParseError", "parse_program", "parse_rule", "parse_term"]


class ParseError(ValueError):
    """Syntax error in a deductive program text."""

    def __init__(self, message: str, position: Optional[Tuple[int, int]] = None):
        if position:
            line, column = position
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


# No two alternatives start alike, so they are tried most frequent
# first; ``bad`` takes any character the others refuse.
_TOKEN_RE = re.compile(
    r"""
    (?P<name>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<punct>[(),.\[\]])
  | (?P<ws>\s+)
  | (?P<int>-?\d+)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<arrow>:-)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<comment>%[^\n]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(source: str) -> List[_Token]:
    """One pass of ``_TOKEN_RE`` over ``source``: every character lands
    in some group, so a character no token admits is a ``bad`` match."""
    tokens: List[_Token] = []
    append = tokens.append
    new = tuple.__new__  # _Token(...) without the keyword-handling wrapper
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "comment":
            continue
        text = match.group()
        start = match.start()
        if kind != "ws":
            if kind == "bad":
                raise ParseError(
                    f"unexpected character {text!r}", (line, start - line_start + 1)
                )
            append(new(_Token, (kind, text, line, start - line_start + 1)))
            if kind != "string":
                continue
        # Only whitespace and quoted strings span lines.
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = start + text.rfind("\n") + 1
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> Optional[_Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        index = self._index
        if index >= len(self._tokens):
            raise ParseError("unexpected end of input")
        self._index = index + 1
        return self._tokens[index]

    def _expect(self, text: str) -> _Token:
        token = self._next()
        if token.text != text:
            raise ParseError(
                f"expected {text!r}, found {token.text!r}", (token.line, token.column)
            )
        return token

    def at_end(self) -> bool:
        """Have all tokens been consumed?"""
        return self._index >= len(self._tokens)

    def accept(self, text: str) -> bool:
        """Consume the next token if it reads ``text``."""
        index = self._index
        if index < len(self._tokens) and self._tokens[index].text == text:
            self._index = index + 1
            return True
        return False

    def _arguments(self, close: str) -> List[Term]:
        """Comma-separated terms, then ``close``."""
        args: List[Term] = []
        if not self.accept(close):
            args.append(self.parse_term())
            while self.accept(","):
                args.append(self.parse_term())
            self._expect(close)
        return args

    # -- terms ---------------------------------------------------------------

    def parse_term(self) -> Term:
        """Parse one term."""
        token = self._next()
        kind, text = token.kind, token.text
        if kind == "name":
            if text[0].isupper() or text[0] == "_":
                return Var(text)
            if self.accept("("):
                return FuncTerm(text, tuple(self._arguments(")")))
            if text == "true":
                return Const(True)
            if text == "false":
                return Const(False)
            return Const(Atom(text))
        if kind == "int":
            return Const(int(text))
        if kind == "string":
            inner = text[1:-1]
            return Const(inner.replace("\\'", "'").replace("\\\\", "\\"))
        if text == "[":
            items = self._arguments("]")
            if all(isinstance(item, Const) for item in items):
                return Const(Tup(tuple(item.value for item in items)))
            return FuncTerm("tuple", tuple(items))
        raise ParseError(
            f"expected a term, found {text!r}", (token.line, token.column)
        )

    # -- atoms and body items --------------------------------------------------

    def parse_atom(self) -> PredAtom:
        """Parse one predicate atom."""
        token = self._next()
        if token.kind != "name" or token.text[0].isupper():
            raise ParseError(
                f"expected a predicate name, found {token.text!r}",
                (token.line, token.column),
            )
        args = self._arguments(")") if self.accept("(") else ()
        return PredAtom(token.text, tuple(args))

    def parse_body_item(self):
        """Parse one body item (literal or comparison)."""
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in rule body")
        if token.kind == "name" and token.text == "not":
            self._next()
            return Literal(self.parse_atom(), False)
        # Could be an atom or a comparison; parse a term and look ahead.
        saved = self._index
        try:
            left = self.parse_term()
        except ParseError:
            left = None
        nxt = self._peek()
        if left is not None and nxt is not None and nxt.kind == "op":
            operator = self._next().text
            right = self.parse_term()
            return Comparison(operator, left, right)
        # Not a comparison — rewind and parse as a positive atom.
        self._index = saved
        return Literal(self.parse_atom(), True)

    # -- rules ------------------------------------------------------------------

    def parse_rule(self) -> Rule:
        """Parse one rule."""
        head = self.parse_atom()
        body: List = []
        if self.accept(":-"):
            body.append(self.parse_body_item())
            while self.accept(","):
                body.append(self.parse_body_item())
        self._expect(".")
        return Rule(head, tuple(body))

    def parse_program(self, name: Optional[str] = None) -> Program:
        """Parse rules until end of input."""
        rules: List[Rule] = []
        while not self.at_end():
            rules.append(self.parse_rule())
        return Program(tuple(rules), name=name)


def parse_term(source: str) -> Term:
    """Parse a single term, e.g. ``parse_term('succ(X)')``."""
    parser = _Parser(_tokenize(source))
    term = parser.parse_term()
    if not parser.at_end():
        raise ParseError("trailing input after term")
    return term


def parse_rule(source: str) -> Rule:
    """Parse a single rule, e.g. ``parse_rule('win(X) :- move(X,Y), not win(Y).')``."""
    parser = _Parser(_tokenize(source))
    rule = parser.parse_rule()
    if not parser.at_end():
        raise ParseError("trailing input after rule")
    return rule


def parse_program(source: str, name: Optional[str] = None) -> Program:
    """Parse a whole program (``%`` comments allowed)."""
    return _Parser(_tokenize(source)).parse_program(name)
