"""A concrete syntax for ``algebra=`` programs.

Example (the WIN game and a derived operator, Section 3.2)::

    relations MOVE;
    inter(x, y) = x - (x - y);
    WIN = pi1(MOVE - (pi1(MOVE) * WIN));

Grammar::

    program    := [ 'relations' NAME (',' NAME)* ';' ] (definition)*
    definition := NAME [ '(' NAME (',' NAME)* ')' ] '=' expr ';'
    expr       := term (('u' | '+') term | '-' term)*        (union / diff)
    term       := factor ('*' factor)*                        (product)
    factor     := NAME [ '(' expr (',' expr)* ')' ]           (rel / call)
                | '{' [value (',' value)*] '}'                (set constant)
                | 'empty'
                | 'sigma' '[' test ']' '(' expr ')'
                | 'map'   '[' scalar ']' '(' expr ')'
                | 'pi' INT '(' expr ')'
                | 'ifp' '(' NAME ',' expr ')'
                | '(' expr ')'
    scalar     := 'it' ('.' INT)* | ['-'] INT | STRING | NAME
                | NAME '(' scalar (',' scalar)* ')'
                | '[' scalar (',' scalar)* ']'
    test       := 'true' | comparison | 'not' test
                | test 'and' test | test 'or' test | '(' test ')'
    value      := ['-'] INT | STRING | NAME | '[' value (',' value)* ']'

Name resolution happens after parsing: a bare name is a parameter of the
enclosing definition, a declared database relation, or a defined
operation (0-ary call), in that order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datalog.parser import unquote
from ..relations.values import Atom, Tup, Value
from ..core.expressions import (
    Call,
    Diff,
    Expr,
    Ifp,
    Map,
    Product,
    RelVar,
    Select,
    SetConst,
    Union,
)
from ..core.funcs import (
    AndTest,
    Apply,
    Arg,
    Comp,
    CompareTest,
    Lit,
    MkTup,
    NotTest,
    OrTest,
    ScalarExpr,
    Test,
    TrueTest,
)
from ..core.programs import AlgebraProgram, Definition, Dialect

__all__ = ["AlgebraParseError", "parse_algebra_program", "parse_algebra_expr"]

_KEYWORDS = {
    "relations",
    "u",
    "sigma",
    "map",
    "ifp",
    "empty",
    "it",
    "not",
    "and",
    "or",
    "true",
}


class AlgebraParseError(ValueError):
    """Syntax or resolution error in an algebra program text."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[(){},;.*\[\]-])
  | (?P<int>\d+)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<name>[a-zA-Z_][a-zA-Z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    index = 0
    while index < len(source):
        matched = _TOKEN_RE.match(source, index)
        if not matched:
            raise AlgebraParseError(f"unexpected character {source[index]!r}")
        kind = matched.lastgroup or ""
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, matched.group()))
        index = matched.end()
    return tokens


@dataclass
class _RawName:
    """A not-yet-resolved name (parameter / relation / 0-ary call)."""

    name: str


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self._tokens = tokens
        self._index = 0

    def _peek(self, ahead: int = 0) -> Optional[_Token]:
        position = self._index + ahead
        if position < len(self._tokens):
            return self._tokens[position]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise AlgebraParseError("unexpected end of input")
        self._index += 1
        return token

    def _expect(self, text: str) -> None:
        token = self._next()
        if token.text != text:
            raise AlgebraParseError(f"expected {text!r}, found {token.text!r}")

    def _expect_name(self) -> str:
        token = self._next()
        if token.kind != "name":
            raise AlgebraParseError(f"expected a name, found {token.text!r}")
        return token.text

    def at_end(self) -> bool:
        """Have all tokens been consumed?"""
        return self._index >= len(self._tokens)

    # -- values ----------------------------------------------------------------

    def _negative(self, token: _Token) -> bool:
        """Is ``token`` the sign of ``-<digits>``?  (Where a value is
        expected; elsewhere ``-`` is set difference.)"""
        return token.text == "-" and getattr(self._peek(), "kind", None) == "int"

    def parse_value(self) -> Value:
        """Parse one constant value."""
        token = self._next()
        if token.kind == "int":
            return int(token.text)
        if self._negative(token):
            return -int(self._next().text)
        if token.kind == "string":
            return unquote(token.text)
        if token.text == "[":
            items: List[Value] = []
            if self._peek() and self._peek().text != "]":
                items.append(self.parse_value())
                while self._peek() and self._peek().text == ",":
                    self._next()
                    items.append(self.parse_value())
            self._expect("]")
            return Tup(tuple(items))
        if token.kind == "name":
            if token.text == "true":
                return True
            if token.text == "false":
                return False
            return Atom(token.text)
        raise AlgebraParseError(f"expected a value, found {token.text!r}")

    # -- scalars -----------------------------------------------------------------

    def parse_scalar(self) -> ScalarExpr:
        """Parse one scalar (restructuring) expression."""
        token = self._next()
        if token.kind == "int":
            return Lit(int(token.text))
        if self._negative(token):
            return Lit(-int(self._next().text))
        if token.kind == "string":
            return Lit(unquote(token.text))
        if token.text == "[":
            items = [self.parse_scalar()]
            while self._peek() and self._peek().text == ",":
                self._next()
                items.append(self.parse_scalar())
            self._expect("]")
            return MkTup(tuple(items))
        if token.kind == "name":
            if token.text == "it":
                expr: ScalarExpr = Arg()
                while (
                    self._peek()
                    and self._peek().text == "."
                    and self._peek(1)
                    and self._peek(1).kind == "int"
                ):
                    self._next()
                    expr = Comp(expr, int(self._next().text))
                return expr
            if self._peek() and self._peek().text == "(":
                self._next()
                args = [self.parse_scalar()]
                while self._peek() and self._peek().text == ",":
                    self._next()
                    args.append(self.parse_scalar())
                self._expect(")")
                return Apply(token.text, tuple(args))
            if token.text == "true":
                return Lit(True)
            if token.text == "false":
                return Lit(False)
            return Lit(Atom(token.text))
        raise AlgebraParseError(f"expected a scalar expression, found {token.text!r}")

    # -- tests --------------------------------------------------------------------

    def parse_test(self) -> Test:
        """Parse one selection test."""
        return self._parse_or_test()

    def _parse_or_test(self) -> Test:
        left = self._parse_and_test()
        while self._peek() and self._peek().text == "or":
            self._next()
            left = OrTest(left, self._parse_and_test())
        return left

    def _parse_and_test(self) -> Test:
        left = self._parse_not_test()
        while self._peek() and self._peek().text == "and":
            self._next()
            left = AndTest(left, self._parse_not_test())
        return left

    def _parse_not_test(self) -> Test:
        token = self._peek()
        if token and token.text == "not":
            self._next()
            return NotTest(self._parse_not_test())
        if token and token.text == "(":
            # Could be a parenthesised test — try it, rewind on failure.
            saved = self._index
            try:
                self._next()
                inner = self.parse_test()
                self._expect(")")
                return inner
            except AlgebraParseError:
                self._index = saved
        if token and token.text == "true":
            self._next()
            return TrueTest()
        left = self.parse_scalar()
        operator = self._next()
        if operator.kind != "op":
            raise AlgebraParseError(
                f"expected a comparison operator, found {operator.text!r}"
            )
        right = self.parse_scalar()
        return CompareTest(operator.text, left, right)

    # -- expressions -----------------------------------------------------------------

    def parse_expr(self) -> Expr:
        """Parse a union/difference level expression."""
        left = self.parse_term()
        while self._peek() and self._peek().text in ("u", "+", "-"):
            operator = self._next().text
            right = self.parse_term()
            left = Union(left, right) if operator in ("u", "+") else Diff(left, right)
        return left

    def parse_term(self) -> Expr:
        """Parse a product-level expression."""
        left = self.parse_factor()
        while self._peek() and self._peek().text == "*":
            self._next()
            left = Product(left, self.parse_factor())
        return left

    def parse_factor(self) -> Expr:
        """Parse an atomic expression or operator form."""
        token = self._next()
        if token.text == "(":
            inner = self.parse_expr()
            self._expect(")")
            return inner
        if token.text == "{":
            values: List[Value] = []
            if self._peek() and self._peek().text != "}":
                values.append(self.parse_value())
                while self._peek() and self._peek().text == ",":
                    self._next()
                    values.append(self.parse_value())
            self._expect("}")
            return SetConst(frozenset(values))
        if token.kind != "name":
            raise AlgebraParseError(f"expected an expression, found {token.text!r}")
        if token.text == "empty":
            return SetConst(frozenset())
        if token.text == "sigma":
            self._expect("[")
            test = self.parse_test()
            self._expect("]")
            self._expect("(")
            child = self.parse_expr()
            self._expect(")")
            return Select(child, test)
        if token.text == "map":
            self._expect("[")
            scalar = self.parse_scalar()
            self._expect("]")
            self._expect("(")
            child = self.parse_expr()
            self._expect(")")
            return Map(child, scalar)
        if token.text == "ifp":
            self._expect("(")
            param = self._expect_name()
            self._expect(",")
            body = self.parse_expr()
            self._expect(")")
            return Ifp(param, body)
        if re.fullmatch(r"pi[1-9]", token.text):
            index = int(token.text[2:])
            self._expect("(")
            child = self.parse_expr()
            self._expect(")")
            return Map(child, Comp(Arg(), index))
        if self._peek() and self._peek().text == "(":
            self._next()
            args = [self.parse_expr()]
            while self._peek() and self._peek().text == ",":
                self._next()
                args.append(self.parse_expr())
            self._expect(")")
            return Call(token.text, tuple(args))
        return _RawName(token.text)  # type: ignore[return-value]

    # -- program ------------------------------------------------------------------------

    def parse_program(
        self, dialect: Dialect, name: Optional[str]
    ) -> AlgebraProgram:
        """Parse a whole program (header plus definitions)."""
        relations: List[str] = []
        if self._peek() and self._peek().text == "relations":
            self._next()
            relations.append(self._expect_name())
            while self._peek() and self._peek().text == ",":
                self._next()
                relations.append(self._expect_name())
            self._expect(";")

        raw_definitions: List[Tuple[str, Tuple[str, ...], Expr]] = []
        while not self.at_end():
            def_name = self._expect_name()
            params: List[str] = []
            if self._peek() and self._peek().text == "(":
                self._next()
                params.append(self._expect_name())
                while self._peek() and self._peek().text == ",":
                    self._next()
                    params.append(self._expect_name())
                self._expect(")")
            self._expect("=")
            body = self.parse_expr()
            self._expect(";")
            raw_definitions.append((def_name, tuple(params), body))

        defined = {def_name for def_name, _p, _b in raw_definitions}
        definitions = [
            Definition(
                def_name, params, _resolve(body, set(params), set(relations), defined)
            )
            for def_name, params, body in raw_definitions
        ]
        return AlgebraProgram.of(
            *definitions,
            database_relations=relations,
            dialect=dialect,
            name=name,
        )


def _resolve(
    node, params: Set[str], relations: Set[str], defined: Set[str]
) -> Expr:
    """Resolve raw names to RelVar (parameter / relation) or 0-ary Call."""
    if isinstance(node, _RawName):
        if node.name in params or node.name in relations:
            return RelVar(node.name)
        if node.name in defined:
            return Call(node.name)
        raise AlgebraParseError(
            f"unknown name {node.name!r}: not a parameter, declared relation, "
            f"or defined operation"
        )
    if isinstance(node, Union):
        return Union(
            _resolve(node.left, params, relations, defined),
            _resolve(node.right, params, relations, defined),
        )
    if isinstance(node, Diff):
        return Diff(
            _resolve(node.left, params, relations, defined),
            _resolve(node.right, params, relations, defined),
        )
    if isinstance(node, Product):
        return Product(
            _resolve(node.left, params, relations, defined),
            _resolve(node.right, params, relations, defined),
        )
    if isinstance(node, Select):
        return Select(_resolve(node.child, params, relations, defined), node.test)
    if isinstance(node, Map):
        return Map(_resolve(node.child, params, relations, defined), node.func)
    if isinstance(node, Ifp):
        return Ifp(
            node.param,
            _resolve(node.body, params | {node.param}, relations, defined),
        )
    if isinstance(node, Call):
        return Call(
            node.name,
            tuple(_resolve(arg, params, relations, defined) for arg in node.args),
        )
    return node


def parse_algebra_program(
    source: str,
    dialect: Dialect = Dialect.IFP_ALGEBRA_EQ,
    name: Optional[str] = None,
) -> AlgebraProgram:
    """Parse an ``algebra=`` program text."""
    return _Parser(_tokenize(source)).parse_program(dialect, name)


def parse_algebra_expr(
    source: str,
    relations: Sequence[str] = (),
    defined: Sequence[str] = (),
    params: Sequence[str] = (),
) -> Expr:
    """Parse a single expression; names resolve against the given sets."""
    parser = _Parser(_tokenize(source))
    raw = parser.parse_expr()
    if not parser.at_end():
        raise AlgebraParseError("trailing input after expression")
    return _resolve(raw, set(params), set(relations), set(defined))
