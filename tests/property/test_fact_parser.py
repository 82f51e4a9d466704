"""The write path's fact parser against the program parser.

``parse_fact`` reads one atom, its ``.`` and end of input, without
building a program.  Its reference here is the whole-program route it
replaces: ``parse_program`` on the text, then "exactly one rule, a
fact, every argument a constant" (the old route crashed with an
``AttributeError`` on function terms; the reference rejects them as
not ground).  Both must accept the same texts with the same answer and
reject the same texts with the same exception type and message.

The tokenizer is one ``finditer`` pass; its reference is the
character-position loop it replaced, kept below verbatim in behaviour:
same tokens, same line and column on every token, same error.

``format_fact`` is the spelling ``parse_fact`` reads: every row of
values comes back as the same values, of the same types.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Const, Var
from repro.datalog.facts import fact_key, format_fact, parse_annotated_fact
from repro.datalog.parser import ParseError, _tokenize, parse_program, parse_term
from repro.relations import Atom, Tup
from repro.service import parse_fact

# ---------------------------------------------------------------------------
# The references
# ---------------------------------------------------------------------------


def reference_fact(text):
    text = text.strip()
    if not text.endswith("."):
        text += "."
    program = parse_program(text)
    if len(program.rules) == 1 and program.rules[0].is_fact():
        head = program.rules[0].head
        if all(isinstance(arg, Const) for arg in head.args):
            return head.predicate, tuple(arg.value for arg in head.args)
    raise ValueError(f"expected a single ground fact, got {text!r}")


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<arrow>:-)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[(),.\[\]])
  | (?P<int>-?\d+)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<name>[a-zA-Z_][a-zA-Z0-9_]*)
    """,
    re.VERBOSE,
)


def reference_tokenize(source):
    tokens = []
    line, line_start = 1, 0
    index = 0
    while index < len(source):
        match = _REFERENCE_TOKEN_RE.match(source, index)
        if not match:
            column = index - line_start + 1
            raise ParseError(f"unexpected character {source[index]!r}", (line, column))
        kind = match.lastgroup or ""
        text = match.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, text, line, index - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = index + text.rfind("\n") + 1
        index = match.end()
    return tokens


def outcome(function, text):
    """What ``function(text)`` returns, or its exception's type and message."""
    try:
        return ("ok", function(text))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

names = st.from_regex(r"[a-z][a-zA-Z0-9_]{0,6}", fullmatch=True)
strings = st.text(alphabet="ab '\\\n%.,()@", max_size=8).map(
    lambda raw: "'" + raw.replace("\\", "\\\\").replace("'", "\\'") + "'"
)
# Where a flat fact's one-match route and the grammar could part: the
# two boolean names and their near misses, integers spelled with a sign
# or leading zeros, and strings holding the fact's own punctuation.
edge_scalars = st.sampled_from([
    "true", "false", "trueish", "false_", "-0", "007", "-0042",
    "'a, b'", "'x) @ 3.'", "' '", "''", "'\\''", "'it\\'s, ok'", "'new york'",
])
scalars = st.one_of(names, st.integers(-999, 999).map(str), strings, edge_scalars)
constants = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3).map(lambda items: f"[{', '.join(items)}]"),
    max_leaves=6,
)
spaces = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def facts(draw, argument=constants):
    predicate = draw(names)
    args = draw(st.lists(argument, max_size=4))
    gap = draw(spaces)
    if not args:
        body = draw(st.sampled_from(["", "()"]))
    else:
        body = "(" + f",{gap}".join(args) + ")"
    dot = draw(st.sampled_from(["", ".", " ."]))
    return f"{draw(spaces)}{predicate}{body}{dot}{draw(spaces)}"


non_ground = st.one_of(
    st.sampled_from(["X", "_", "Foo", "_bar"]),
    st.builds(lambda f, a: f"{f}({a})", names, constants),
    st.builds(lambda a: f"[{a}, f(b)]", constants),
)
near_misses = st.one_of(
    # A variable or a function term among the constants.
    facts(argument=st.one_of(constants, non_ground)),
    # A rule, two facts, trailing input.
    st.builds(lambda fact, tail: fact.rstrip().rstrip(".") + tail, facts(), st.sampled_from([
        " :- q(a)", " :- not q(X)", ". q(b)", ". q(b).", " extra", " (", ")", " % c",
        " $", " 'open", " - ", ".. ", " = a",
    ])),
)

_PIECES = [
    "p", "edge", "X", "_", "Y1", "0", "-7", "'a b'", "'it\\'s'", "'back\\\\'",
    "true", "false", "_p", "aB1", "007", "'a, ) @ .'", "@",
    "'two\nlines'", "(", ")", ",", ".", "[", "]", ":-", "not", "=", "!=", "<=",
    " ", "\n", "\t", "% comment\n", "%", "$", "'", "-", "#",
]
soups = st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


#: Flat facts and the texts just past what the one-match route takes:
#: a space before ``(``, an empty or dangling argument, two periods,
#: a sign or a digit run glued to a name, other whitespace inside.
flat_edges = st.builds(
    lambda predicate, args, gap, tail: f"{predicate}({gap.join(args)}){tail}",
    st.sampled_from(["p", "_p", "edge", "aB_1", "p ", "P", "not"]),
    st.lists(
        st.one_of(scalars, st.sampled_from(["", "-a", "- 1", "1a", "a-1", "--1", "f(a)", "X"])),
        max_size=3,
    ),
    st.sampled_from([", ", ",", " , ", ",\t", "  ,  ", " "]),
    st.sampled_from(["", ".", " .", "..", ". ", " @", "\n", " x"]),
)


@settings(max_examples=300, deadline=None)
@given(flat_edges)
def test_the_flat_route_matches_the_program_route_at_its_edges(text):
    got, want = outcome(parse_fact, text), outcome(reference_fact, text)
    assert got == want
    if got[0] == "ok":
        # ``True == 1``: the values must agree in type too.
        assert [type(value) for value in got[1][1]] == [
            type(value) for value in want[1][1]
        ]


@settings(max_examples=300, deadline=None)
@given(facts())
def test_a_ground_fact_parses_as_the_program_it_is(text):
    assert outcome(parse_fact, text) == outcome(reference_fact, text)
    assert outcome(parse_fact, text)[0] == "ok"


@settings(max_examples=300, deadline=None)
@given(near_misses)
def test_parse_fact_rejects_exactly_what_the_program_route_rejects(text):
    assert outcome(parse_fact, text) == outcome(reference_fact, text)


@settings(max_examples=300, deadline=None)
@given(soups)
def test_tokens_lines_and_columns_match_the_reference(source):
    assert outcome(_tokenize, source) == outcome(reference_tokenize, source)


@settings(max_examples=200, deadline=None)
@given(soups)
def test_parse_fact_on_any_text_matches_the_program_route(text):
    assert outcome(parse_fact, text) == outcome(reference_fact, text)


def test_fact_values():
    assert parse_fact("edge(c3n1, c3n2)") == ("edge", (Atom("c3n1"), Atom("c3n2")))
    assert parse_fact("e(true, false, -0, 007, 'a, ) @ .')") == (
        "e", (True, False, 0, 7, "a, ) @ .")
    )
    assert parse_fact("p") == ("p", ())
    assert parse_fact("p().") == ("p", ())
    assert parse_fact("e(-3, 'it\\'s', 'a\\\\b')") == ("e", (-3, "it's", "a\\b"))
    assert parse_fact("e([a, [-1, 'x']], true)") == (
        "e", (Tup((Atom("a"), Tup((-1, "x")))), True)
    )


@pytest.mark.parametrize("text", [
    "edge(X, b)", "edge(f(a), b)", "e([a, f(b)])", "e(a) :- f(b)", "e(a). e(b).",
])
def test_what_is_no_single_ground_fact_is_a_value_error(text):
    with pytest.raises(ValueError, match="expected a single ground fact") as caught:
        parse_fact(text)
    assert type(caught.value) is ValueError


def _typed(value):
    """``value`` with its type at every level (``True == 1`` otherwise)."""
    if isinstance(value, Tup):
        return (Tup, tuple(map(_typed, value.items)))
    return (type(value), value)


#: Rows of values: the constants above, read by the program grammar.
rows = st.lists(constants.map(lambda text: parse_term(text).value), max_size=4)


@settings(max_examples=300, deadline=None)
@given(names, rows)
def test_a_formatted_fact_reads_back_to_its_values(predicate, row):
    row = tuple(row)
    text = format_fact(predicate, row)
    parsed = parse_fact(text)
    assert parsed == (predicate, row)
    assert _typed(Tup(parsed[1])) == _typed(Tup(row))
    assert parse_annotated_fact(f"{text} @ 3") == (predicate, row, "3")


def reference_key(text):
    predicate, row, annotation = parse_annotated_fact(text)
    key = format_fact(predicate, row)
    return key, key if annotation is None else f"{key} @ {annotation}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(facts(), flat_edges, near_misses, soups), st.sampled_from(["", " @ 3", "@x y"]))
def test_a_fact_key_is_the_spelling_of_the_parsed_fact(text, annotation):
    # The router keys facts without building their values.
    text += annotation
    assert outcome(fact_key, text) == outcome(reference_key, text)


@pytest.mark.parametrize("text, row", [
    ("q(True)", (True,)),
    ("q(False, [True, a])", (False, Tup((True, Atom("a"))))),
    ("q( True ,'x').", (True, "x")),
])
def test_the_old_boolean_spelling_reads_as_booleans(text, row):
    # Logs and checkpoints written before booleans were spelled
    # ``true`` / ``false`` hold ``True`` / ``False``.
    assert _typed(Tup(parse_fact(text)[1])) == _typed(Tup(row))
    assert parse_annotated_fact(text + " @ 2") == ("q", row, "2")


def test_in_a_rule_true_is_still_a_variable():
    [rule] = parse_program("p(X) :- q(X, True).").rules
    assert rule.body[0].atom.args[1] == Var("True")
    for text in ["True(a)", "q(Trueish)", "q(True(a))", "q(tuple(a))"]:
        with pytest.raises(ValueError):
            parse_fact(text)


#: Multi-line programs with comments and newlines inside quoted strings:
#: the error every one of them raises, position included.
PROGRAM_ERRORS = [
    ("p(a).\n% a comment\nq(X) :- p(X), r(X\n",
     "unexpected end of input"),
    ("p('one\ntwo', b).\nq(a) :- p(a, b) $ .\n",
     "line 3, column 17: unexpected character '$'"),
    ("p(a).\n  q(b) :-\n\n   not .\n",
     "line 4, column 8: expected a predicate name, found '.'"),
    ("% only a comment\np('a\\'b\nc') q(a).\n",
     "line 3, column 5: expected '.', found 'q'"),
    ("p(a). % trailing comment\nq(a, [b, c) .\n",
     "line 2, column 11: expected ']', found ')'"),
    ("edge(a, b).\nedge(b, c).\ntc(X, Y) :- edge(X, Y)\ntc(X, Z) :- tc(X, Y), edge(Y, Z).\n",
     "line 4, column 1: expected '.', found 'tc'"),
    ("p(-).\n",
     "line 1, column 3: unexpected character '-'"),
    ("p('unterminated\nq(a).\n",
     "line 1, column 3: unexpected character \"'\""),
    ("p(a) :- X < .\n",
     "line 1, column 13: expected a term, found '.'"),
    ("P(a).\n",
     "line 1, column 1: expected a predicate name, found 'P'"),
]


@pytest.mark.parametrize("source, message", PROGRAM_ERRORS)
def test_parse_errors_keep_their_line_and_column(source, message):
    with pytest.raises(ParseError) as caught:
        parse_program(source)
    assert str(caught.value) == message
