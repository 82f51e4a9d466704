"""The request grammar of ``repro serve``, one module for every front door.

A request is one line::

    register <view> <semantics> [--semiring=<name>] <program-file-or-inline-text>
    unregister <view>
    +<view> <fact>[ @ <annotation>]
    -<view> <fact>
    query <view> <predicate>
    query <view> <pred>(a, _)     bound pattern, served demand-driven
    stats [<view>]
    metrics [--format=json|--format=prometheus]
    views                         (alias: list)
    drain <shard>                 cluster router only
    shards                        cluster router only
    quit                          (alias: exit)

:func:`parse` splits a line into a :class:`Request`, or refuses it with
:class:`Rejected`, whose one reply line is the verb's ``USAGE`` line or
an ``unknown ...`` line.  :func:`error_reply` turns any failure into
its reply, logged and counted once.  stdin and the unix socket
(:func:`repro.service.server.serve_stream`) and the cluster router's
frames (:class:`repro.service.cluster.router.ClusterRouter`) go through
these two, so a request gets the same reply bytes at every front door.

A ``register`` naming a file is resolved here, once: the request
carries the program text, never the path.  A write's fact stays text:
the worker parses it (:func:`~repro.datalog.facts.parse_annotated_fact`)
and the router keys it with ``fact_key`` only when it journals.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Callable, FrozenSet, List, NamedTuple, Optional, Tuple

from ..datalog.ast import Const, Var
from ..datalog.parser import _Parser, _tokenize
from ..datalog.stratification import SEMANTICS
from ..relations.values import Value
from ..robustness import ReproError, error_line

__all__ = [
    "QUIT", "ROUTER_VERBS", "SERVE_VERBS", "USAGE", "Rejected", "Request",
    "error_reply", "parse", "parse_bound_pattern",
]

#: Each verb's reply to a malformed request.
USAGE = {
    "+": "error usage: +<view> <fact>[ @ <annotation>]",
    "-": "error usage: -<view> <fact>[ @ <annotation>]",
    "register": (
        "error usage: register <view> <semantics> "
        "[--semiring=<name>] <program>"
    ),
    "unregister": "error usage: unregister <view>",
    "query": "error usage: query <view> <predicate>[(pattern)]",
    "drain": "error usage: drain <shard>",
}

#: The verbs a single-process server answers.
SERVE_VERBS = frozenset(
    ("+", "-", "register", "unregister", "query", "stats", "metrics", "views")
)
#: The cluster router answers those and two of its own.
ROUTER_VERBS = SERVE_VERBS | {"drain", "shards"}
#: The lines that end a stream with ``ok bye``.
QUIT = ("quit", "exit")

#: ``metrics`` arguments and the format each asks for.
_FORMATS = {
    argument: form
    for form in ("json", "prometheus")
    for argument in (f"--format={form}", f"--format {form}")
}
_FORMATS[""] = "json"


class Rejected(Exception):
    """A request the grammar refuses; ``reply`` is its one reply line
    (not a service error: neither logged nor counted)."""

    def __init__(self, reply: str):
        super().__init__(reply)
        self.reply = reply


class Request(NamedTuple):
    """One parsed request.  ``name`` is the view (the shard for
    ``drain``; ``None`` for ``stats`` of the whole service); ``text``
    the fact of ``+`` / ``-``, the predicate or bound pattern of
    ``query``, the program of ``register``, the ``metrics`` format."""

    verb: str
    name: Optional[str] = None
    text: str = ""
    semantics: str = ""
    semiring: Optional[str] = None

    @property
    def bound(self) -> bool:
        """Is a ``query``'s target a bound pattern like ``tc(a, _)``?"""
        return "(" in self.text

    def program_line(self) -> str:
        """A ``register``'s arguments after its semantics on one line,
        ``[--semiring=<name> ]<program>``: what the cluster router
        forwards, records and replays, so a file is never read again.
        A program spanning lines is parsed first (so a bad one fails at
        its own line and column), then its tokens are joined by spaces:
        ``%`` comments go, quotes stay."""
        program = self.text
        if "\n" in program or "\r" in program:
            tokens = _tokenize(program)
            _Parser(tokens).parse_program()
            program = " ".join(token.text for token in tokens)
            if "\n" in program or "\r" in program:
                raise ValueError(
                    "a quoted string in the program spans lines; "
                    "a forwarded program must fit on one line"
                )
        if self.semiring is None:
            return program
        return f"--semiring={self.semiring} {program}"


def parse(line: str, verbs: FrozenSet[str]) -> Request:
    """Split one request line (stripped, not blank, not a ``#``
    comment) whose verb is one of ``verbs``; :class:`Rejected` if
    malformed.  A ``register`` naming a file carries the file's text."""
    head = line[0]
    if head == "+" or head == "-":
        parts = line[1:].split(None, 1)
        if len(parts) != 2:
            raise Rejected(USAGE[head])
        return Request(head, parts[0], parts[1])
    verb, _, rest = line.partition(" ")
    if verb == "list":
        verb = "views"
    if verb not in verbs:
        raise Rejected(f"error unknown command {verb!r}")
    if verb == "register":
        return _parse_register(rest)
    if verb == "query":
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise Rejected(USAGE["query"])
        target = parts[1].strip()
        if "(" not in target and target.split() != [target]:
            raise Rejected(USAGE["query"])
        return Request("query", parts[0], target)
    if verb == "metrics":
        form = _FORMATS.get(rest.strip())
        if form is None:
            raise Rejected(f"error unknown metrics format {rest.strip()!r}")
        return Request("metrics", text=form)
    if verb in ("views", "shards"):
        return Request(verb)
    name = rest.strip()
    if not name and verb in USAGE:
        raise Rejected(USAGE[verb])
    return Request(verb, name or None)


def _parse_register(rest: str) -> Request:
    parts = rest.split(None, 2)
    if len(parts) < 3:
        raise Rejected(USAGE["register"])
    name, semantics, source = parts
    if semantics not in SEMANTICS:
        raise Rejected(
            f"error unknown semantics {semantics!r}; pick from {SEMANTICS}"
        )
    semiring = None
    if source.startswith("--semiring="):
        pieces = source.split(None, 1)
        semiring = pieces[0][len("--semiring=") :]
        if len(pieces) != 2 or not semiring:
            raise Rejected(USAGE["register"])
        source = pieces[1]
    path = Path(source.strip())
    try:
        is_file = path.is_file()
    except OSError:
        is_file = False
    text = path.read_text() if is_file else source
    return Request("register", name, text, semantics, semiring)


def parse_bound_pattern(text: str) -> Tuple[str, Tuple[Optional[Value], ...]]:
    """``(predicate, args)`` of a bound pattern like ``tc(a, _)``: a
    constant's value, ``None`` for a free position (``_`` or a variable).
    Function terms and repeated variables (a join constraint the demand
    path does not implement) are refused, not answered wrongly."""
    parser = _Parser(_tokenize(text))
    atom = parser.parse_atom()
    if not parser.at_end():
        raise ValueError(f"trailing input after pattern: {text!r}")
    args: List[Optional[Value]] = []
    named_free = set()
    for term in atom.args:
        if isinstance(term, Const):
            args.append(term.value)
        elif isinstance(term, Var):
            if term.name != "_":
                if term.name in named_free:
                    raise ValueError(
                        "repeated variables are not supported in bound "
                        f"patterns: {text!r}"
                    )
                named_free.add(term.name)
            args.append(None)
        else:
            raise ValueError(
                f"bound patterns take constants and '_', got {term!r}"
            )
    return atom.predicate, tuple(args)


def error_reply(
    exc: Exception,
    line: str,
    bump: Callable[[str], None],
    log: logging.Logger,
) -> List[str]:
    """The reply to a request that failed with ``exc``: a
    :class:`Rejected` request's own line, else one ``error`` line counted
    by ``bump("errors_total")`` and logged on ``log`` — a warning for
    service and user errors, a traceback for the rest."""
    if isinstance(exc, Rejected):
        return [exc.reply]
    if isinstance(exc, ReproError):
        log.warning("request failed (%s): %s", exc.code, exc)
    elif isinstance(exc, (KeyError, ValueError)):
        log.warning("bad request %r: %s", line, exc)
    else:
        log.exception("request failed: %r", line)
    bump("errors_total")
    return [error_line(exc)]
