"""Answer checking against the from-scratch ``repro.datalog.run`` oracle.

The op stream is the client-side model: a :class:`~workloads.Check`
carries the view's fact set at the moment a read was sent, and the
oracle recomputes the view's model from nothing but the program text
and those facts.  A reply that is an ``error …`` line, a refusal, a
timeout or a mismatch is *counted* (into ``failed``), never raised: a
run always finishes and reports its failed share.

``python bench/oracle.py`` runs the self-test: a deliberately corrupted
reply must be counted.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

if __name__ == "__main__":
    sys.path[:0] = [
        str(Path(__file__).resolve().parent),
        str(Path(__file__).resolve().parent.parent / "src"),
    ]

from repro.relations.values import format_value  # noqa: E402
from workloads import Check, View  # noqa: E402


def _wire_row(predicate: str, row) -> str:
    if not row:
        return predicate
    return f"{predicate}({', '.join(format_value(value) for value in row)})"


class Oracle:
    """Expected replies for the views of one workload, memoised by state."""

    def __init__(self, views: List[View]):
        self.views = {view.name: view for view in views}
        self._models: Dict[Tuple[str, frozenset], object] = {}
        self.evaluations = 0

    def _model(self, check: Check):
        from repro.datalog import run
        from repro.datalog.parser import parse_program
        from repro.service.registry import split_program_and_facts

        key = (check.view, check.facts)
        model = self._models.get(key)
        if model is None:
            view = self.views[check.view]
            facts = " ".join(
                f"{predicate}({', '.join(args)})." for predicate, args in check.facts
            )
            program, database = split_program_and_facts(
                parse_program(f"{view.rules} {facts}")
            )
            for predicate in program.edb_predicates():
                database.declare(predicate)
            model = run(program, database, semantics=view.semantics)
            self._models[key] = model
            self.evaluations += 1
        return model

    def expected(self, check: Check) -> List[str]:
        """The exact reply lines (``explain`` lines aside) for a read."""
        model = self._model(check)

        def matching(rows):
            if check.pattern is None:
                return rows
            return [
                row
                for row in rows
                if len(row) == len(check.pattern)
                and all(
                    bound is None or format_value(value) == bound
                    for bound, value in zip(check.pattern, row)
                )
            ]

        true_rows = matching(model.true_rows(check.predicate))
        undefined = matching(model.undefined_rows(check.predicate))
        lines = sorted(f"row {_wire_row(check.predicate, r)}" for r in true_rows)
        lines += sorted(f"undef {_wire_row(check.predicate, r)}" for r in undefined)
        lines.append(f"ok {len(true_rows)} rows")
        return lines

    def verify(self, check: Check, reply: List[str]) -> Optional[str]:
        """``None`` when ``reply`` is the right answer, else what is wrong."""
        got = [line for line in reply if not line.startswith("explain ")]
        want = self.expected(check)
        if got == want:
            return None
        missing = len(set(want) - set(got))
        extra = len(set(got) - set(want))
        return (
            f"{check.view} {check.predicate}{check.pattern or ''}: "
            f"{missing} line(s) missing, {extra} unexpected"
        )


def reply_ok(reply: List[str]) -> bool:
    """Did the request complete?  (``error …``, refusals and empty
    replies are failures; timeouts never get this far.)"""
    return bool(reply) and reply[-1].startswith("ok")


def self_test() -> int:
    """A corrupted reply must be counted; the true reply must pass."""
    view = View("g", "valid", "win(X) :- move(X, Y), not win(Y).")
    facts = frozenset(
        ("move", pair) for pair in (("a", "b"), ("b", "c"), ("d", "e"), ("e", "d"))
    )
    oracle = Oracle([view])
    check = Check("g", "win", None, facts)
    truth = oracle.expected(check)
    wrong = []
    if truth != ["row win(b)", "undef win(d)", "undef win(e)", "ok 1 rows"]:
        wrong.append(f"oracle answer {truth}")
    attempted = failed = 0
    for reply in (
        truth,
        ["row win(a)"] + truth[1:],  # a wrong row
        truth[:1] + truth[2:],  # a dropped undef row
        ["error view-degraded ViewDegraded: injected"],  # a refusal
    ):
        attempted += 1
        if not reply_ok(reply) or oracle.verify(check, reply) is not None:
            failed += 1
    if failed != 3:
        wrong.append(f"{failed} of {attempted} replies counted, expected 3")
    point = Check("g", "win", ("b",), facts)
    if oracle.verify(point, ["row win(b)", "ok 1 rows"]) is not None:
        wrong.append("a correct point read was rejected")
    if oracle.verify(point, ["ok 0 rows"]) is None:
        wrong.append("an empty point read was accepted")
    print(
        f"corrupted-reply self-test: failed_op_share = {failed / attempted:.2f} "
        f"({failed} of {attempted} counted)"
    )
    for problem in wrong:
        print(f"self-test FAILED: {problem}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(self_test())
