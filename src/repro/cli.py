"""Command-line interface.

::

    repro datalog  PROGRAM.dl [--facts FACTS.dl] [--semantics valid] ...
    repro algebra  PROGRAM.alg [--facts FACTS.dl] [--dialect algebra=] ...
    repro translate --to datalog PROGRAM.alg
    repro translate --to algebra PROGRAM.dl
    repro check    PROGRAM.dl            (safety + stratification report)
    repro serve    [--socket PATH]       (incremental query service)
    repro serve    --shards N --socket PATH   (sharded serving tier)

Programs are text files in the package's concrete syntaxes
(:mod:`repro.datalog.parser`, :mod:`repro.lang.parser`).  Facts files are
Datalog fact lists (``move(a, b).``); for the algebra side each predicate
becomes a database relation via the standard encoding.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

# Only what every sub-command (and ``build_parser``) needs is imported
# here; each ``_cmd_*`` imports its own libraries, so ``repro serve``
# and the workers it spawns never load the algebra, syntax or
# specification packages.
from .datalog.database import Database, split_program_and_facts
from .datalog.parser import parse_program
from .datalog.stratification import SEMANTICS
from .relations.universe import translation_registry
from .relations.values import format_value, sorted_values
from .robustness import ReproError, error_line

if TYPE_CHECKING:
    from .robustness import EvaluationBudget

__all__ = ["main"]

#: ``--dialect`` choice → :class:`~repro.core.programs.Dialect` member name.
_DIALECTS = {
    "algebra": "ALGEBRA",
    "ifp-algebra": "IFP_ALGEBRA",
    "algebra=": "ALGEBRA_EQ",
    "ifp-algebra=": "IFP_ALGEBRA_EQ",
}


def _parse_algebra_file(args: argparse.Namespace):
    """The ``algebra=`` program named on the command line, in the
    dialect ``--dialect`` picked."""
    from .core.programs import Dialect
    from .lang.parser import parse_algebra_program

    return parse_algebra_program(
        Path(args.program).read_text(),
        dialect=Dialect[_DIALECTS[args.dialect]],
        name=args.program,
    )


def _load_facts(path: Optional[str]) -> Database:
    database = Database()
    if path is None:
        return database
    program = parse_program(Path(path).read_text())
    for rule in program.rules:
        if not rule.is_fact():
            raise SystemExit(f"facts file {path} contains a non-fact rule: {rule!r}")
        database.add(rule.head.predicate, *(arg.value for arg in rule.head.args))
    return database


def _merge(left: Database, right: Database) -> Database:
    merged = left.copy()
    for predicate, row in right:
        merged.add(predicate, *row)
    return merged


def _print_rows(label: str, rows) -> None:
    rendered = sorted(
        "(" + ", ".join(format_value(v) for v in row) + ")" for row in rows
    )
    print(f"  {label}: {' '.join(rendered) if rendered else '-'}")


def _budget_from_args(args: argparse.Namespace) -> Optional[EvaluationBudget]:
    """An :class:`EvaluationBudget` from the one-shot resource flags."""
    deadline_ms = getattr(args, "deadline_ms", None)
    max_steps = getattr(args, "max_steps", None)
    max_facts = getattr(args, "max_facts", None)
    if deadline_ms is None and max_steps is None and max_facts is None:
        return None
    from .robustness import EvaluationBudget

    return EvaluationBudget.from_millis(
        deadline_ms, max_steps=max_steps, max_facts=max_facts
    )


def _print_repro_error(exc: ReproError) -> int:
    """Surface a governed failure in the service wire shape, exit 1.

    The same ``error <code> <Type>: <message>`` line the protocol
    emits, so scripts can treat one-shot runs and the server alike —
    and no traceback ever reaches the terminal for a budget trip.
    """
    print(error_line(exc))
    return 1


def _cmd_datalog(args: argparse.Namespace) -> int:
    from .datalog.engine import run

    source = Path(args.program).read_text()
    program, inline_facts = split_program_and_facts(
        parse_program(source, name=args.program)
    )
    database = _merge(inline_facts, _load_facts(args.facts))
    try:
        result = run(
            program,
            database,
            semantics=args.semantics,
            registry=translation_registry(),
            max_rounds=args.max_rounds,
            max_atoms=args.max_atoms,
            budget=_budget_from_args(args),
        )
    except ReproError as exc:
        return _print_repro_error(exc)
    predicates = args.query or sorted(program.idb_predicates())
    for predicate in predicates:
        print(f"{predicate}:")
        _print_rows("true", result.true_rows(predicate))
        undefined = result.undefined_rows(predicate)
        if undefined:
            _print_rows("undefined", undefined)
    if not result.is_total():
        print("note: the model is three-valued (some atoms undefined)")
    return 0


def _load_relations(path: Optional[str]) -> dict:
    """An algebra-side facts file: ground set definitions in the algebra
    syntax, e.g. ``MOVE = {[a, b], [b, c]};``."""
    if path is None:
        return {}
    from .core.valid_eval import evaluate
    from .lang.parser import parse_algebra_program

    facts_program = parse_algebra_program(Path(path).read_text())
    environment = {}
    for definition in facts_program.definitions:
        if definition.params:
            raise SystemExit(
                f"relations file {path}: {definition.name} is not a ground set"
            )
        value = evaluate(
            definition.body, environment, registry=translation_registry(),
            program=facts_program,
        )
        environment[definition.name] = value.renamed(definition.name)
    return environment


def _cmd_algebra(args: argparse.Namespace) -> int:
    from .core.well_defined import check_well_defined
    from .relations.relation import Relation

    program = _parse_algebra_file(args)
    environment = _load_relations(args.facts)
    for name in program.database_relations:
        environment.setdefault(name, Relation([], name=name))
    report = check_well_defined(
        program, environment, registry=translation_registry()
    )
    result = report.result
    for definition in program.to_constant_system().definitions:
        name = definition.name
        members = " ".join(
            format_value(v) for v in sorted_values(result.true[name])
        )
        print(f"{name} = {{{members}}}")
        if result.undefined[name]:
            undef = " ".join(
                format_value(v) for v in sorted_values(result.undefined[name])
            )
            print(f"  undefined members: {undef}")
    print(f"well-definedness: {report.verdict.value}")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    if args.to == "datalog":
        from .core.algebra_to_datalog import translate_program
        from .datalog.pretty import pretty_program

        translation = translate_program(_parse_algebra_file(args))
        print(pretty_program(translation.program))
        print()
        for name, predicate in sorted(translation.predicate_of.items()):
            print(f"% {name} -> {predicate}")
    else:
        from .core.datalog_to_algebra import datalog_to_algebra
        from .lang.pretty import pretty_algebra_program

        program, facts = split_program_and_facts(
            parse_program(Path(args.program).read_text(), name=args.program)
        )
        if facts.fact_count():
            print(
                "% note: ground facts in the input belong to the database "
                "and are not translated",
                file=sys.stderr,
            )
        translation = datalog_to_algebra(program)
        print(pretty_algebra_program(translation.program))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .datalog.safety import is_safe_rule
    from .datalog.stratification import is_stratified, strata_partition

    source = Path(args.program).read_text()
    program, _facts = split_program_and_facts(
        parse_program(source, name=args.program)
    )
    exit_code = 0
    for rule in program.rules:
        if not is_safe_rule(rule):
            print(f"UNSAFE: {rule!r}")
            exit_code = 1
    if is_stratified(program):
        partition = strata_partition(program)
        print(f"stratified: yes ({len(partition)} strata)")
        for level, members in enumerate(partition):
            print(f"  stratum {level}: {' '.join(sorted(members))}")
    else:
        print("stratified: no (evaluate under wellfounded/valid semantics)")
    if exit_code == 0:
        print("safety: all rules safe (Definition 4.1)")
    return exit_code


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """The sharded serving tier: N worker processes behind one router."""
    import asyncio
    import signal

    from .robustness import RecoveryError
    from .service.cluster import ClusterClient, ClusterRouter

    if not args.socket:
        raise SystemExit("--shards requires --socket PATH (the front door)")
    worker_options = {
        "cache_capacity": args.cache_capacity,
        "max_rounds": args.max_rounds,
        "max_atoms": args.max_atoms,
        "deadline_ms": args.deadline_ms,
        "coalesce": args.coalesce,
        "semiring": args.semiring,
        "max_concurrent": args.max_concurrent,
        "max_request_bytes": args.max_request_bytes,
    }

    def cluster_snapshot():
        # The exporter thread scrapes the router through its own front
        # door, so the file always shows the same rollup clients see.
        with ClusterClient(args.socket, timeout=30.0) as client:
            return client.metrics()

    async def main() -> None:
        router = ClusterRouter(
            args.socket,
            shards=args.shards,
            worker_options=worker_options,
            heartbeat_interval=args.heartbeat_interval,
            data_dir=args.data_dir,
            fsync=args.fsync,
            checkpoint_every=args.checkpoint_every,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        try:
            await router.start()
        except BaseException:
            await router.stop()
            raise
        if args.data_dir and router.last_recovery is not None:
            report = router.last_recovery
            print(
                f"cluster recovered generation {report['generation']} "
                f"from {args.data_dir}: {report['views_restored']} "
                f"view(s), {report['replayed_records']} WAL record(s) "
                f"replayed",
                file=sys.stderr,
            )
        print(
            f"serving {args.shards} shard(s) on unix socket {args.socket} "
            f"(framed protocol)",
            file=sys.stderr,
        )
        exporter = None
        if args.metrics_prometheus:
            from .service.prometheus import PrometheusExporter

            exporter = PrometheusExporter(
                cluster_snapshot,
                args.metrics_prometheus,
                interval=args.metrics_interval,
            )
            exporter.start()
        serving = asyncio.ensure_future(router.serve_forever())
        stopping = asyncio.ensure_future(stop.wait())
        try:
            # Either the server dies on its own or a signal asks for a
            # graceful stop; the ``finally`` takes the final checkpoint
            # through router.stop() in both cases.
            await asyncio.wait(
                {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
            )
            if exporter is not None:
                # The final export scrapes the front door, so it is
                # taken while the door still answers, and on another
                # thread: this loop is the one that serves the scrape.
                await loop.run_in_executor(None, exporter.stop)
        finally:
            for task in (serving, stopping):
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            for signum in installed:
                loop.remove_signal_handler(signum)
            if exporter is not None:
                exporter.stop()  # a no-op once stopped above
            await router.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    except RecoveryError as exc:
        return _print_repro_error(exc)
    return 0


def _install_stop_signals(on_stop) -> dict:
    """Route SIGTERM/SIGINT to ``on_stop`` (graceful shutdown).

    Returns the previous handlers so the caller can restore them; an
    empty dict when not on the main thread (the test harness drives
    these commands from worker threads, where signal installation is
    forbidden — and unnecessary).
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return {}
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, on_stop)
    return previous


def _restore_signals(previous: dict) -> None:
    import signal

    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - teardown race
            pass


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.shards > 1:
        return _cmd_serve_cluster(args)

    import threading

    from .robustness import RecoveryError
    from .service import QueryService, serve_stream, serve_unix_socket

    try:
        service = QueryService(
            function_registry=translation_registry(),
            cache_capacity=args.cache_capacity,
            max_rounds=args.max_rounds,
            max_atoms=args.max_atoms,
            deadline_ms=args.deadline_ms,
            coalesce=args.coalesce,
            semiring=args.semiring,
            data_dir=args.data_dir,
            fsync=args.fsync,
            checkpoint_every=args.checkpoint_every,
        )
    except RecoveryError as exc:
        return _print_repro_error(exc)
    if args.data_dir and service.last_recovery is not None:
        report = service.last_recovery
        print(
            f"recovered generation {report.generation} from {args.data_dir}: "
            f"{report.views_restored} view(s), "
            f"{report.replayed_records} WAL record(s) replayed",
            file=sys.stderr,
        )
    exporter = None
    if args.metrics_prometheus:
        from .service.prometheus import PrometheusExporter

        exporter = PrometheusExporter(
            service.metrics_snapshot,
            args.metrics_prometheus,
            interval=args.metrics_interval,
        )
        exporter.start()
    stop_event = threading.Event()

    def _socket_stop(_signum, _frame):
        # Graceful: the accept loop notices, drains, and returns —
        # then the ``finally`` below takes the final checkpoint.
        stop_event.set()

    def _stream_stop(_signum, _frame):
        # Interrupt the blocking stdin read; caught below.
        raise KeyboardInterrupt

    previous = _install_stop_signals(
        _socket_stop if args.socket else _stream_stop
    )
    try:
        if args.socket:
            serve_unix_socket(
                service,
                args.socket,
                max_connections=args.max_connections,
                max_concurrent=args.max_concurrent,
                max_request_bytes=args.max_request_bytes,
                stop_event=stop_event,
                on_listen=lambda: print(
                    f"serving on unix socket {args.socket}", file=sys.stderr
                ),
            )
        else:
            try:
                # One flush per reply: a client on a pipe gets each
                # answer when it is complete, not when 8 kB pile up.
                serve_stream(
                    service,
                    sys.stdin,
                    print,
                    max_request_bytes=args.max_request_bytes,
                    flush=sys.stdout.flush,
                )
            except KeyboardInterrupt:
                pass  # SIGTERM/SIGINT: fall through to the graceful close
    finally:
        _restore_signals(previous)
        # Stop the exporter on the way out, and flush the durability
        # plane (final checkpoint).
        if exporter is not None:
            exporter.stop()
        service.close()
    if args.metrics_snapshot:
        # The final observability snapshot, one JSON document on
        # stdout — what a supervisor scrapes when the server exits.
        print(json.dumps(service.metrics_snapshot(), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Algebras with recursion vs deduction — the Beeri–Milo SIGMOD'93 "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ``repro run`` is an alias for ``repro datalog`` — the one-shot
    # evaluation path, resource-governed by the same budget flags.
    for name, help_text in (
        ("datalog", "run a deductive program"),
        ("run", "run a deductive program (alias for datalog)"),
    ):
        p_dl = sub.add_parser(name, help=help_text)
        p_dl.add_argument("program")
        p_dl.add_argument("--facts", help="extra facts file")
        p_dl.add_argument("--semantics", choices=SEMANTICS, default="valid")
        p_dl.add_argument(
            "--query", action="append", help="predicate(s) to print"
        )
        p_dl.add_argument("--max-rounds", type=int, default=10_000)
        p_dl.add_argument("--max-atoms", type=int, default=1_000_000)
        p_dl.add_argument(
            "--deadline-ms",
            type=float,
            default=None,
            help="wall-clock deadline for the evaluation (default: none)",
        )
        p_dl.add_argument(
            "--max-steps",
            type=int,
            default=None,
            help="derivation-step budget (default: unlimited)",
        )
        p_dl.add_argument(
            "--max-facts",
            type=int,
            default=None,
            help="derived-fact budget (default: unlimited)",
        )
        p_dl.set_defaults(func=_cmd_datalog)

    p_alg = sub.add_parser("algebra", help="run an algebra= program")
    p_alg.add_argument("program")
    p_alg.add_argument("--facts", help="facts file defining the database relations")
    p_alg.add_argument("--dialect", choices=sorted(_DIALECTS), default="ifp-algebra=")
    p_alg.set_defaults(func=_cmd_algebra)

    p_tr = sub.add_parser("translate", help="translate between the paradigms")
    p_tr.add_argument("program")
    p_tr.add_argument("--to", choices=["datalog", "algebra"], required=True)
    p_tr.add_argument("--dialect", choices=sorted(_DIALECTS), default="ifp-algebra=")
    p_tr.set_defaults(func=_cmd_translate)

    p_chk = sub.add_parser("check", help="safety and stratification report")
    p_chk.add_argument("program")
    p_chk.set_defaults(func=_cmd_check)

    p_srv = sub.add_parser(
        "serve",
        help="incremental query service (line protocol on stdin or a socket)",
    )
    p_srv.add_argument("--socket", help="serve on this unix socket instead of stdin")
    p_srv.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="stop after N socket connections (default: serve forever)",
    )
    p_srv.add_argument("--cache-capacity", type=int, default=256)
    p_srv.add_argument("--max-rounds", type=int, default=10_000)
    p_srv.add_argument("--max-atoms", type=int, default=1_000_000)
    p_srv.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="wall-clock deadline per expensive request (default: none)",
    )
    p_srv.add_argument(
        "--max-request-bytes",
        type=int,
        default=None,
        help="reject request lines longer than this (default: unlimited)",
    )
    p_srv.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="socket connections served concurrently (default: 8)",
    )
    p_srv.add_argument(
        "--coalesce",
        type=int,
        default=64,
        metavar="N",
        help=(
            "absorb up to N queued update batches per engine pass "
            "(default: 64; 1 applies every batch on its own)"
        ),
    )
    p_srv.add_argument(
        "--semiring",
        default="bool",
        metavar="NAME",
        help=(
            "default annotation semiring for registered views: bool "
            "(set semantics, default), naturals (bag/derivation "
            "counting), tropical (min-plus costs), or why "
            "(lineage witnesses served on explain lines); individual "
            "registrations can override with --semiring=<name>"
        ),
    )
    p_srv.add_argument(
        "--data-dir",
        metavar="PATH",
        default=None,
        help=(
            "durable serving: journal every registration and update "
            "batch to a write-ahead log under PATH, checkpoint "
            "periodically, and recover the full serving state on a "
            "cold start (default: in-memory only)"
        ),
    )
    p_srv.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default="batch",
        help=(
            "WAL flush policy: fsync every record (survives power "
            "loss), every few records (default), or never (page cache "
            "only — still survives kill -9, not power loss)"
        ),
    )
    p_srv.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        metavar="N",
        help="checkpoint after every N journaled records (default: 256)",
    )
    p_srv.add_argument(
        "--metrics-snapshot",
        action="store_true",
        help="dump the service metrics snapshot as JSON on exit",
    )
    p_srv.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "run the sharded serving tier: N worker processes behind an "
            "asyncio router on --socket (default: 1 = single process)"
        ),
    )
    p_srv.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between worker health checks (cluster mode)",
    )
    p_srv.add_argument(
        "--metrics-prometheus",
        metavar="PATH",
        default=None,
        help=(
            "periodically export metrics in Prometheus text format to "
            "this file (atomic replace)"
        ),
    )
    p_srv.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        help="seconds between Prometheus exports (default: 5)",
    )
    p_srv.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
