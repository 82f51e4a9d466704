"""What a process loads before it can do its job.

A cold start is mostly imports, so the serving path has a budget: no
graph library, no algebra / syntax / specification packages, no event
loop, and no engine until a view asks for it.  Each check runs in a fresh interpreter — ``sys.modules`` of the
test process says nothing about a cold one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code, *argv):
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


#: What a stratified server must not load before a view asks for it:
#: the Section 4 evaluator behind ``run()``, the three-valued chain,
#: the annotated engines, magic sets, Prometheus and algebraic relations.
LAZY_ENGINES = (
    "repro.datalog.engine",
    "repro.datalog.grounding",
    "repro.datalog.magic",
    "repro.datalog.semantics",
    "repro.datalog.annotated",
    "repro.service.annotated",
    "repro.service.prometheus",
    "repro.service.dbsp.alternating",
    "repro.relations.relation",
)


def test_a_server_imports_what_it_serves():
    loaded = _python(
        "import sys\n"
        "import repro.cli\n"
        "from repro.service import QueryService, serve_stream, serve_unix_socket\n"
        "repro.cli.build_parser()\n"
        "serve_stream(QueryService(), [\n"
        "    'register g stratified tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).',\n"
        "    '+g e(a, b)', '-g e(a, b)', '+g e(b, c)', 'query g tc',\n"
        "], lambda line: None)\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    ).split()
    assert "repro.service.dbsp.engine" in loaded
    unwanted = [
        name
        for name in loaded
        if name.split(".")[0] in ("networkx", "asyncio")
        or name.startswith(("repro.core", "repro.lang", "repro.specs"))
        or name == "repro.service.cluster"
        or any(name == lazy or name.startswith(lazy + ".") for lazy in LAZY_ENGINES)
    ]
    assert not unwanted, unwanted


def test_a_cluster_worker_imports_no_router():
    loaded = _python(
        "import sys\n"
        "import repro.service.cluster.worker\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    ).split()
    assert "repro.service.cluster.worker" in loaded
    assert "asyncio" not in loaded
    assert "repro.service.cluster.router" not in loaded


def test_a_cluster_router_imports_no_engine():
    """``serve --shards N`` loads the router and stops short of the
    serving stack: the workers, not the router, hold the views."""
    loaded = _python(
        "import sys\n"
        "import repro.cli\n"
        "try:\n"
        "    repro.cli.main(['serve', '--shards', '2'])\n"  # no --socket: stops
        "except SystemExit:\n"
        "    pass\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    ).split()
    assert "repro.service.cluster.router" in loaded
    engines = [
        name
        for name in loaded
        if name in ("repro.service.server", "repro.service.views", "repro.datalog.kernel")
        or name.startswith("repro.service.dbsp")
    ]
    assert not engines, engines


FACADE = (
    "import importlib, sys\n"
    "package = importlib.import_module(sys.argv[1])\n"
    "names = package.__all__\n"
    "missing = [n for n in names if not hasattr(package, n)]\n"
    "uncached = [n for n in names if n not in vars(package)]\n"
    "unlisted = [n for n in names if n not in dir(package)]\n"
    "namespace = {}\n"
    "exec(f'from {sys.argv[1]} import *', namespace)\n"
    "unstarred = [n for n in names if n not in namespace]\n"
    "print(missing, uncached, unlisted, unstarred, len(names))\n"
    "print(hasattr(package, 'no_such_name'))\n"
)


@pytest.mark.parametrize(
    "package, exports",
    [
        ("repro", 32),
        ("repro.datalog", 48),
        ("repro.relations", 16),
        ("repro.robustness", 23),
        ("repro.service", 25),
        ("repro.service.cluster", 20),
        ("repro.service.dbsp", 4),
    ],
)
def test_every_lazy_facade_still_exports_everything(package, exports):
    """Each ``__all__`` name resolves (once: the value is then a plain
    module attribute), is listed by ``dir`` and bound by ``import *``;
    a name the facade does not export is still an ``AttributeError``,
    so ``hasattr`` / ``getattr`` defaults work."""
    out = _python(FACADE, package)
    assert out == f"[] [] [] [] {exports}\nFalse\n", out


TC = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z)."
ENGINES = (
    "import sys\n"
    "from repro.service import QueryService, serve_stream\n"
    f"TC = {TC!r}\n"
    "steps = [\n"
    "    ('repro.service.dbsp.alternating', [\n"
    "        'register w valid win(X) :- move(X, Y), not win(Y).',\n"
    "        '+w move(a, b)', '+w move(b, c)', '+w move(d, e)', '+w move(e, d)',\n"
    "        'query w win']),\n"
    "    ('repro.service.annotated', [\n"
    "        f'register t stratified --semiring=tropical {TC}',\n"
    "        '+t e(a, b) @ 1', '+t e(b, c) @ 2', '+t e(a, c) @ 5', 'query t tc']),\n"
    "    ('repro.datalog.engine', [\n"
    "        'register i inflationary p(X) :- q(X), not r(X).',\n"
    "        '+i q(a)', '+i q(b)', '+i r(b)', 'query i p']),\n"
    "    ('repro.datalog.magic', [\n"
    "        f'register s stratified {TC}',\n"
    "        '+s e(a, b)', '+s e(b, c)', '+s e(c, d)', 'query s tc(b, _)']),\n"
    "]\n"
    "service = QueryService()\n"
    "for module, lines in steps:\n"
    "    before = module in sys.modules\n"
    "    replies = []\n"
    "    serve_stream(service, lines, replies.append)\n"
    "    print(module, before, module in sys.modules)\n"
    "    print('\\n'.join(r for r in replies if not r.startswith('ok {')))\n"
    "service.close()\n"
)


def test_each_engine_loads_at_its_first_view_and_answers_as_before():
    """A valid view loads the alternating chain, a tropical one the
    annotated engine, an inflationary one ``run()`` — each at first
    use, none before — and each answers exactly what the eagerly loaded
    server answered.  A bound point query probes the view's snapshot
    and loads nothing: magic sets stay unloaded."""
    assert _python(ENGINES).splitlines() == [
        "repro.service.dbsp.alternating False True",
        "row win(b)",
        "undef win(d)",
        "undef win(e)",
        "ok 1 rows",
        "repro.service.annotated False True",
        "row tc(a, b)",
        "row tc(a, c)",
        "row tc(b, c)",
        "explain tc(a, b) @ 1",
        "explain tc(a, c) @ 3",
        "explain tc(b, c) @ 2",
        "ok 3 rows",
        "repro.datalog.engine False True",
        "row p(a)",
        "ok 1 rows",
        "repro.datalog.magic False False",
        "row tc(b, c)",
        "row tc(b, d)",
        "ok 2 rows",
    ]


CLI = (
    "import sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "print(int(sys.argv[1] in sys.modules), code)\n"
)


@pytest.mark.parametrize(
    "needs, argv, expect",
    [
        ("repro.datalog.engine", ["run", "{dl}"], "win:"),
        ("repro.core.well_defined", ["algebra", "{alg}", "--dialect", "algebra="], "WIN ="),
        ("repro.core.algebra_to_datalog", ["translate", "{alg}", "--to", "datalog"], ":-"),
        ("repro.core.datalog_to_algebra", ["translate", "{dl}", "--to", "algebra"], "win = map"),
        ("repro.datalog.safety", ["check", "{dl}"], "stratified: no"),
    ],
    ids=("run", "algebra", "translate-to-datalog", "translate-to-algebra", "check"),
)
def test_each_command_still_loads_what_it_needs(tmp_path, needs, argv, expect):
    dl = tmp_path / "win.dl"
    dl.write_text("win(X) :- move(X, Y), not win(Y).\nmove(a, b).\n")
    alg = tmp_path / "win.alg"
    alg.write_text("relations MOVE;\nWIN = pi1(MOVE - (pi1(MOVE) * WIN));\n")
    argv = [arg.format(dl=dl, alg=alg) for arg in argv]
    out = _python(CLI, needs, *argv)
    assert expect in out, out
    assert out.splitlines()[-1] == "1 0", out
