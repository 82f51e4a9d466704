"""What a process loads before it can do its job.

A cold start is mostly imports, so the serving path has a budget: no
graph library, no algebra / syntax / specification packages, no event
loop.  Each check runs in a fresh interpreter — ``sys.modules`` of the
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


def test_a_server_imports_what_it_serves():
    loaded = _python(
        "import sys\n"
        "import repro.cli, repro.service\n"
        "repro.cli.build_parser()\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    ).split()
    assert "repro.service.server" in loaded
    unwanted = [
        name
        for name in loaded
        if name.split(".")[0] in ("networkx", "asyncio")
        or name.startswith(("repro.core", "repro.lang", "repro.specs"))
        or name == "repro.service.cluster"
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


def test_the_cluster_facade_still_exports_everything():
    out = _python(
        "import repro.service.cluster as cluster\n"
        "missing = [n for n in cluster.__all__ if not hasattr(cluster, n)]\n"
        "namespace = {}\n"
        "exec('from repro.service.cluster import *', namespace)\n"
        "unstarred = [n for n in cluster.__all__ if n not in namespace]\n"
        "print(missing, unstarred, len(cluster.__all__))\n"
    )
    assert out == "[] [] 21\n", out


def test_the_lazy_facade_still_exports_everything():
    out = _python(
        "import repro\n"
        "missing = [n for n in repro.__all__ if not hasattr(repro, n)]\n"
        "unlisted = [n for n in repro.__all__ if n not in dir(repro)]\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "unstarred = [n for n in repro.__all__ if n not in namespace]\n"
        "print(missing, unlisted, unstarred, len(repro.__all__))\n"
    )
    assert out.startswith("[] [] [] "), out
    assert int(out.split()[-1]) > 30
    # Not a name: still an AttributeError, so hasattr / getattr defaults work.
    assert _python("import repro; print(hasattr(repro, 'no_such_name'))") == "False\n"


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
