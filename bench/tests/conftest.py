"""Path set-up for the benchmark's own tests.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the repo
root; not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent

for entry in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
