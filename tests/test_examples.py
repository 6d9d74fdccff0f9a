"""Smoke test: every example module imports against the current library.

Each ``examples/*.py`` body runs in a fresh interpreter (``runpy`` with a
``run_name`` other than ``__main__``, so ``main()`` is not called): an
example importing a deleted or renamed name fails here rather than only
when someone next runs it.  One subprocess per example because some
examples have import-time side effects (``custom_experiment.py`` registers
a spec in the process-wide registry).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

_RUN_BODY = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='example_smoke')"


def test_examples_are_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_module_body_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    completed = subprocess.run(
        [sys.executable, "-c", _RUN_BODY, str(path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
