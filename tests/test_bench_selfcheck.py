"""The benchmark's self-check runs against the source tree.

It calls library functions by name (``color_tree_complete(..., path_bound=4)``
among them), so a renamed or removed name fails here and not only in a
benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "selfcheck: ok"
