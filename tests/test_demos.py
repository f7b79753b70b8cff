"""Smoke test: the demos run to completion against this checkout.

06_benchmark_table.py is left out: it takes about 14 s, and
tests/test_harness.py covers the experiment path it drives.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_generate_instances.py",
    "02_single_runs.py",
    "03_convergence_to_zero.py",
    "04_netlists.py",
    "05_networks.py",
])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
