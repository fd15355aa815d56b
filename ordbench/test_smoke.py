"""Smoke test of the benchmark itself: every workload runs once over its
first sub-corpus, traced, and every answer is checked against the goldens.

    python -m pytest ordbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", ["cli-mix", "engines"])
def test_workload_smoke(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
