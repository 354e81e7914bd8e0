"""The scripts under scripts/ run against the current package."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_verify import AE_COUNTS

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_scaling_study_runs(tmp_path):
    out = tmp_path / "scaling.json"
    proc = run_script("scaling_study.py", "--runs", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["ae_vs_eps"]["rows"]
    assert [row["eps"] for row in rows] == [0.2, 0.1, 0.05, 0.025]
    assert [row["ae_repetitions"] for row in rows] == AE_COUNTS


def test_compare_solvers_runs():
    for error_args in ([], ["--qlsa-error", "random"]):
        proc = run_script("compare_solvers.py", "--count", "2", *error_args)
        assert proc.returncode == 0, proc.stderr
