"""One-second runs of the benchmark: every op it runs is checked against
its numpy reference, so a wrong exact solve fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# workload -> the largest share of failed ops it may report: price-large
# none, iter-analytic its two ops that show the known FindRow faults
ALLOWED_FAILED = {"price-large": (0, 1), "iter-analytic": (4, 50)}


@pytest.mark.parametrize("workload", sorted(ALLOWED_FAILED))
def test_bench_run_is_correct(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "iterbench" / "run.py"),
                           "--workload", workload, "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    failed, per = ALLOWED_FAILED[workload]
    assert result["failed"] * per <= failed * result["attempted"], proc.stdout


IDENTITY = ROOT / "tests" / "data" / "bench_identity.json"


def check_identity(path):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_identity.py"),
                           "--check", str(path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_bench_ops_match_recorded_identity():
    # every op's verdict, ok flag, counters and finding, as recorded; a
    # change that moves them re-records the file and says why
    proc = check_identity(IDENTITY)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bench_identity_check_applies_counter_policy(tmp_path):
    # float counters may move by 1e-12 relative, integer counters not at all
    doc = json.loads(IDENTITY.read_text())
    counters = doc["iter-sampling"][0]["counters"]
    moved = float.fromhex(counters["p_ab_queries"]) * (1 + 1e-13)
    counters["p_ab_queries"] = moved.hex()
    counters["u_calls"] = (float.fromhex(counters["u_calls"]) + 1).hex()
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(doc))
    proc = check_identity(path)
    assert proc.returncode == 1
    *problems, last = proc.stdout.splitlines()
    assert len(problems) == 1 and "iter-sampling op 0" in problems[0], proc.stdout
    assert "u_calls" in problems[0]
    # the planted 1e-13 move passes, and is counted
    assert ", 1 differences, 1 float counters moved within 1e-12" in last, proc.stdout
