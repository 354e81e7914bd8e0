"""CLI behavior: exit codes, determinism, trace/summary formats."""

import csv
import json

import numpy as np
import pytest

from qsimplex.cli import main
from qsimplex.instances import random_bounded_lp, random_lp
from qsimplex.io import write_lp_json
from qsimplex.lp import LpInstance
from test_classical import planted_small_cost_lp
from test_iteration import dantzig_basis


@pytest.fixture()
def demo(tmp_path):
    inst = random_bounded_lp(3, 7, seed=11)
    path = tmp_path / "demo.json"
    write_lp_json(inst, path)
    return str(path)


@pytest.fixture()
def unbounded(tmp_path):
    A = np.array([[1.0, 0.0, -0.7], [0.0, 1.0, -0.4]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, -1.0])
    path = tmp_path / "unbounded.json"
    write_lp_json(inst, path)
    return str(path)


def test_solve_optimal_exit_zero(demo, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = main(["solve", "--instance", demo, "--out-trace", str(trace),
                 "--out-summary", str(summary)])
    assert code == 0
    out = capsys.readouterr().out
    assert "optimal" in out
    doc = json.loads(summary.read_text())
    assert doc["status"] == "optimal"
    assert doc["schema_version"] == 1
    header = trace.read_text().splitlines()[0]
    assert header.startswith("iteration,status,entering")


def test_solve_failure_reason_reported(demo, tmp_path, capsys):
    # from this basis the entering column's largest direction component lies
    # between the IsUnbounded and FindRow thresholds, so the first
    # iteration fails; the reason reaches the summary and the status line
    inst = random_lp(64, 192, seed=0)
    path = tmp_path / "gap.json"
    write_lp_json(inst, path)
    basis = ",".join(str(k) for k in dantzig_basis(inst, 52))
    summary = tmp_path / "s.json"
    code = main(["solve", "--instance", str(path), "--start-basis", basis,
                 "--out-summary", str(summary)])
    assert code == 1
    assert "failure: no_positive_denominator" in capsys.readouterr().out
    doc = json.loads(summary.read_text())
    assert (doc["status"], doc["failure"]) == ("failure", "no_positive_denominator")
    assert main(["solve", "--instance", demo, "--out-summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["failure"] is None


@pytest.mark.parametrize("qlsa_error", ["zero", "worst", "random"])
def test_solve_trace_byte_identical(demo, tmp_path, qlsa_error):
    args = ["solve", "--instance", demo, "--mode", "sampling", "--seed", "5",
            "--qlsa-error", qlsa_error]
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out-trace", str(t1)]) == 0
    assert main(args + ["--out-trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_solve_timings_fill_only_elapsed_ms(demo, tmp_path):
    args = ["solve", "--instance", demo, "--mode", "sampling", "--seed", "5"]
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert main(args + ["--out-trace", str(plain)]) == 0
    assert main(args + ["--timings", "--out-trace", str(timed)]) == 0
    plain_rows = list(csv.DictReader(plain.open()))
    timed_rows = list(csv.DictReader(timed.open()))
    assert len(timed_rows) == len(plain_rows) > 0
    for untimed, row in zip(plain_rows, timed_rows):
        assert untimed.pop("elapsed_ms") == ""
        assert float(row.pop("elapsed_ms")) >= 0
        assert row == untimed


def test_solve_unbounded_exit_zero(unbounded):
    assert main(["solve", "--instance", unbounded]) == 0


def test_solve_env_seed(demo, tmp_path, monkeypatch):
    monkeypatch.setenv("QSIMPLEX_SEED", "5")
    t1 = tmp_path / "env.csv"
    assert main(["solve", "--instance", demo, "--mode", "sampling",
                 "--out-trace", str(t1)]) == 0
    t2 = tmp_path / "flag.csv"
    monkeypatch.delenv("QSIMPLEX_SEED")
    assert main(["solve", "--instance", demo, "--mode", "sampling",
                 "--seed", "5", "--out-trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 1,\n "n": }')
    code = main(["solve", "--instance", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_instance_exit_two(tmp_path):
    assert main(["analyze", "--instance", str(tmp_path / "nope.json")]) == 2


def test_out_of_range_epsilon_rejected(demo):
    assert main(["solve", "--instance", demo, "--epsilon", "0.6"]) == 2


def test_classical_command(demo, tmp_path, capsys):
    trace = tmp_path / "c.csv"
    code = main(["classical", "--instance", demo, "--out-trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    # objective printed to 12 significant digits
    obj = out.split("objective:")[1].strip()
    assert len(obj.replace("-", "").replace(".", "").lstrip("0")) >= 10
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("iteration,entering,leaving_row")
    assert len(lines) >= 2


def test_classical_unbounded(unbounded, capsys):
    assert main(["classical", "--instance", unbounded]) == 0
    assert "unbounded" in capsys.readouterr().out


def test_analyze_report_round_trips(demo, tmp_path):
    import jsonschema

    from qsimplex.costmodel import COST_REPORT_SCHEMA

    summary = tmp_path / "report.json"
    assert main(["analyze", "--instance", demo,
                 "--out-summary", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    jsonschema.validate(doc, COST_REPORT_SCHEMA)
    assert any(e["name"] == "quantum_pricing" for e in doc["formulas"])


def test_analyze_with_trace_measured(demo, tmp_path):
    trace = tmp_path / "t.csv"
    main(["solve", "--instance", demo, "--out-trace", str(trace)])
    summary = tmp_path / "report.json"
    assert main(["analyze", "--instance", demo, "--trace", str(trace),
                 "--out-summary", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["measured"] is not None
    assert doc["measured"]["qlsa_invocations"] > 0


@pytest.mark.parametrize("cell", ["abc", "nan"])
def test_analyze_rejects_a_bad_trace_counter(demo, tmp_path, capsys, cell):
    # a cell that is no finite number names its line and column, and no
    # report (a NaN would not be valid JSON) is written
    trace = tmp_path / "t.csv"
    assert main(["solve", "--instance", demo, "--out-trace", str(trace)]) == 0
    rows = list(csv.DictReader(trace.open()))
    rows[0]["u_calls"] = cell
    with trace.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    summary = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["analyze", "--instance", demo, "--trace", str(trace),
                 "--out-summary", str(summary)]) == 2
    err = capsys.readouterr().err
    assert f"line 2, column u_calls: value '{cell}' is not a finite number" in err
    assert not summary.exists()


def test_start_basis_flag(tmp_path):
    # instance without an identity start: supply the basis explicitly
    A = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
    inst = LpInstance.from_dense(A, [2.0, 2.0], [1.0, 1.0, -1.0])
    path = tmp_path / "nb.json"
    write_lp_json(inst, path)
    assert main(["solve", "--instance", str(path)]) == 2  # no slack start
    assert main(["solve", "--instance", str(path), "--start-basis", "0,1"]) == 0


def test_verify_quick_passes(capsys):
    code = main(["verify", "--quick", "--seed", "1"])
    out = capsys.readouterr().out
    assert "sign_estimation_classifier" in out
    assert code == 0


def test_verify_threshold_mutation_fails(monkeypatch, capsys):
    # deliberately mis-set sign-estimation thresholds (+0.08) while the
    # classifier suite runs: it must catch the mutation.  Shifted for the
    # whole battery, the end-to-end solves would run to their iteration cap.
    import dataclasses

    from qsimplex import subroutines, verify

    spec, suite = subroutines.sign_est_spec, verify.sign_estimation_suite

    def shifted(eps, kind):
        return dataclasses.replace(spec(eps, kind), threshold=spec(eps, kind).threshold + 0.08)

    def mutated_suite(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(subroutines, "sign_est_spec", shifted)
            return suite(*args, **kwargs)

    monkeypatch.setattr(verify, "sign_estimation_suite", mutated_suite)
    code = main(["verify", "--quick", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "sign_estimation_classifier: FAIL" in out


def test_solve_summary_matches_classical_within_bound(demo, tmp_path, capsys):
    # analytic-mode summary objective vs the exact classical optimum, within
    # the per-instance duality bound max_k(-c_bar_k)+ * |x*|_1 computed from
    # the classical certificate
    from qsimplex.classical import reduced_costs, solve_classical
    from qsimplex.io import read_lp_json
    from qsimplex.lp import slack_identity_basis

    summary = tmp_path / "s.json"
    assert main(["solve", "--instance", demo, "--epsilon", "0.1",
                 "--out-summary", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    inst = read_lp_json(demo)
    basis = slack_identity_basis(inst)
    classical = solve_classical(inst, basis, rule="dantzig")
    worst = max(max(0.0, -reduced_costs(inst, doc["basis"], nonbasic=(k,))[0])
                for k in range(inst.n) if k not in doc["basis"])
    bound = worst * float(np.abs(classical.x).sum()) + 1e-9
    assert doc["objective"] - classical.objective <= bound
    assert doc["objective"] >= classical.objective - 1e-9


def test_trace_pricing_check_is_scaled_certificate(tmp_path):
    # |c_B| = 0.1 at the start basis: the trace's certificate columns are in
    # the units pricing certifies, where column 2 passes the nfn bound that
    # its unscaled reduced cost would miss
    from qsimplex.classical import pricing_terms

    inst = planted_small_cost_lp()
    path, trace = tmp_path / "planted.json", tmp_path / "t.csv"
    write_lp_json(inst, path)
    assert main(["solve", "--instance", str(path), "--start-basis", "0,1",
                 "--epsilon", "0.1", "--out-trace", str(trace)]) == 0
    first = next(csv.DictReader(trace.open()))
    assert (first["entering"], first["variant"]) == ("2", "nfn")
    (cbar,), (norm,) = pricing_terms(inst, (0, 1), [2])
    assert float(first["classical_cbar_entering"]) == pytest.approx(cbar, rel=1e-11)
    assert float(first["classical_pricing_norm"]) == pytest.approx(norm, rel=1e-11)
    assert first["pricing_check_ok"] == "1"


def test_analyze_identity_basis_mu_one(tmp_path):
    # identity basis: mu(A_B) = matrix_scale ~ 1 in the report
    A = np.hstack([np.eye(3), np.ones((3, 1))])
    inst = LpInstance.from_dense(A, np.ones(3), [0.0, 0.0, 0.0, -1.0])
    path = tmp_path / "id.json"
    write_lp_json(inst, path)
    summary = tmp_path / "r.json"
    assert main(["analyze", "--instance", str(path),
                 "--out-summary", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["instance"]["mu_ab"] == pytest.approx(1.0, abs=1e-3)


def test_verify_rejects_out_of_range_epsilon():
    # verify reads no epsilon: the flag is an unknown option
    assert main(["verify", "--epsilon", "0.6"]) == 2


@pytest.mark.parametrize("command,flag", [
    ("verify", "--reps"), ("verify", "--mode"), ("verify", "--timings"),
    ("classical", "--epsilon"), ("classical", "--qlsa-error"),
    ("analyze", "--seed"), ("analyze", "--out-trace"),
])
def test_subcommands_reject_options_they_do_not_read(demo, command, flag, capsys):
    args = [command] + (["--instance", demo] if command != "verify" else [])
    args += [flag] if flag == "--timings" else [flag, "1"]
    assert main(args) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_classical_reads_seed_and_max_iters(tmp_path):
    # the random rule takes 13 pivots here at seed 3; a cap of 1 ends the
    # run after 3 (the cap, then Bland's rule up to twice the cap)
    path = tmp_path / "b8.json"
    write_lp_json(random_bounded_lp(8, 24, seed=2), path)
    summary = tmp_path / "s.json"
    assert main(["classical", "--instance", str(path), "--seed", "3", "--max-iters", "1",
                 "--out-summary", str(summary)]) == 1
    doc = json.loads(summary.read_text())
    assert (doc["status"], doc["pivots"], doc["seed"]) == ("cap", 3, 3)


def test_max_iters_help_per_subcommand(capsys):
    # classical switches to Bland's rule at N and stops at 2N + 1; solve
    # stops at N
    helps = {}
    for command in ("solve", "classical"):
        assert main([command, "--help"]) == 0
        helps[command] = " ".join(capsys.readouterr().out.split())
    assert "iteration cap N" in helps["solve"] and "Bland" not in helps["solve"]
    assert "switches to Bland's" in helps["classical"]
    assert "after 2N + 1" in helps["classical"]


def test_verify_summary_json_serializable(tmp_path, capsys):
    summary = tmp_path / "verify.json"
    code = main(["verify", "--quick", "--seed", "1",
                 "--out-summary", str(summary)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(summary.read_text())
    assert all(isinstance(s["passed"], bool) for s in doc["suites"])
