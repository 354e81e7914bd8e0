"""Classical simplex reference against independent oracles."""

import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_ratio_test, tableau_simplex
from qsimplex.classical import (OPTIMAL_FACTOR, PRICING_FACTOR, basic_solution,
                                direction, pivot_report, pricing_terms,
                                ratio_test, reduced_costs,
                                solve_classical)
from qsimplex.instances import random_lp
from qsimplex.lp import LpInstance, slack_identity_basis
from qsimplex.subroutines import ScaledBasis
from test_iteration import dantzig_basis

CHECK = Path(__file__).resolve().parent.parent / "iterbench" / "check.py"


def test_reduced_cost_of_basic_column_is_zero():
    inst = random_lp(3, 6, seed=1)
    basis = slack_identity_basis(inst)
    for k in basis:
        assert reduced_costs(inst, basis, nonbasic=(k,))[0] == pytest.approx(0.0, abs=1e-12)


def test_reduced_cost_direct_arithmetic():
    # A_B = I2, c_B = (1,1)/sqrt(2), A_k = (0.6, 0.8), c_k = 0.1:
    # c_bar = 0.1 - 1.4/sqrt(2)
    s = 1 / np.sqrt(2)
    A = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [s, s, 0.1])
    expected = 0.1 - 1.4 / np.sqrt(2)
    assert reduced_costs(inst, (0, 1), nonbasic=(2,))[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-0.8899494936611665, rel=1e-12)


def test_reduced_costs_at_optimum_nonnegative():
    from qsimplex.instances import random_bounded_lp

    inst = random_bounded_lp(4, 9, seed=5)
    basis = slack_identity_basis(inst)
    sol = solve_classical(inst, basis, rule="dantzig")
    assert sol.status == "optimal"
    assert np.all(reduced_costs(inst, sol.basis) >= -1e-9)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_reduced_costs_match_dense_inverse(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    inst = random_lp(m, m + int(rng.integers(2, 6)), seed=seed)
    basis = slack_identity_basis(inst)
    B = inst.dense()[:, list(basis)]
    y = inst.c[list(basis)] @ np.linalg.inv(B)
    nonbasic = [j for j in range(inst.n) if j not in basis]
    expected = inst.c[nonbasic] - y @ inst.dense()[:, nonbasic]
    assert np.allclose(reduced_costs(inst, basis), expected, atol=1e-10)


def test_ratio_test_tie_breaks_lowest_row():
    # A_k = A_B x_B makes every ratio equal to 1
    inst0 = random_lp(3, 6, seed=9)
    basis = slack_identity_basis(inst0)
    x = basic_solution(inst0, basis)
    B = inst0.dense()[:, list(basis)]
    A = np.hstack([inst0.dense(), (B @ x).reshape(-1, 1)])
    inst = LpInstance.from_dense(A, inst0.b, np.append(inst0.c, -1.0))
    row, rstar = ratio_test(inst, basis, inst.n - 1)
    assert row == 0
    assert rstar == pytest.approx(1.0, rel=1e-12)


def test_ratio_test_unbounded_direction():
    A = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -0.5]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, -1.0])
    assert ratio_test(inst, (0, 1), 2) is None


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_ratio_test_matches_exhaustive_scan(seed):
    rng = np.random.default_rng(seed)
    inst = random_lp(6, 10, seed=seed)
    basis = slack_identity_basis(inst)
    k = int(rng.choice([j for j in range(inst.n) if j not in basis]))
    delta = float(rng.choice([0.0, 0.05, 0.2]))
    hit = ratio_test(inst, basis, k, delta)
    truth = exhaustive_ratio_test(basic_solution(inst, basis),
                                  direction(inst, basis, k), delta)
    if truth is None:
        assert hit is None
    else:
        assert hit[0] == truth[0]
        assert hit[1] == pytest.approx(truth[1], rel=1e-10)


def test_solve_one_pivot_lp():
    # min -x1 s.t. x1 + s = 1
    inst = LpInstance.from_dense([[1.0, 1.0]], [1.0], [-1.0, 0.0])
    sol = solve_classical(inst, (1,))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0)
    assert sol.pivots == 1


def test_solve_two_box_lp():
    # min -x1 - x2 s.t. x_i + s_i = 1
    A = np.hstack([np.eye(2), np.eye(2)])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [-1.0, -1.0, 0.0, 0.0])
    sol = solve_classical(inst, (2, 3))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0)


def test_random_rule_reproducible():
    inst = random_lp(4, 9, seed=21)
    basis = slack_identity_basis(inst)
    a = solve_classical(inst, basis, rule="random", seed=5, keep_reports=True)
    b = solve_classical(inst, basis, rule="random", seed=5, keep_reports=True)
    assert [r.entering for r in a.reports] == [r.entering for r in b.reports]


@pytest.mark.parametrize("seed", range(20))
def test_solve_matches_tableau_oracle(seed):
    inst = random_lp(int(np.random.default_rng(seed).integers(2, 7)),
                     int(np.random.default_rng(seed + 1).integers(8, 13)),
                     seed=seed)
    basis = slack_identity_basis(inst)
    mine = solve_classical(inst, basis, rule="dantzig")
    ref_status, ref_obj, _ = tableau_simplex(inst.dense(), inst.b, inst.c, basis)
    assert mine.status == ref_status
    if ref_status == "optimal":
        assert mine.objective == pytest.approx(ref_obj, abs=1e-8)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_feasibility_and_objective_monotone(seed):
    inst = random_lp(4, 8, seed=seed)
    basis = list(slack_identity_basis(inst))
    last_obj = np.inf
    for _ in range(60):
        rep = pivot_report(instance=inst, basis=basis, rule="dantzig")
        assert np.all(basic_solution(inst, basis) >= -1e-9)
        assert rep.objective <= last_obj + 1e-9
        last_obj = rep.objective
        if rep.entering is None or rep.leaving_row is None:
            break
        basis[rep.leaving_row] = rep.entering


def test_pivot_report_and_ratio_test_factor_once(monkeypatch):
    import qsimplex.classical as classical

    inst = random_lp(16, 48, seed=0)
    basis = slack_identity_basis(inst)
    calls, lu = [], classical._lu

    def counting(*args):
        calls.append(args)
        return lu(*args)

    monkeypatch.setattr(classical, "_lu", counting)
    rep = pivot_report(inst, basis)
    assert rep.leaving_row is not None and len(calls) == 1
    calls.clear()
    assert ratio_test(inst, basis, rep.entering) == (rep.leaving_row, rep.ratio_min)
    assert len(calls) == 1


def test_pivot_reports_match_separate_solves():
    # every Dantzig report equals the one pieced together from the
    # one-quantity functions, each of which factors the basis on its own
    inst = random_lp(16, 48, seed=0)
    basis = list(slack_identity_basis(inst))
    sol = solve_classical(inst, basis, rule="dantzig", keep_reports=True)
    assert sol.status == "unbounded" and len(sol.reports) == sol.pivots + 1 == 15
    for rep in sol.reports:
        cbar = reduced_costs(inst, basis, rep.nonbasic)
        assert np.array_equal(rep.reduced_costs, cbar)
        assert rep.objective == float(inst.c[basis] @ basic_solution(inst, basis))
        if rep.entering is None:
            break
        assert rep.entering == rep.nonbasic[int(np.argmin(cbar))]
        assert np.array_equal(rep.direction, direction(inst, basis, rep.entering))
        hit = ratio_test(inst, basis, rep.entering)
        assert (rep.leaving_row, rep.ratio_min) == (hit or (None, None))
        if hit is not None:
            basis[rep.leaving_row] = rep.entering


# ---------------------------------------------------------------------------
# the pricing certificate


def pricing_bases():
    """random_lp(8, 24, seed=0) with its slack basis (c_B = 0) and its
    Dantzig basis #4, where |c_B| = 1.43."""
    inst = random_lp(8, 24, seed=0)
    slack, later = slack_identity_basis(inst), dantzig_basis(inst, 4)
    assert not np.any(inst.c[list(slack)])
    assert np.linalg.norm(inst.c[list(later)]) == pytest.approx(1.43, abs=0.01)
    return inst, (slack, later)


def planted_small_cost_lp() -> LpInstance:
    """At the basis (0, 1), |c_B| = 0.1 and column 2 prices in at a scaled
    ratio c_bar/|c_B| over |(u, c_2/|c_B|)| of -0.378, inside the nfn
    certificate at eps = 0.1, while its unscaled c_bar is only -0.031."""
    s = 1.0 / np.sqrt(2.0)
    A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    return LpInstance.from_dense(A, [1.0, 1.0], np.array([s, s, 0.4]) / 10.0)


def test_pricing_terms_match_benchmark_reference():
    # iterbench/check.py states the certificate independently, with numpy
    # solves; both must read the same terms and bounds
    check = runpy.run_path(str(CHECK))
    assert (PRICING_FACTOR, OPTIMAL_FACTOR) == (check["PRICING_FACTOR"],
                                                check["OPTIMAL_FACTOR"])
    inst, bases = pricing_bases()
    for basis in bases:
        ref = check["Reference"](inst.dense(), inst.b, inst.c, basis)
        cbar, norm = pricing_terms(inst, basis)
        np.testing.assert_allclose(cbar, ref.cbar[ref.nonbasic], rtol=0, atol=1e-12)
        np.testing.assert_allclose(norm, ref.norm[ref.nonbasic], rtol=0, atol=1e-12)


def test_pricing_ratio_matches_scaled_basis():
    # c_bar/|c_B| over |(u, c_k/|c_B|)| is what ScaledBasis.reduced_cost_scaled
    # reads from the scaled system, at c_B = 0 as elsewhere
    inst, bases = pricing_bases()
    for basis in bases:
        scaled = ScaledBasis.build(inst, basis)
        cbar, norm = pricing_terms(inst, basis, scaled.domain)
        got = [scaled.reduced_cost_scaled(k) for k in scaled.domain]
        np.testing.assert_allclose(cbar / norm, got, rtol=0, atol=1e-12)


def test_pricing_terms_give_scaled_verdict_where_raw_form_disagrees():
    inst = planted_small_cost_lp()
    (cbar,), (norm,) = pricing_terms(inst, (0, 1), [2])
    assert cbar / norm == pytest.approx(-0.378, abs=1e-3)
    bound = PRICING_FACTOR["nfn"] * 0.1 * norm
    assert cbar < bound
    # the unscaled reduced cost against the same norm misses the certificate
    assert not reduced_costs(inst, (0, 1), nonbasic=(2,))[0] < bound
