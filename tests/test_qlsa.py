"""Ideal linear-system oracle: error injection and cost charging."""

import numpy as np
import pytest

from qsimplex.costmodel import qlsa_query_counts
from qsimplex.lp import LpInstance, ZeroVector
from qsimplex.primitives import QueryStats
from qsimplex.qlsa import IdealQlsa, inject_error
from qsimplex.subroutines import ScaledBasis


def test_identity_solve_zero_error():
    oracle = IdealQlsa(2, kappa=1.0, sparsity=1, error_mode="zero")
    sol = oracle.solve(np.array([1.0, 0.0]), 0.01)
    assert np.allclose(sol.state, [1.0, 0.0])


def test_diagonal_solve_amplitudes():
    # diag(1, 1/2) with b = (1,1)/sqrt(2): solution proportional to (1, 2)
    A = np.hstack([np.diag([1.0, 0.5]), np.eye(2)])
    inst = LpInstance.from_dense(A, np.array([1.0, 1.0]) / np.sqrt(2), np.ones(4))
    scaled = ScaledBasis.build(inst, (0, 1))
    sol = scaled.qlsa.solve(scaled.basic_solution, 0.05)
    assert np.allclose(sol.state, np.array([1.0, 2.0]) / np.sqrt(5), atol=1e-12)


def test_worst_mode_injects_exact_deviation():
    oracle = IdealQlsa(2, kappa=2.0, sparsity=1, error_mode="worst")
    target = np.array([1.0, 0.0])
    sol = oracle.solve(np.array([0.3, 1.4]), 0.01, adversary=target)
    assert np.linalg.norm(sol.state - sol.exact) == pytest.approx(0.01, abs=1e-12)
    assert np.linalg.norm(sol.state) == pytest.approx(1.0, abs=1e-12)


def test_worst_mode_pushes_functional_toward_threshold():
    oracle = IdealQlsa(2, kappa=1.0, sparsity=1, error_mode="worst")
    w = np.array([1.0, 0.0])
    # functional starts negative: the adversary pushes it up toward 0
    sol = oracle.solve(np.array([-0.6, 0.8]), 0.1, adversary=w, threshold=0.0)
    assert w @ sol.state > w @ sol.exact
    # and down when it starts positive
    sol = oracle.solve(np.array([0.6, 0.8]), 0.1, adversary=w, threshold=0.0)
    assert w @ sol.state < w @ sol.exact


def test_random_mode_seeded():
    rng = np.random.default_rng(3)
    oracle = IdealQlsa(3, kappa=1.0, sparsity=1, error_mode="random", rng=rng)
    sol = oracle.solve(np.array([1.0, 1.0, 1.0]), 0.2)
    assert np.linalg.norm(sol.state - sol.exact) == pytest.approx(0.2, abs=1e-12)


def test_inject_error_rejects_oversized():
    with pytest.raises(ValueError):
        inject_error(np.array([1.0, 0.0]), 2.5, "worst")


def test_cost_charging_matches_formula():
    oracle = IdealQlsa(2, kappa=2.0, sparsity=3, error_mode="zero")
    stats = QueryStats()
    oracle.charge(0.01, stats)
    counts = qlsa_query_counts(3, 2.0, 0.01, 4)
    assert stats.qlsa_invocations == 1
    assert stats.p_ab_queries == pytest.approx(counts["p_ab_queries"])
    assert stats.p_b_queries == pytest.approx(counts["p_b_queries"])
    assert stats.basic_gates == pytest.approx(counts["gates"])


def test_zero_rhs_rejected():
    oracle = IdealQlsa(2, kappa=1.0, sparsity=1)
    with pytest.raises(ZeroVector):
        oracle.solve(np.zeros(2), 0.1)
