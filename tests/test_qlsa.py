"""Ideal linear-system oracle: error injection and cost charging."""

import math

import numpy as np
import pytest

from oracles import random_state, worst_case_state
from qsimplex.costmodel import qlsa_query_counts
from qsimplex.lp import LpInstance, ZeroColumn
from qsimplex.primitives import QueryStats
from qsimplex.qlsa import IdealQlsa, inject_error, read_amplitudes
from qsimplex.subroutines import ScaledBasis, find_row


def _diagonal_basis(**kwargs):
    # diag(1, 1/2) with b = (1,1)/sqrt(2): solution proportional to (1, 2)
    A = np.hstack([np.diag([1.0, 0.5]), np.eye(2)])
    inst = LpInstance.from_dense(A, np.array([1.0, 1.0]) / np.sqrt(2), np.ones(4))
    return ScaledBasis.build(inst, (0, 1), **kwargs)


def test_identity_solve_zero_error():
    scaled = _diagonal_basis()
    alpha0 = np.array([1.0, 0.0])
    assert scaled.read(alpha0, 0.01) is alpha0


def test_diagonal_solve_amplitudes():
    scaled = _diagonal_basis()
    x = scaled.basic_solution
    reads = scaled.read(x / np.linalg.norm(x), 0.05)
    assert np.allclose(reads, np.array([1.0, 2.0]) / np.sqrt(5), atol=1e-12)


def test_worst_mode_injects_exact_deviation():
    # the closed-form read is the read of a unit vector at distance eps_ls
    x = np.array([0.3, 1.4]) / np.linalg.norm([0.3, 1.4])
    target = np.array([1.0, 0.0])
    moved = worst_case_state(x, 0.01, target, 0.0)
    assert np.linalg.norm(moved - x) == pytest.approx(0.01, abs=1e-12)
    assert np.linalg.norm(moved) == pytest.approx(1.0, abs=1e-12)
    assert read_amplitudes(x[0], 0.01, "worst") == pytest.approx(moved[0], abs=1e-15)


def test_worst_mode_pushes_functional_toward_threshold():
    # functional starts negative: the adversary pushes it up toward 0
    assert read_amplitudes(-0.6, 0.1, "worst", threshold=0.0) > -0.6
    # and down when it starts positive
    assert read_amplitudes(0.6, 0.1, "worst", threshold=0.0) < 0.6


def _unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("dim", [2, 3, 17, 129])
def test_closed_form_read_matches_vector_rotation(dim):
    # read_amplitudes against the vector rotation of tests/oracles.py on
    # random states, on states 1e-5 to 0.1 rad from +-w, with the threshold
    # at random, at the overlap itself (the boundary: the injection then
    # pushes down) and at +-1.  Both start from the same rounded alpha0,
    # whose rounding the read inherits with slope at most
    # 1 + sin(phi)/sqrt(1 - alpha0^2); they agree within 4 ulps of that.
    rng = np.random.default_rng(dim)
    ulp = np.spacing(1.0)
    for eps_ls in (1e-3, 0.01 / math.sqrt(2), 0.05, 0.3):
        phi = 2.0 * math.asin(eps_ls / 2.0)
        pairs = [(_unit(rng.standard_normal(dim)), _unit(rng.standard_normal(dim)))
                 for _ in range(40)]
        for beta in (1e-5, 1e-3, 0.1):
            w = _unit(rng.standard_normal(dim))
            v = rng.standard_normal(dim)
            v = _unit(v - (v @ w) * w)
            x = _unit(math.cos(beta) * w + math.sin(beta) * v)
            pairs += [(x, w), (-x, w)]
        for x, w in pairs:
            alpha0 = float(w @ x)
            slope = 1.0 + math.sin(phi) / math.sqrt(1.0 - alpha0 ** 2)
            for threshold in (rng.uniform(-1.0, 1.0), alpha0, -1.0, 1.0):
                got = read_amplitudes(alpha0, eps_ls, "worst", threshold)
                want = float(w @ worst_case_state(x, eps_ls, w, threshold))
                assert abs(got - want) <= 4 * ulp * slope, (eps_ls, alpha0, threshold)
                assert abs(got - alpha0) <= eps_ls * (1.0 + 1e-12)
        # a functional parallel to the state: alpha0 = +-1 exactly
        for h in (0, dim - 1):
            w = np.eye(dim)[h]
            for s in (1.0, -1.0):
                for threshold in (0.0, -1.0, 1.0):
                    got = read_amplitudes(s, eps_ls, "worst", threshold)
                    assert got == float(w @ worst_case_state(s * w, eps_ls, w, threshold))
                    assert got == s * math.cos(phi)
    # an array reads entry by entry exactly as floats do
    alpha0 = rng.uniform(-1.0, 1.0, 64)
    reads = read_amplitudes(alpha0, 0.05, "worst", 0.1)
    assert [float(read_amplitudes(float(a), 0.05, "worst", 0.1)) for a in alpha0] == \
        reads.tolist()


def test_zero_mode_reads_exact_and_random_mode_is_drawn():
    alpha0 = np.array([-0.5, 0.25])
    assert read_amplitudes(alpha0, 0.1, "zero") is alpha0
    with pytest.raises(ValueError):
        read_amplitudes(alpha0, 0.1, "random")
    # random error reads through the oracle of the system read, of size m
    # for the basis system and m + 1 for the reduced-cost system
    scaled = _diagonal_basis(error_mode="random", rng=np.random.default_rng(0))
    assert (scaled.qlsa.size, scaled.qlsa_ext.size) == (2, 3)
    reads = scaled.read(alpha0, 0.1, extended=True, runs=5)
    assert reads.shape == (2, 5)
    assert np.all(np.abs(reads - alpha0[:, None]) <= 0.1 * (1.0 + 1e-12))


def test_random_mode_seeded():
    alpha0 = np.full(3, 1.0 / np.sqrt(3))
    reads = [IdealQlsa(3, kappa=1.0, sparsity=1, error_mode="random",
                       rng=np.random.default_rng(3)).solve(alpha0, 0.2)
             for _ in range(2)]
    assert reads[0].tolist() == reads[1].tolist()
    assert np.all(np.abs(reads[0] - alpha0) <= 0.2 * (1.0 + 1e-12))
    # each entry is a state of its own
    assert len(set(reads[0].tolist())) == 3


def test_inject_error_rejects_oversized():
    with pytest.raises(ValueError):
        inject_error(np.array([1.0, 0.0]), 2.5, 2, np.random.default_rng(0))


@pytest.mark.parametrize("dim", [2, 3, 17, 129])
def test_random_read_matches_vector_rotation(dim):
    # the closed-form random read against the read of the vector rotation
    # of tests/oracles.py, on a fixed state and functional
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(100 + dim)
    eps_ls = 0.3
    phi = 2.0 * math.asin(eps_ls / 2.0)
    x, w = _unit(rng.standard_normal(dim)), _unit(rng.standard_normal(dim))
    alpha0 = float(w @ x)
    count = 4000
    want = np.array([w @ random_state(x, eps_ls, rng) for _ in range(count)])
    got = inject_error(np.full(count, alpha0), eps_ls, dim, np.random.default_rng(dim))
    for reads in (got, want):
        assert np.all(np.abs(reads - alpha0) <= eps_ls * (1.0 + 1e-12))
    if dim == 2:
        # the only direction orthogonal to x, taken either way at random
        ends = alpha0 * math.cos(phi) + np.array([-1.0, 1.0]) * (
            math.sin(phi) * math.sqrt(1.0 - alpha0 ** 2))
        for reads in (got, want):
            near = np.abs(reads[:, None] - ends) <= 1e-12
            assert np.all(near.sum(axis=1) == 1)
            assert np.mean(near[:, 1]) == pytest.approx(0.5, abs=0.02)
    else:
        assert ks_2samp(got, want).pvalue > 0.01


def test_random_read_on_one_dimension():
    # a state in R^1 has no direction orthogonal to it
    phi = 2.0 * math.asin(0.3 / 2.0)
    reads = inject_error(np.array([1.0, -1.0]), 0.3, 1, np.random.default_rng(0))
    assert reads.tolist() == [math.cos(phi), -math.cos(phi)]


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
    # the solution of a zero right-hand side has no state to read
    A = np.hstack([np.diag([1.0, 0.5]), np.eye(2)])
    inst = LpInstance.from_dense(A, np.zeros(2), -np.ones(4))
    scaled = ScaledBasis.build(inst, (2, 3))
    with pytest.raises(ZeroColumn):
        find_row(scaled, 0, 0.1, 100.0)
