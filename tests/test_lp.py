"""LP data model, normalization, and the spectral and sparsity data of a
basis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsimplex.instances import random_lp
from qsimplex.lp import (BasisSingular, LpInstance, basis_matrix, normalize,
                         slack_identity_basis)


def small_instance():
    A = np.array([[1.0, 0.0, 0.6, 2.0],
                  [0.0, 1.0, 0.8, 0.0]])
    return LpInstance.from_dense(A, [1.0, 1.0], [1.0, 1.0, 0.1, -0.5])


def test_instance_metadata():
    inst = small_instance()
    assert (inst.m, inst.n) == (2, 4)
    assert inst.col_nnz_max == 2
    assert inst.max_abs_entry == 2.0  # rounded up to a power of two


def test_max_entry_rounds_up():
    inst = LpInstance.from_dense([[3.0]], [1.0], [1.0])
    assert inst.max_abs_entry == 4.0


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        LpInstance.from_dense(np.eye(2), [1.0], [1.0, 1.0])


def test_normalize_identity_example():
    # A_B = I2, c_B = (1,1), eps' = 1e-4: cost_scale = 1/sqrt(2),
    # matrix_scale ~ 0.9999, kappa ~ 1.0001
    inst = small_instance()
    state = normalize(inst, (0, 1), eps_prime=1e-4)
    assert state.cost_scale == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert state.matrix_scale == pytest.approx(0.9999, rel=1e-10)
    assert state.kappa == pytest.approx(1.0001, rel=1e-4)
    assert state.nonbasic == (2, 3)


def test_normalize_identity_unit_cost():
    A = np.hstack([np.eye(3), np.ones((3, 1))])
    c = np.array([1.0, 0.0, 0.0, -1.0])
    inst = LpInstance.from_dense(A, np.ones(3), c)
    state = normalize(inst, (0, 1, 2))
    assert state.cost_scale == pytest.approx(1.0)


def test_normalize_flags_degenerate_cost():
    A = np.hstack([np.eye(2), np.ones((2, 1))])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, -1.0])
    state = normalize(inst, (0, 1))
    assert state.cost_degenerate
    assert state.cost_scale == 1.0


@pytest.mark.parametrize("eps_prime", [0.0, 0.5, -1e-4])
def test_normalize_rejects_eps_prime_out_of_range(eps_prime):
    with pytest.raises(ValueError, match="eps_prime"):
        normalize(small_instance(), (0, 1), eps_prime=eps_prime)


@pytest.mark.parametrize("basis,column", [((0, 4), 4), ((-1, 1), -1), ((-2, -1), -2)])
def test_normalize_rejects_basis_column_out_of_range(basis, column):
    # numpy would wrap a negative index onto a real column, and a large one
    # would escape as an IndexError
    with pytest.raises(ValueError, match=rf"basis column {column} is out of range \[0, 4\)"):
        normalize(small_instance(), basis)


def test_normalize_singular_basis_raises():
    A = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(BasisSingular):
        normalize(inst, (0, 1))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_normalize_scaled_spectrum_within_bounds(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    B = rng.standard_normal((m, m)) + np.eye(m)
    if abs(np.linalg.det(B)) < 1e-6:
        return
    A = np.hstack([B, np.eye(m)])
    inst = LpInstance.from_dense(A, np.ones(m), rng.standard_normal(m + m))
    state = normalize(inst, tuple(range(m)))
    svals = np.linalg.svd(state.matrix_scale * B, compute_uv=False)
    assert svals[0] <= 1.0 + 1e-12
    assert svals[-1] >= 1.0 / state.kappa - 1e-12
    # scaled basis costs have unit norm
    c_B = state.cost_scale * inst.c[list(state.basis)]
    assert np.linalg.norm(c_B) == pytest.approx(1.0, abs=1e-12)


def within_ulps(x: float, y: float, ulps: int) -> bool:
    return abs(x - y) <= ulps * np.spacing(max(abs(x), abs(y)))


def assert_exact_scale(inst, basis, B, eps_prime=1e-4):
    """``matrix_scale * sigma_max(A_B) = 1 - eps'`` to 2 ulp and ``kappa =
    sigma_max / ((1 - eps') sigma_min)`` to 1e-12, from the dense SVD."""
    state = normalize(inst, basis, eps_prime=eps_prime)
    svals = np.linalg.svd(B, compute_uv=False)
    assert within_ulps(state.matrix_scale * svals[0], 1 - eps_prime, 2)
    assert state.kappa == pytest.approx(svals[0] / ((1 - eps_prime) * svals[-1]),
                                        rel=1e-12)
    return state


def test_normalize_matches_dense_svd():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    inst = LpInstance.from_dense(np.hstack([B, np.eye(4)]), np.ones(4),
                                 rng.standard_normal(8))
    assert_exact_scale(inst, tuple(range(4)), B)


@pytest.mark.parametrize("B", [np.diag([3.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
                         ids=["diagonal", "permutation"])
def test_normalize_exact_scale(B):
    inst = LpInstance.from_dense(np.hstack([B, np.eye(2)]), np.ones(2), np.ones(4))
    state = assert_exact_scale(inst, (0, 1), B)
    assert within_ulps(state.matrix_scale, (1 - 1e-4) / abs(B).max(), 2)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_normalize_scale_matches_svd(seed):
    # random sparse bases, about 40% zeros
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((6, 6))
    B[rng.random((6, 6)) < 0.4] = 0.0
    svals = np.linalg.svd(B, compute_uv=False)
    if svals[-1] <= 1e-6 * svals[0]:
        return
    inst = LpInstance.from_dense(np.hstack([B, np.eye(6)]), np.ones(6), np.ones(12))
    assert_exact_scale(inst, tuple(range(6)), B, eps_prime=1e-3)


def test_rescaling_preserves_reduced_cost_signs_and_ratio():
    # normalize scales A and b by matrix_scale and c by cost_scale = 1/|c_B|:
    # u = A_B^-1 A_k is untouched (the A rescale cancels) and the pricing
    # certificate's terms are in units of |c_B|, so cbar, norm and their
    # ratio read the same on the rescaled instance
    from qsimplex.classical import pricing_terms

    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    G = rng.standard_normal((4, 3))
    inst = LpInstance.from_dense(np.hstack([B, G]), np.ones(4),
                                 rng.standard_normal(7))
    basis = tuple(range(4))
    state = normalize(inst, basis)
    scaled_inst = LpInstance.from_dense(
        state.matrix_scale * inst.dense(), state.matrix_scale * inst.b,
        state.cost_scale * inst.c)
    assert np.linalg.norm(inst.c[list(basis)]) != pytest.approx(1.0, abs=0.1)
    for k in (4, 5, 6):
        u_raw = np.linalg.solve(B, inst.column(k))
        u_scl = np.linalg.solve(state.matrix_scale * B,
                                state.matrix_scale * inst.column(k))
        assert np.allclose(u_raw, u_scl, atol=1e-12)
    cbar_raw, norm_raw = pricing_terms(inst, basis)
    cbar_scl, norm_scl = pricing_terms(scaled_inst, basis)
    assert np.array_equal(np.sign(cbar_raw), np.sign(cbar_scl))
    np.testing.assert_allclose(cbar_scl, cbar_raw, rtol=1e-10)
    np.testing.assert_allclose(norm_scl, norm_raw, rtol=1e-10)
    np.testing.assert_allclose(cbar_scl / norm_scl, cbar_raw / norm_raw, rtol=1e-10)


def test_normalize_sparsity_identity():
    A = np.hstack([np.eye(4), np.ones((4, 1))])
    inst = LpInstance.from_dense(A, np.ones(4), np.zeros(5))
    state = assert_exact_scale(inst, tuple(range(4)), np.eye(4))
    assert state.row_nnz_max == 1
    assert state.sparsity == 4  # the dense appended column dominates


def test_normalize_sparsity_triangular():
    A = np.array([[1.0, 1.0, 0.3], [0.0, 1.0, 0.4]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, 1.0])
    state = assert_exact_scale(inst, (0, 1), A[:, :2])
    assert (inst.col_nnz_max, state.row_nnz_max, state.sparsity) == (2, 2, 2)


def _mixed_basis(inst, k: int, rng) -> list[int]:
    """k structural columns of a slack-form instance and m - k slacks, in
    shuffled basis order, drawn again until the basis is nonsingular."""
    m, n = inst.m, inst.n
    while True:
        rows = rng.choice(m, size=m - k, replace=False)
        basis = rng.permutation(np.concatenate([rng.choice(n - m, size=k, replace=False),
                                                n - m + rows])).tolist()
        if np.linalg.matrix_rank(basis_matrix(inst, basis)) == m:
            return basis


@pytest.mark.parametrize("k", [0, 1, 11, 12, 24])
@pytest.mark.parametrize("seed", range(3))
def test_normalize_reduced_spectrum_matches_dense_svd(seed, k):
    # m = 24: the 2k x 2k operand while 0 < 2k < m, the spectrum of I at
    # k = 0 and B's own SVD from 2k = m on
    eps_prime = 1e-4
    inst = random_lp(24, 72, seed=seed)
    basis = _mixed_basis(inst, k, np.random.default_rng(seed))
    state = normalize(inst, basis, eps_prime)
    B = basis_matrix(inst, basis)
    svals = np.linalg.svd(B, compute_uv=False)
    scale = (1.0 - eps_prime) / float(svals[0])
    kappa = 1.0 / (scale * float(svals[-1]))
    assert state.row_nnz_max == np.count_nonzero(B, axis=1).max()
    if 0 < 2 * k < inst.m:
        assert state.matrix_scale == pytest.approx(scale, rel=1e-12, abs=0)
        assert state.kappa == pytest.approx(kappa, rel=1e-12, abs=0)
    else:
        assert (state.matrix_scale, state.kappa) == (scale, kappa)


def test_normalize_svd_operand_size(monkeypatch):
    # m = 128: no SVD at the slack basis, a 10 x 10 one with 5 structural
    # columns, and an m x m one once 2k >= m
    m = 128
    inst = random_lp(m, 3 * m, seed=0)
    rng = np.random.default_rng(0)
    shapes, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    cases = [(_mixed_basis(inst, k, rng), expected)
             for k, expected in [(0, []), (5, [(10, 10)]), (m // 2, [(m, m)]),
                                 (m, [(m, m)])]]
    monkeypatch.setattr(np.linalg, "svd", recording)
    for basis, expected in cases:
        shapes.clear()
        normalize(inst, basis)
        assert shapes == expected


def test_normalize_rank_deficient_block_is_singular():
    # 2k = 4 < m = 6: the unit columns cover rows 0-3, and the two other
    # columns agree up to a factor 2 on rows 4 and 5, so Y = A[U, T] has rank 1
    T = np.array([[0.5, -0.3], [0.0, 0.7], [0.2, 0.0], [-0.4, 0.1],
                  [1.0, 2.0], [1.0, 2.0]])
    inst = LpInstance.from_dense(np.hstack([T, np.eye(6)]), np.ones(6), np.ones(8))
    with pytest.raises(BasisSingular, match="is singular"):
        normalize(inst, (3, 0, 5, 2, 1, 4))


def test_dense_column_count():
    A = np.zeros((5, 4))
    A[:, 0] = np.arange(1.0, 6.0)
    A[0, 1] = 1.0
    A[3, 2] = -2.5  # column 3 stays empty
    inst = LpInstance.from_dense(A, np.ones(5), np.zeros(4))
    assert inst.col_nnz_max == 5
    for k in range(4):
        assert np.array_equal(inst.column(k), A[:, k]), k
    assert np.array_equal(inst.column(-4), A[:, 0])
    with pytest.raises(IndexError):
        inst.column(4)


def test_unit_row_marks_exact_unit_columns():
    # only a single stored nonzero equal to 1.0 makes a unit column; a
    # scaled singleton, a -1 and a column with two entries do not
    A = np.array([[1.0, 2.0, 1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, -1.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    inst = LpInstance.from_dense(A, np.ones(3), np.zeros(6))
    assert inst.unit_row.tolist() == [0, -1, -1, -1, 1, 2]
    with pytest.raises(ValueError):
        inst.unit_row[0] = 1


def test_slack_identity_basis_detection():
    inst = small_instance()
    assert slack_identity_basis(inst) == (0, 1)
    # the first unit column of each row, in row order
    A = np.array([[0.0, 1.0, 0.0, 1.0],
                  [1.0, 0.0, 1.0, 0.0]])
    assert slack_identity_basis(LpInstance.from_dense(A, np.ones(2), np.zeros(4))) == (1, 0)
    assert slack_identity_basis(LpInstance.from_dense(A[:, :1], [1.0, 1.0], [0.0])) is None
    neg_b = LpInstance.from_dense(np.eye(2), [-1.0, 1.0], [0.0, 0.0])
    assert slack_identity_basis(neg_b) is None


def test_basis_matrix_validates():
    inst = small_instance()
    with pytest.raises(ValueError):
        basis_matrix(inst, (0, 0))
