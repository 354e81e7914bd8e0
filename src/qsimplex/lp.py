"""LP data model: sparse instances, basis bookkeeping, spectral normalization.

Everything downstream (classical reference solver, quantum subroutine
simulations, cost model) consumes the two types defined here.  An
``LpInstance`` is the immutable problem ``min c'x  s.t. Ax = b, x >= 0``
with column-major sparse storage; a ``BasisState`` records an ordered
basis together with the scale factors that put the basis submatrix into
the form the quantum linear-system oracle requires (``|c_B| = 1``,
spectrum of the symmetrized basis inside ``[-1,-1/kappa] u [1/kappa,1]``).
Both the scale and kappa come from the extreme singular values of the
basis, computed rather than estimated: for a basis that is mostly unit
columns, from an SVD of size twice its number of other columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


class BasisSingular(ValueError):
    """Selected basis columns are (numerically) linearly dependent."""


class ZeroColumn(ValueError):
    """A matrix column that must be nonzero is zero."""


_SINGULAR_RTOL = 1e-12


def round_up_pow2(x: float) -> float:
    """Smallest power of two >= x (x > 0)."""
    if x <= 0:
        raise ValueError("round_up_pow2 needs a positive value")
    return float(2.0 ** math.ceil(math.log2(x)))


@dataclass(frozen=True)
class LpInstance:
    """Sparse LP data ``min c'x : Ax = b, x >= 0`` with sparsity metadata.

    ``A`` is stored column-major (CSC) with per-column sorted row indices
    and no explicit zeros.  ``col_nnz_max`` is the maximum number of
    nonzeros in any column of A and ``max_abs_entry`` is ``max |A_ij|``
    rounded up to a power of two.  ``unit_row[j]`` is the row of column
    j's single stored nonzero when that nonzero is exactly 1.0 (a unit
    column ``e_i``), else -1.
    """

    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    col_nnz_max: int = field(init=False)
    max_abs_entry: float = field(init=False)
    unit_row: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = sp.csc_matrix(self.A, dtype=float)
        A.eliminate_zeros()
        A.sort_indices()
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        m, n = A.shape
        if m < 1 or n < 1:
            raise ValueError("instance must have at least one row and column")
        if b.shape != (m,) or c.shape != (n,):
            raise ValueError("b/c dimensions do not match A")
        if not (np.all(np.isfinite(A.data)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("instance data must be finite")
        if A.nnz == 0:
            raise ValueError("A has no nonzero entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "col_nnz_max", int(np.diff(A.indptr).max()))
        object.__setattr__(self, "max_abs_entry", round_up_pow2(float(np.abs(A.data).max())))
        single = np.flatnonzero(np.diff(A.indptr) == 1)
        unit = single[A.data[A.indptr[single]] == 1.0]
        unit_row = np.full(n, -1)
        unit_row[unit] = A.indices[A.indptr[unit]]
        object.__setattr__(self, "unit_row", unit_row)
        for array in (b, c, unit_row):
            array.setflags(write=False)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @classmethod
    def from_dense(cls, A, b, c) -> "LpInstance":
        return cls(sp.csc_matrix(np.asarray(A, dtype=float)), b, c)

    def column(self, k: int) -> np.ndarray:
        """Dense copy of column k, filled from the CSC arrays."""
        k = range(self.n)[k]  # negative indices count from the end
        A = self.A
        lo, hi = A.indptr[k], A.indptr[k + 1]
        out = np.zeros(self.m)
        out[A.indices[lo:hi]] = A.data[lo:hi]
        return out

    def dense(self) -> np.ndarray:
        return self.A.toarray()


class UnitSplit(NamedTuple):
    """A basis split by ``LpInstance.unit_row``: the basis positions S of
    its unit columns and T of its k other columns (both ascending), the
    rows R the unit columns cover (``R[i]`` by position ``S[i]``) and the k
    rows U that no unit column covers (ascending)."""

    S: np.ndarray
    T: np.ndarray
    R: np.ndarray
    U: np.ndarray


@dataclass(frozen=True)
class BasisState:
    """An ordered basis plus the scaling the quantum subroutines assume.

    After scaling (``A_B <- matrix_scale * A_B``, ``c <- cost_scale * c``)
    the basis has spectral norm ``|A_B| = 1 - eps_prime`` exactly, singular
    values in ``[1/kappa, 1 - eps_prime]``, and ``|c_B| = 1`` (unless
    ``cost_degenerate``).
    ``row_nnz_max`` is the max nonzeros per row of A_B and
    ``sparsity = max(col_nnz_max, row_nnz_max)``.  ``split`` is the basis's
    ``UnitSplit``, which ``ScaledBasis.build`` solves through.
    """

    basis: tuple[int, ...]
    nonbasic: tuple[int, ...]
    cost_scale: float
    matrix_scale: float
    kappa: float
    row_nnz_max: int
    sparsity: int
    split: UnitSplit = field(compare=False, repr=False)
    cost_degenerate: bool = False


def _basis_columns(instance: LpInstance, basis) -> list[int]:
    cols = [int(j) for j in basis]
    if len(cols) != instance.m or len(set(cols)) != instance.m:
        raise ValueError("basis must list m distinct column indices")
    return cols


def basis_matrix(instance: LpInstance, basis) -> np.ndarray:
    """Dense m x m submatrix of the columns indexed by ``basis`` (ordered)."""
    return instance.dense()[:, _basis_columns(instance, basis)]


def normalize(instance: LpInstance, basis, eps_prime: float = 1e-4) -> BasisState:
    """Build the scaled ``BasisState`` for ``basis`` (the per-iteration
    normalization step).

    The basis's extreme singular values sigma_max and sigma_min give the
    singularity check and both scale factors: ``cost_scale = 1/|c_B|``,
    ``matrix_scale = (1 - eps_prime)/sigma_max``, so ``kappa =
    1/(matrix_scale sigma_min) = sigma_max/((1 - eps_prime) sigma_min)``,
    the true condition number inflated by ``1/(1 - eps_prime)``.  A zero
    ``c_B`` skips cost normalization and sets ``cost_degenerate``.

    The spectrum comes from the basis's ``UnitSplit``.  Ordering its rows
    as (R, U) and its columns as (S, T) gives ``B = [[I, X], [0, Y]]`` with
    ``X = A[R, T]`` and ``Y = A[U, T]``.  While 2k < m, a thin QR
    ``X = Q R_x`` (R_x is k x k) leaves ``sigma(B) = sigma([[I, R_x],
    [0, Y]])`` and m - 2k ones: one 2k x 2k SVD, none for the slack basis
    (k = 0).  A basis with 2k >= m takes one dense SVD of B.
    """
    if not 0 < eps_prime < 0.5:
        raise ValueError("eps_prime must lie in (0, 1/2)")
    cols = _basis_columns(instance, basis)
    basic, m = np.array(cols), instance.m
    rows = instance.unit_row[basic]
    unit = rows >= 0
    S, T = np.flatnonzero(unit), np.flatnonzero(~unit)
    R = rows[S]
    covered = np.zeros(m, dtype=bool)
    covered[R] = True
    U = np.flatnonzero(~covered)
    if U.size != T.size:
        raise BasisSingular(f"basis {tuple(cols)} holds two unit columns on one row")
    split = UnitSplit(S, T, R, U)
    for array in split:
        array.setflags(write=False)

    k = T.size
    dense = instance.dense()
    AT = dense[:, basic[T]]
    if 2 * k >= m:
        svals = np.linalg.svd(dense[:, basic], compute_uv=False)
        sigma_max, sigma_min = float(svals[0]), float(svals[-1])
    elif k:
        # R_x is the upper triangle of the first k rows of the transposed
        # raw QR; the Householder vectors lie below it
        i = np.arange(k)
        M = np.zeros((2 * k, 2 * k))
        M[i, i] = 1.0
        M[:k, k:] = np.linalg.qr(AT[R], mode="raw")[0].T[:k] * (i[:, None] <= i)
        M[k:, k:] = AT[U]
        svals = np.linalg.svd(M, compute_uv=False)
        # with the m - 2k singular values 1 of the rest
        sigma_max, sigma_min = max(float(svals[0]), 1.0), min(float(svals[-1]), 1.0)
    else:
        sigma_max = sigma_min = 1.0
    if sigma_min <= _SINGULAR_RTOL * sigma_max:
        raise BasisSingular(f"basis {tuple(cols)} is singular")

    matrix_scale = (1.0 - eps_prime) / sigma_max

    c_B = instance.c[basic]
    c_B_norm = float(np.linalg.norm(c_B))
    degenerate = c_B_norm == 0.0
    cost_scale = 1.0 if degenerate else 1.0 / c_B_norm

    kappa = 1.0 / (matrix_scale * sigma_min)
    # a row of R holds one unit-column entry besides its entries in T
    d_r = int((np.count_nonzero(AT, axis=1) + covered).max())
    nonbasic = np.ones(instance.n, dtype=bool)
    nonbasic[basic] = False
    return BasisState(
        basis=tuple(cols),
        nonbasic=tuple(np.flatnonzero(nonbasic).tolist()),
        cost_scale=cost_scale,
        matrix_scale=matrix_scale,
        kappa=kappa,
        row_nnz_max=d_r,
        sparsity=max(instance.col_nnz_max, d_r),
        split=split,
        cost_degenerate=degenerate,
    )


def slack_identity_basis(instance: LpInstance) -> tuple[int, ...] | None:
    """Ordered basis of unit columns forming an identity, if one exists.

    Returns column indices ``(j_1 .. j_m)`` with ``A[:, j_i] = e_i`` and
    ``b >= 0`` (so the slack start is feasible), else None.  Some basic
    feasible start has to come from somewhere; this toolkit supports
    exactly the slack/identity start or a user-supplied basis.
    """
    unit = np.flatnonzero(instance.unit_row >= 0)
    # the first unit column of each row, rows ascending
    rows, first = np.unique(instance.unit_row[unit], return_index=True)
    if rows.size < instance.m or np.any(instance.b < 0):
        return None
    return tuple(unit[first].tolist())
