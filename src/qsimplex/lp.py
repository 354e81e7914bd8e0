"""LP data model: sparse instances, basis bookkeeping, spectral normalization.

Everything downstream (classical reference solver, quantum subroutine
simulations, cost model) consumes the two types defined here.  An
``LpInstance`` is the immutable problem ``min c'x  s.t. Ax = b, x >= 0``
with column-major sparse storage; a ``BasisState`` records an ordered
basis together with the scale factors that put the basis submatrix into
the form the quantum linear-system oracle requires (``|c_B| = 1``,
spectrum of the symmetrized basis inside ``[-1,-1/kappa] u [1/kappa,1]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class BasisSingular(ValueError):
    """Selected basis columns are (numerically) linearly dependent."""


class ZeroVector(ValueError):
    """A vector that must be nonzero is zero."""


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
    rounded up to a power of two.
    """

    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    col_nnz_max: int = field(init=False)
    max_abs_entry: float = field(init=False)

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
        b.setflags(write=False)
        c.setflags(write=False)

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
        return np.asarray(self.A.todense())


@dataclass(frozen=True)
class BasisState:
    """An ordered basis plus the scaling the quantum subroutines assume.

    After scaling (``A_B <- matrix_scale * A_B``, ``c <- cost_scale * c``)
    the basis satisfies ``|A_B| <= 1`` with singular values in
    ``[1/kappa, 1]`` and ``|c_B| = 1`` (unless ``cost_degenerate``).
    ``row_nnz_max`` is the max nonzeros per row of A_B and
    ``sparsity = max(col_nnz_max, row_nnz_max)``.
    """

    basis: tuple[int, ...]
    nonbasic: tuple[int, ...]
    cost_scale: float
    matrix_scale: float
    kappa: float
    row_nnz_max: int
    sparsity: int
    cost_degenerate: bool = False

    @property
    def size(self) -> int:
        return len(self.basis)


def basis_matrix(instance: LpInstance, basis) -> np.ndarray:
    """Dense m x m submatrix of the columns indexed by ``basis`` (ordered)."""
    cols = list(basis)
    if len(cols) != instance.m or len(set(cols)) != instance.m:
        raise ValueError("basis must list m distinct column indices")
    return np.asarray(instance.A[:, cols].todense())


def estimate_sigma_max(matrix, eps_prime: float, seed: int = 0,
                       max_iterations: int = 20000) -> tuple[float, int, bool]:
    """Leading singular value via power iteration on ``A'A``.

    Returns ``(sigma_hat, iterations, cap_hit)`` with
    ``sigma_hat in [(1 - eps_prime) * sigma_max, sigma_max]`` whenever the
    iteration converges (always from below, since ``|Av| <= sigma_max``
    for unit v).  ``cap_hit`` reports non-convergence within the
    iteration cap; the best estimate so far is still returned.
    """
    A = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    if not np.any(A):
        raise ZeroVector("matrix is zero")
    if not 0 < eps_prime < 0.5:
        raise ValueError("eps_prime must lie in (0, 1/2)")
    # independent restarts guard against a start vector nearly orthogonal
    # to the dominant singular vector (where the iterate plateaus at
    # sigma_2 long enough to fool any change-based stopping rule)
    starts = 3
    rng = np.random.default_rng([seed, 0x51EE7])
    sigma = 0.0
    total_iters = 0
    cap_hit = False
    per_start = max(max_iterations // starts, 32)
    for _ in range(starts):
        v = rng.standard_normal(A.shape[1])
        v /= np.linalg.norm(v)
        best = float(np.linalg.norm(A @ v))
        prev_delta = None
        stable = 0
        converged = False
        for it in range(1, per_start + 1):
            total_iters += 1
            w = A.T @ (A @ v)
            wn = np.linalg.norm(w)
            if wn == 0.0:  # v fell in the nullspace; restart
                v = rng.standard_normal(A.shape[1])
                v /= np.linalg.norm(v)
                continue
            v = w / wn
            new = float(np.linalg.norm(A @ v))
            delta = max(new - best, 0.0)
            best = max(best, new)
            # the Rayleigh iterates grow monotonically; extrapolate the
            # geometric tail delta * r / (1 - r) so slow convergence is not
            # mistaken for arrival
            budget = eps_prime * best / 4.0
            if prev_delta is not None and it >= 16:
                if delta <= 1e-300:
                    ok = True
                elif prev_delta > 0 and delta < prev_delta:
                    r = delta / prev_delta
                    ok = delta * r / (1.0 - r) <= budget and delta <= budget
                else:
                    ok = False
                stable = stable + 1 if ok else 0
                if stable >= 3:
                    converged = True
                    break
            prev_delta = delta
        sigma = max(sigma, best)
        cap_hit = cap_hit or not converged
    return sigma, total_iters, cap_hit


def normalize(instance: LpInstance, basis, eps_prime: float = 1e-4,
              seed: int = 0) -> BasisState:
    """Build the scaled ``BasisState`` for ``basis`` (the per-iteration
    normalization step).

    ``cost_scale = 1/|c_B|`` and ``matrix_scale = (1 - eps_prime)/sigma_hat``
    where ``sigma_hat`` is the power-method estimate of ``|A_B|``; kappa is
    then computed exactly from a dense SVD of the scaled basis (desk scale),
    which inflates the true condition number by at most ``1/(1-eps_prime)``.
    A zero ``c_B`` skips cost normalization and sets ``cost_degenerate``.
    """
    if isinstance(basis, BasisState):
        basis = basis.basis
    cols = tuple(int(j) for j in basis)
    B = basis_matrix(instance, cols)
    svals = np.linalg.svd(B, compute_uv=False)
    if svals[-1] <= _SINGULAR_RTOL * svals[0]:
        raise BasisSingular(f"basis {cols} is singular")

    sigma_hat, _, _ = estimate_sigma_max(B, eps_prime, seed=seed)
    matrix_scale = (1.0 - eps_prime) / sigma_hat

    c_B = instance.c[list(cols)]
    c_B_norm = float(np.linalg.norm(c_B))
    degenerate = c_B_norm == 0.0
    cost_scale = 1.0 if degenerate else 1.0 / c_B_norm

    kappa = 1.0 / (matrix_scale * float(svals[-1]))
    d_r = int(np.count_nonzero(B, axis=1).max())
    basic = set(cols)
    nonbasic = tuple(j for j in range(instance.n) if j not in basic)
    return BasisState(
        basis=cols,
        nonbasic=nonbasic,
        cost_scale=cost_scale,
        matrix_scale=matrix_scale,
        kappa=kappa,
        row_nnz_max=d_r,
        sparsity=max(instance.col_nnz_max, d_r),
        cost_degenerate=degenerate,
    )


def sparsity_stats(instance: LpInstance, basis) -> tuple[int, int, int, float]:
    """Exact ``(d_c, d_r, d, kappa)`` for the given basis.

    kappa is the ratio of largest to smallest nonzero singular value of the
    unscaled basis, computed by dense SVD.
    """
    if isinstance(basis, BasisState):
        basis = basis.basis
    B = basis_matrix(instance, basis)
    svals = np.linalg.svd(B, compute_uv=False)
    nonzero = svals[svals > _SINGULAR_RTOL * svals[0]]
    kappa = float(nonzero[0] / nonzero[-1])
    d_c = instance.col_nnz_max
    d_r = int(max((np.count_nonzero(row) for row in B), default=0))
    return d_c, d_r, max(d_c, d_r), kappa


def scaled_basis_matrix(instance: LpInstance, state: BasisState) -> np.ndarray:
    return state.matrix_scale * basis_matrix(instance, state.basis)


def slack_identity_basis(instance: LpInstance) -> tuple[int, ...] | None:
    """Ordered basis of unit columns forming an identity, if one exists.

    Returns column indices ``(j_1 .. j_m)`` with ``A[:, j_i] = e_i`` and
    ``b >= 0`` (so the slack start is feasible), else None.  Some basic
    feasible start has to come from somewhere; this toolkit supports
    exactly the slack/identity start or a user-supplied basis.
    """
    A = instance.A
    hit: dict[int, int] = {}
    for j in range(instance.n):
        start, end = A.indptr[j], A.indptr[j + 1]
        if end - start == 1 and A.data[start] == 1.0:
            hit.setdefault(int(A.indices[start]), j)
    if len(hit) < instance.m or np.any(instance.b < 0):
        return None
    return tuple(hit[i] for i in range(instance.m))
