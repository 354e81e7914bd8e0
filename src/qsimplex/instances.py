"""Seeded random instance generators for experiments and property suites.

All generators return LPs in slack form ``[G | I]`` so the identity start
basis is feasible (b > 0), with generic data (no ties, no degenerate
basic solutions) unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from .classical import solve_classical
from .lp import LpInstance, slack_identity_basis


def random_lp(m: int, n: int, seed: int = 0, density: float = 0.7) -> LpInstance:
    """Random slack-form LP: ``n - m`` structural columns, with costs
    uniform in [-1, 1/2], then m slacks."""
    if n <= m:
        raise ValueError("need n > m for a slack-form instance")
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1.0, 1.0, size=(m, n - m))
    mask = rng.random((m, n - m)) < density
    for j in range(n - m):  # keep every column nonzero
        if not mask[:, j].any():
            mask[rng.integers(m), j] = True
    G = np.where(mask, G, 0.0)
    A = np.hstack([G, np.eye(m)])
    b = rng.uniform(0.5, 2.0, size=m)
    c = np.concatenate([rng.uniform(-1.0, 0.5, size=n - m), np.zeros(m)])
    return LpInstance.from_dense(A, b, c)


def random_bounded_lp(m: int, n: int, seed: int = 0, **kw) -> LpInstance:
    """Random LP rejected until the classical solver certifies optimality."""
    for attempt in range(200):
        inst = random_lp(m, n, seed=seed * 1000 + attempt, **kw)
        basis = slack_identity_basis(inst)
        if basis is None:
            continue
        sol = solve_classical(inst, basis, rule="dantzig")
        if sol.status == "optimal":
            return inst
    raise RuntimeError("no bounded instance found; widen the generator")


def random_unbounded_lp(m: int, n: int, seed: int = 0) -> LpInstance:
    """LP with a certifying column ``A_k <= 0`` of negative cost, so the
    classical ratio test reports unbounded once k prices in."""
    rng = np.random.default_rng(seed)
    inst = random_lp(m, n, seed=seed + 10_000)
    A = inst.dense()
    j = rng.integers(n - m)  # overwrite one structural column
    col = -rng.uniform(0.2, 1.0, size=m)
    keep = rng.random(m) < 0.8
    keep[rng.integers(m)] = True
    A[:, j] = np.where(keep, col, 0.0)
    c = inst.c.copy()
    c[j] = -rng.uniform(0.5, 1.5)
    return LpInstance.from_dense(A, inst.b, c)


def random_basis_system(m: int, seed: int = 0):
    """Well-conditioned random basis (condition number at most 6) with a
    feasible right-hand side: returns ``(A_B, b, x)`` with ``x = A_B^-1 b >
    0`` by construction."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    svals = np.exp(rng.uniform(0.0, np.log(6.0), size=m))
    svals = svals / svals.max()
    B = q1 @ np.diag(svals) @ q2.T
    x = rng.uniform(0.2, 1.5, size=m)
    return B, B @ x, x


def ratio_test_triple(m: int, seed: int = 0):
    """(A_B, A_k, b) for ratio-test experiments: the direction
    ``u = A_B^-1 A_k`` mixes signs but has a component of at least |u|/4
    (so the delta-thresholded set is nonempty)."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        B, b, _ = random_basis_system(m, seed=int(rng.integers(2 ** 31)))
        u = rng.uniform(-1.0, 1.0, size=m)
        if u.max() < 0.25 * np.linalg.norm(u):
            continue
        return B, B @ u, b
    raise RuntimeError("no usable triple generated")


def embed_basis_instance(B: np.ndarray, A_k: np.ndarray,
                         b: np.ndarray) -> tuple[LpInstance, tuple[int, ...]]:
    """Wrap a standalone (A_B, A_k, b) system as an LpInstance whose first m
    columns are the basis, with costs ``1/sqrt(m)``, and column m, with cost
    -1; returns the instance and that basis."""
    m = B.shape[0]
    A = np.hstack([B, A_k.reshape(m, 1)])
    c = np.concatenate([np.ones(m) / np.sqrt(m), [-1.0]])
    return LpInstance.from_dense(A, b, c), tuple(range(m))
