"""Independent reference implementations the tests check against.

Everything here is deliberately primitive (dense tableau, exhaustive
scans, direct arithmetic, full statevector circuits) and shares no code
with the package paths it validates.
"""

from __future__ import annotations

import math

import numpy as np


def tableau_simplex(A, b, c, basis, max_iters=500, tol=1e-9):
    """Full-tableau simplex with Dantzig pricing; returns
    (status, objective, basis)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    basis = list(basis)
    T = np.zeros((m + 1, n + 1))
    B = A[:, basis]
    Binv = np.linalg.inv(B)
    T[:m, :n] = Binv @ A
    T[:m, n] = Binv @ b
    cb = c[basis]
    T[m, :n] = c - cb @ T[:m, :n]
    T[m, n] = -cb @ T[:m, n]
    for _ in range(max_iters):
        reduced = T[m, :n].copy()
        reduced[basis] = 0.0
        j = int(np.argmin(reduced))
        if reduced[j] >= -tol:
            return "optimal", float(-T[m, n]), tuple(basis)
        col = T[:m, j]
        if np.all(col <= tol):
            return "unbounded", None, tuple(basis)
        ratios = np.where(col > tol, T[:m, n] / np.where(col > tol, col, 1.0), np.inf)
        i = int(np.argmin(ratios))
        piv = T[i, j]
        T[i, :] /= piv
        for r in range(m + 1):
            if r != i:
                T[r, :] -= T[r, j] * T[i, :]
        basis[i] = j
    return "cap", None, tuple(basis)


def exhaustive_ratio_test(x, u, delta=0.0):
    """Scan every row; (argmin row, min ratio) over u_j above the
    threshold, lowest index on ties; None when the set is empty."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    threshold = max(delta * np.linalg.norm(u), 1e-9)
    best = None
    for j in range(u.size):
        if u[j] > threshold:
            r = x[j] / u[j]
            if best is None or r < best[1] - 1e-15:
                best = (j, r)
    return best


def worst_case_state(state, eps_ls, adversary, threshold):
    """The worst-case solver state as a vector: the unit ``state`` turned
    by the angle whose chord is ``eps_ls``, in the plane of the state and
    the unit functional ``adversary``, so that ``<adversary|state>`` moves
    toward ``threshold``.  A functional parallel to the state spans no
    plane; any orthogonal direction then gives the same read."""
    state = np.asarray(state, dtype=float)
    d = adversary - (adversary @ state) * state
    dn = np.linalg.norm(d)
    if dn < 1e-12:
        axis = np.zeros(state.size)
        axis[int(np.argmin(np.abs(state)))] = 1.0
        d = axis - (axis @ state) * state
        dn = np.linalg.norm(d)
    angle = 2.0 * math.asin(eps_ls / 2.0)
    sign = 1.0 if (adversary @ state) < threshold else -1.0
    return math.cos(angle) * state + sign * math.sin(angle) * (d / dn)


def random_state(state, eps_ls, rng):
    """The random-error solver state as a vector: the unit ``state`` turned
    by the angle whose chord is ``eps_ls`` toward a direction orthogonal to
    it, uniform on that sphere (a Gaussian draw projected off the state)."""
    state = np.asarray(state, dtype=float)
    g = rng.standard_normal(state.size)
    d = g - (g @ state) * state
    angle = 2.0 * math.asin(eps_ls / 2.0)
    return math.cos(angle) * state + math.sin(angle) * (d / np.linalg.norm(d))


def pe_circuit_distribution(unitary, psi, t):
    """Full statevector simulation of the textbook PE circuit.

    Applies the controlled powers ``U^x`` for x = 0 .. 2^t - 1 followed by
    the inverse QFT on the estimation register and returns the marginal
    outcome distribution: the ground truth the analytic kernel is checked
    against, on eigenstates and their mixtures.
    """
    mat = np.asarray(unitary)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    M = 2 ** t
    cols = np.empty((M, psi.size), dtype=complex)
    cur = psi.copy()
    for x in range(M):
        cols[x] = cur
        cur = mat @ cur
    amp = np.fft.fft(cols, axis=0) / M
    p = (np.abs(amp) ** 2).sum(axis=1)
    return p / p.sum()


def grover_operator(psi, target):
    """Grover iterate ``Q = (2|psi><psi| - I) S_target`` of a unit state
    ``psi``, whose eigenphases are ``+-theta`` with
    ``sin(pi theta) = |<target|psi>|``."""
    psi = np.asarray(psi, dtype=complex)
    dim = psi.size
    s_t = np.eye(dim, dtype=complex)
    s_t[target, target] = -1.0
    return (2.0 * np.outer(psi, psi.conj()) - np.eye(dim)) @ s_t


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def empirical_distribution(samples, size):
    counts = np.bincount(np.asarray(samples), minlength=size).astype(float)
    return counts / counts.sum()
