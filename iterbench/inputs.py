"""Inputs of the benchmark: slack-form LPs and the bases the ops start at.

Nothing here imports qsimplex, so a change to the program cannot change the
inputs it is measured on.  Instances are ``[G | I]`` with ``b > 0``; with a
nonnegative ``G`` every variable is bounded by ``b``, so the LP is bounded,
while a mixed-sign ``G`` usually leaves some direction unbounded.  The
draws follow one fixed order, so ``make_lp(m, n, s, nonneg=False)`` is the
same LP as the program's ``random_lp(m, n, seed=s)``; the named ops that
show known faults rely on that to name their inputs by the program's seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class Lp:
    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    status: str          # "optimal" | "unbounded", agreed by Dantzig and HiGHS
    path: tuple          # bases on the Dantzig path from the slack basis

    def to_json(self) -> dict:
        """The LP JSON layout ``qsimplex.io`` reads."""
        cols = [[[int(i), float(self.A[i, j])] for i in np.flatnonzero(self.A[:, j])]
                for j in range(self.A.shape[1])]
        return {"m": self.A.shape[0], "n": self.A.shape[1], "A": {"cols": cols},
                "b": [float(v) for v in self.b], "c": [float(v) for v in self.c]}


@dataclass(frozen=True)
class Op:
    lp: str              # name of the instance
    basis: tuple
    seed: int            # seed of the op's own generator


def make_lp(m: int, n: int, seed: int, nonneg: bool):
    """``(A, b, c)`` of a random slack-form LP (density 0.7, n - m structural
    columns, then m slacks)."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1.0, 1.0, size=(m, n - m))
    mask = rng.random((m, n - m)) < 0.7
    for j in range(n - m):
        if not mask[:, j].any():
            mask[rng.integers(m), j] = True
    G = np.where(mask, G, 0.0)
    if nonneg:
        G = np.abs(G)
    A = np.hstack([G, np.eye(m)])
    b = rng.uniform(0.5, 2.0, size=m)
    c = np.concatenate([rng.uniform(-1.0, 0.5, size=n - m), np.zeros(m)])
    return A, b, c


def dantzig_path(A, b, c):
    """Every basis the textbook Dantzig rule visits from the slack basis,
    the terminal one included, and the terminal status.

    Ties go to the lowest column and the lowest row."""
    m, n = A.shape
    basis = list(range(n - m, n))
    path = [tuple(basis)]
    for _ in range(50 * (m + n)):
        lu = scipy.linalg.lu_factor(A[:, basis])
        x = scipy.linalg.lu_solve(lu, b)
        y = scipy.linalg.lu_solve(lu, c[basis], trans=1)
        cbar = c - y @ A
        cbar[basis] = np.inf
        k = int(np.argmin(cbar))
        if cbar[k] >= -PIVOT_TOL:
            return tuple(path), "optimal"
        u = scipy.linalg.lu_solve(lu, A[:, k])
        rows = np.flatnonzero(u > PIVOT_TOL)
        if rows.size == 0:
            return tuple(path), "unbounded"
        basis[int(rows[np.argmin(x[rows] / u[rows])])] = k
        path.append(tuple(basis))
    raise RuntimeError("Dantzig path did not terminate")


def build_lp(name: str, m: int, n: int, seed: int, nonneg: bool) -> Lp:
    A, b, c = make_lp(m, n, seed, nonneg)
    path, status = dantzig_path(A, b, c)
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    highs = {0: "optimal", 3: "unbounded"}.get(res.status, f"linprog status {res.status}")
    if highs != status:
        raise RuntimeError(f"{name}: Dantzig ends {status}, HiGHS says {highs}")
    return Lp(name, A, b, c, status, path)


def op_list(salt: int, m: int, n: int, instances: int, fractions: tuple,
            named: tuple = (), terminal_only: int = 0):
    """The fixed op list of a workload.  Instances alternate nonnegative /
    mixed-sign ``G``; each of the first ``instances`` contributes the bases
    at the given fractions of its Dantzig path (0 is the slack basis, 1 the
    terminal one), each of the next ``terminal_only`` its terminal basis.
    ``named`` adds ``(random_lp seed, path index, op seed)`` ops on
    mixed-sign instances.  Instance and op seeds come from the workload's
    salt."""
    rng = np.random.default_rng(salt)
    lps, ops = [], []
    for i in range(instances + terminal_only):
        nonneg = i % 2 == 0
        lp = build_lp(f"{'pos' if nonneg else 'mix'}{i}", m, n,
                      int(rng.integers(2 ** 31)), nonneg)
        lps.append(lp)
        for f in fractions if i < instances else (1,):
            pos = int(round(f * (len(lp.path) - 1)))
            ops.append(Op(lp.name, lp.path[pos], int(rng.integers(2 ** 31))))
    for lp_seed, index, op_seed in named:
        name = f"random_lp-{lp_seed}"
        if all(lp.name != name for lp in lps):
            lps.append(build_lp(name, m, n, lp_seed, nonneg=False))
        lp = next(lp for lp in lps if lp.name == name)
        ops.append(Op(name, lp.path[index], op_seed))
    return lps, ops


def write_lps(lps, directory) -> list:
    paths = []
    for lp in lps:
        path = directory / f"{lp.name}.json"
        path.write_text(json.dumps(lp.to_json()))
        paths.append(path)
    return paths
