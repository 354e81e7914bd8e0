"""Exact classical simplex reference: pricing, ratio test, full solve.

This is the oracle the quantum-subroutine simulations are checked
against.  Everything is LU-based dense linear algebra at desk scale;
determinism (lowest-index tie breaking, seeded random pivot rule) is
deliberate so runs are reproducible and comparable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .lp import BasisSingular, LpInstance, basis_matrix

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class ClassicalPivotReport:
    """One pricing + ratio-test round, fully materialized."""

    reduced_costs: np.ndarray          # aligned with `nonbasic`
    nonbasic: tuple[int, ...]
    eligible: tuple[int, ...]          # columns with c_bar < -tolerance
    entering: int | None
    direction: np.ndarray | None       # u = A_B^{-1} A_k
    ratio_min: float | None
    leaving_row: int | None
    objective: float


@dataclass(frozen=True)
class ClassicalSolution:
    status: str                        # "optimal" | "unbounded" | "cap"
    basis: tuple[int, ...]
    objective: float | None
    x: np.ndarray | None               # full-length primal solution
    pivots: int
    reports: tuple[ClassicalPivotReport, ...] = field(default=(), repr=False)


def _lu(instance: LpInstance, basis):
    """``solve(rhs, trans=0)`` with the LU factors of the basis matrix."""
    import scipy.linalg  # imported late: only the classical reference factorizes

    B = basis_matrix(instance, basis)
    try:
        lu, piv = scipy.linalg.lu_factor(B)
    except scipy.linalg.LinAlgError as exc:
        raise BasisSingular(str(exc)) from exc
    if np.any(np.abs(np.diag(lu)) < 1e-12 * max(1.0, np.abs(lu).max())):
        raise BasisSingular(f"basis {tuple(basis)} is numerically singular")
    return functools.partial(scipy.linalg.lu_solve, (lu, piv))


def basic_solution(instance: LpInstance, basis) -> np.ndarray:
    """x_B = A_B^{-1} b in basis order."""
    return _lu(instance, basis)(instance.b)


def reduced_costs(instance: LpInstance, basis, nonbasic=None) -> np.ndarray:
    """c_bar_N' = c_N' - c_B' A_B^{-1} A_N, exact via LU.

    Returns the vector aligned with ``nonbasic`` (defaults to all columns
    outside the basis, ascending).  A basic column passed through
    ``nonbasic`` simply reports reduced cost 0.
    """
    basis = tuple(basis)
    if nonbasic is None:
        inside = set(basis)
        nonbasic = tuple(j for j in range(instance.n) if j not in inside)
    y = _lu(instance, basis)(instance.c[list(basis)], trans=1)
    cols = list(nonbasic)
    return instance.c[cols] - np.asarray((y @ instance.A[:, cols])).reshape(-1)


def reduced_cost(instance: LpInstance, basis, k: int) -> float:
    return float(reduced_costs(instance, basis, nonbasic=(k,))[0])


def direction(instance: LpInstance, basis, k: int) -> np.ndarray:
    """u = A_B^{-1} A_k."""
    return _lu(instance, basis)(instance.column(k))


def scaled_pricing_norm(instance: LpInstance, basis, k: int) -> float:
    """|(A_B^{-1} A_k, c_k / |c_B|)| -- the norm the relative optimality
    criterion of the quantum pricing subroutine is stated against."""
    u = direction(instance, basis, k)
    c_B_norm = float(np.linalg.norm(instance.c[list(basis)]))
    ck = instance.c[k] / c_B_norm if c_B_norm > 0 else instance.c[k]
    return float(np.hypot(np.linalg.norm(u), ck))


def ratio_test(instance: LpInstance, basis, k: int, delta: float = 0.0):
    """Minimum ratio over rows with u_j above the delta threshold.

    ``delta = 0`` is the textbook test (denominators ``u_j > 0``); for
    ``delta > 0`` the denominator set is ``{j : u_j > delta * |u|}``.
    Returns ``(leaving_row, r_star)`` with ties broken by lowest row
    index, or None when the denominator set is empty (for ``delta = 0``
    this is exactly the unbounded certificate ``u <= 0``).
    """
    u = direction(instance, basis, k)
    x = basic_solution(instance, basis)
    # delta = 0 is the textbook u_j > 0 test, with the usual pivot tolerance
    # so floating-point dust cannot be selected as a denominator
    threshold = max(delta * np.linalg.norm(u), 1e-9)
    rows = np.flatnonzero(u > threshold)
    if rows.size == 0:
        return None
    ratios = x[rows] / u[rows]
    best = int(np.argmin(ratios))  # np.argmin takes the first minimizer
    return int(rows[best]), float(ratios[best])


def pivot_report(instance: LpInstance, basis, rng=None, rule: str = "dantzig",
                 tol: float = FEAS_TOL) -> ClassicalPivotReport:
    """Price all nonbasic columns and run the ratio test for one pivot."""
    basis = tuple(basis)
    inside = set(basis)
    nonbasic = tuple(j for j in range(instance.n) if j not in inside)
    cbar = reduced_costs(instance, basis, nonbasic)
    x = basic_solution(instance, basis)
    objective = float(instance.c[list(basis)] @ x)
    eligible = tuple(nonbasic[i] for i in np.flatnonzero(cbar < -tol))
    if not eligible:
        return ClassicalPivotReport(cbar, nonbasic, (), None, None, None, None, objective)
    if rule == "dantzig":
        entering = int(nonbasic[int(np.argmin(cbar))])
    elif rule == "bland":
        entering = int(min(eligible))
    elif rule == "random":
        entering = int(rng.choice(eligible))
    else:
        raise ValueError(f"unknown pivot rule {rule!r}")
    u = direction(instance, basis, entering)
    hit = ratio_test(instance, basis, entering)
    if hit is None:
        return ClassicalPivotReport(cbar, nonbasic, eligible, entering, u, None, None, objective)
    row, rstar = hit
    return ClassicalPivotReport(cbar, nonbasic, eligible, entering, u, rstar, row, objective)


def solve_classical(instance: LpInstance, start_basis, rule: str = "random",
                    seed: int = 0, max_iters: int | None = None,
                    tol: float = FEAS_TOL, keep_reports: bool = False) -> ClassicalSolution:
    """Run the simplex loop to optimality/unboundedness from a feasible basis.

    ``rule = "random"`` picks uniformly among eligible columns (seeded).
    Anti-cycling: after the iteration cap (default ``50 (m + n)``) the rule
    switches to Bland's; a second cap then aborts with status "cap".
    """
    basis = list(start_basis)
    if np.any(basic_solution(instance, basis) < -tol):
        raise ValueError("start basis is infeasible")
    rng = np.random.default_rng(seed)
    cap = max_iters if max_iters is not None else 50 * (instance.m + instance.n)
    reports = []
    active_rule = rule
    pivots = 0
    for it in range(2 * cap + 1):
        if it >= cap:
            active_rule = "bland"
        rep = pivot_report(instance, basis, rng=rng, rule=active_rule, tol=tol)
        if keep_reports:
            reports.append(rep)
        if rep.entering is None:
            x = np.zeros(instance.n)
            x[list(basis)] = basic_solution(instance, basis)
            return ClassicalSolution("optimal", tuple(basis), rep.objective, x,
                                     pivots, tuple(reports))
        if rep.leaving_row is None:
            return ClassicalSolution("unbounded", tuple(basis), None, None,
                                     pivots, tuple(reports))
        basis[rep.leaving_row] = rep.entering
        pivots += 1
    return ClassicalSolution("cap", tuple(basis), None, None, pivots, tuple(reports))
