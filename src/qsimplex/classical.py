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
    return _reduced_costs(instance, _lu(instance, basis), basis, nonbasic)


def _reduced_costs(instance: LpInstance, solve, basis, nonbasic) -> np.ndarray:
    y = solve(instance.c[list(basis)], trans=1)
    cols = list(nonbasic)
    return instance.c[cols] - np.asarray((y @ instance.A[:, cols])).reshape(-1)


def direction(instance: LpInstance, basis, k: int) -> np.ndarray:
    """u = A_B^{-1} A_k."""
    return _lu(instance, basis)(instance.column(k))


# in eps * norm: an entering column's cbar lies below PRICING_FACTOR of its
# variant (the nfp recovery certifies only 11/30 + 1/10), and at an optimal
# basis no cbar lies below OPTIMAL_FACTOR
PRICING_FACTOR = {"nfn": -1.0, "nfp": 14.0 / 30.0}
OPTIMAL_FACTOR = -2.2


def pricing_terms(instance: LpInstance, basis, columns=None):
    """``(cbar, norm)`` of ``columns`` (default: every nonbasic column,
    ascending) in the units pricing certifies, costs scaled to ``|c_B| = 1``
    (kept when ``c_B = 0``, as ``lp.normalize`` does): ``c_bar_j/|c_B|``
    and ``|(A_B^-1 A_j, c_j/|c_B|)|``.  One LU of the basis, one transposed
    solve for the duals and one solve for all the directions."""
    basis = list(basis)
    cols = list(np.setdiff1d(np.arange(instance.n), basis)
                if columns is None else columns)
    c = instance.c / (float(np.linalg.norm(instance.c[basis])) or 1.0)
    solve = _lu(instance, basis)
    A_cols = instance.A[:, cols].toarray()
    cbar = c[cols] - solve(c[basis], trans=1) @ A_cols
    return cbar, np.hypot(np.linalg.norm(solve(A_cols), axis=0), c[cols])


def ratio_test(instance: LpInstance, basis, k: int, delta: float = 0.0):
    """Minimum ratio over rows with u_j above the delta threshold.

    ``delta = 0`` is the textbook test (denominators ``u_j > 0``); for
    ``delta > 0`` the denominator set is ``{j : u_j > delta * |u|}``.
    Returns ``(leaving_row, r_star)`` with ties broken by lowest row
    index, or None when the denominator set is empty (for ``delta = 0``
    this is exactly the unbounded certificate ``u <= 0``).
    """
    solve = _lu(instance, basis)
    return _min_ratio(solve(instance.b), solve(instance.column(k)), delta)


def _min_ratio(x: np.ndarray, u: np.ndarray, delta: float):
    """``ratio_test``'s result for the basic solution x and direction u."""
    # delta = 0 is the textbook u_j > 0 test, with the usual pivot tolerance
    # so floating-point dust cannot be selected as a denominator
    threshold = max(delta * np.linalg.norm(u), 1e-9)
    rows = np.flatnonzero(u > threshold)
    if rows.size == 0:
        return None
    ratios = x[rows] / u[rows]
    best = int(np.argmin(ratios))  # np.argmin takes the first minimizer
    return int(rows[best]), float(ratios[best])


def pivot_report(instance: LpInstance, basis, rng=None,
                 rule: str = "dantzig") -> ClassicalPivotReport:
    """Price all nonbasic columns and run the ratio test for one pivot,
    from one LU of the basis."""
    basis = tuple(basis)
    inside = set(basis)
    nonbasic = tuple(j for j in range(instance.n) if j not in inside)
    solve = _lu(instance, basis)
    cbar = _reduced_costs(instance, solve, basis, nonbasic)
    x = solve(instance.b)
    objective = float(instance.c[list(basis)] @ x)
    eligible = tuple(nonbasic[i] for i in np.flatnonzero(cbar < -FEAS_TOL))
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
    u = solve(instance.column(entering))
    hit = _min_ratio(x, u, 0.0)
    if hit is None:
        return ClassicalPivotReport(cbar, nonbasic, eligible, entering, u, None, None, objective)
    row, rstar = hit
    return ClassicalPivotReport(cbar, nonbasic, eligible, entering, u, rstar, row, objective)


def solve_classical(instance: LpInstance, start_basis, rule: str = "random",
                    seed: int = 0, max_iters: int | None = None,
                    keep_reports: bool = False) -> ClassicalSolution:
    """Run the simplex loop to optimality/unboundedness from a feasible basis.

    ``rule = "random"`` picks uniformly among eligible columns (seeded).
    Anti-cycling: after the iteration cap (default ``50 (m + n)``) the rule
    switches to Bland's; a second cap then aborts with status "cap".
    """
    basis = list(start_basis)
    if np.any(basic_solution(instance, basis) < -FEAS_TOL):
        raise ValueError("start basis is infeasible")
    rng = np.random.default_rng(seed)
    cap = max_iters if max_iters is not None else 50 * (instance.m + instance.n)
    reports = []
    active_rule = rule
    pivots = 0
    for it in range(2 * cap + 1):
        if it >= cap:
            active_rule = "bland"
        rep = pivot_report(instance, basis, rng=rng, rule=active_rule)
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
