"""Ideal quantum linear-system oracle with injectable error.

The solver internals (Chebyshev/LCU decompositions) are cited machinery,
not simulated.  The exact solution behind an invocation is simulation-side
truth that costs the algorithm nothing, so it is computed elsewhere:
``subroutines.ScaledBasis`` solves every right-hand side an iteration
reads once per basis.  This module owns the error model -- what the
solver's state, at distance exactly ``eps_ls`` from the exact solution
state, gives the reads made on it -- and ``IdealQlsa`` charges the query
counters through the stated cost formulas with unit constants.
Conceptually the solver runs on the symmetric embedding
``[[0, A], [A', 0]]`` of the system, which enters only the cost accounting
(sparsity d and dimension 2m).  Every downstream guarantee depends only on
the contract ``| |x~> - |A^-1 b> | <= eps_ls``, which the worst-case mode
saturates adversarially.

Error modes:

* ``zero``   -- no deviation (ideal solver);
* ``worst``  -- rotate the solution state by exactly ``eps_ls`` within the
  plane spanned by the state and the unit functional read off it, pushing
  the functional value toward its decision threshold.  Only that value is
  ever read, so it is given in closed form (``read_amplitudes``);
* ``random`` -- rotate by exactly ``eps_ls`` in a seeded random direction
  (``inject_error``, one draw per prepared state).
"""

from __future__ import annotations

import math

import numpy as np

from .costmodel import qlsa_query_counts
from .lp import ZeroVector
from .primitives import QueryStats

ERROR_MODES = ("zero", "worst", "random")


def _rotation_angle(eps_ls: float) -> float:
    """Angle between two unit vectors at L2 distance ``eps_ls``."""
    if eps_ls >= 2.0:
        raise ValueError("a unit vector cannot move farther than 2")
    return 2.0 * math.asin(eps_ls / 2.0)


def read_amplitudes(alpha0, eps_ls: float, mode: str, threshold: float = 0.0):
    """``<w|x~>`` for unit functionals w whose exact overlaps with the exact
    solution states x are ``alpha0`` (a float or an array), under zero or
    worst solver error.

    Worst error turns x by ``phi = 2 asin(eps_ls/2)`` in the plane of x and
    w, toward ``threshold``: the read becomes ``cos(phi) alpha0 + sin(phi)
    sqrt(1 - alpha0^2)`` below the threshold and ``cos(phi) alpha0 -
    sin(phi) sqrt(1 - alpha0^2)`` at or above it.  At ``alpha0 = +-1`` the
    plane is any plane through x, and the read is ``cos(phi) alpha0``.
    """
    if mode == "zero" or eps_ls == 0.0:
        return alpha0
    if mode != "worst":
        raise ValueError(f"no closed-form read under {mode!r} error")
    phi = _rotation_angle(eps_ls)
    perp = np.sqrt(np.maximum(1.0 - alpha0 * alpha0, 0.0))
    sign = np.where(alpha0 < threshold, 1.0, -1.0)
    return math.cos(phi) * alpha0 + sign * math.sin(phi) * perp


def inject_error(state: np.ndarray, eps_ls: float, mode: str,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Return a unit vector at L2 distance exactly ``eps_ls`` from ``state``,
    turned in a random direction (``random`` mode) or not at all (``zero``)."""
    if mode == "zero" or eps_ls == 0.0:
        return state
    angle = _rotation_angle(eps_ls)
    if mode != "random":
        raise ValueError(f"no state is drawn under {mode!r} error")
    w = rng.standard_normal(state.size)
    d = w - (w @ state) * state
    d /= np.linalg.norm(d)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return math.cos(angle) * state + sign * math.sin(angle) * d


class IdealQlsa:
    """Oracle producing ``|x~>`` close to ``|A^-1 r>`` for a ``size`` x
    ``size`` system of condition number ``kappa`` and sparsity
    ``sparsity``, charging the stated query-count formulas per invocation."""

    def __init__(self, size: int, kappa: float, sparsity: int,
                 error_mode: str = "zero",
                 rng: np.random.Generator | None = None):
        if error_mode not in ERROR_MODES:
            raise ValueError(f"error mode must be one of {ERROR_MODES}")
        if error_mode == "random" and rng is None:
            raise ValueError("random error mode needs a generator")
        self.size = int(size)
        self.kappa = float(kappa)
        self.sparsity = int(sparsity)
        self.error_mode = error_mode
        self.rng = rng

    def charge(self, eps_ls: float, stats: QueryStats,
               invocations: float = 1.0) -> None:
        counts = qlsa_query_counts(self.sparsity, self.kappa, eps_ls, 2 * self.size)
        stats.qlsa_invocations += invocations
        stats.p_ab_queries += invocations * counts["p_ab_queries"]
        stats.p_b_queries += invocations * counts["p_b_queries"]
        stats.basic_gates += invocations * counts["gates"]

    def solve(self, solution: np.ndarray, eps_ls: float) -> np.ndarray:
        """The output state of one invocation whose exact solution is
        ``solution = A^-1 r``, with a fresh random deviation in ``random``
        mode.  Charges nothing."""
        x = np.asarray(solution, dtype=float).reshape(-1)
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            raise ZeroVector("the solution of a zero right-hand side has no state")
        return inject_error(x / norm, eps_ls, self.error_mode, rng=self.rng)
