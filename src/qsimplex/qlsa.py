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

Each prepared state is read once, through one unit functional w, so a
read is a function of the exact overlap ``alpha0 = <w|x>`` alone and no
state is ever built.  With ``phi = 2 asin(eps_ls/2)`` the angle whose chord
is ``eps_ls``, the error modes read:

* ``zero``   -- ``alpha0`` (ideal solver);
* ``worst``  -- x turned by phi within the plane of x and w, pushing the
  read toward its decision threshold: ``cos(phi) alpha0 +- sin(phi)
  sqrt(1 - alpha0^2)`` (``read_amplitudes``);
* ``random`` -- x turned by phi in a uniformly random direction, one fresh
  direction per prepared state: ``cos(phi) alpha0 + sin(phi) sqrt(1 -
  alpha0^2) T``, with T the first coordinate of a uniform point on the
  unit sphere of the ``dim - 1`` directions orthogonal to x
  (``inject_error``).
"""

from __future__ import annotations

import math

import numpy as np

from .costmodel import qlsa_query_counts
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
    worst solver error; random error is drawn (``inject_error``).

    Worst error turns x by ``phi = 2 asin(eps_ls/2)`` in the plane of x and
    w, toward ``threshold``: the read becomes ``cos(phi) alpha0 + sin(phi)
    sqrt(1 - alpha0^2)`` below the threshold and ``cos(phi) alpha0 -
    sin(phi) sqrt(1 - alpha0^2)`` at or above it.  At ``alpha0 = +-1`` the
    plane is any plane through x, and the read is ``cos(phi) alpha0``.
    """
    if mode == "zero" or eps_ls == 0.0:
        return alpha0
    if mode != "worst":
        raise ValueError(f"no deterministic read under {mode!r} error")
    phi = _rotation_angle(eps_ls)
    perp = np.sqrt(np.maximum(1.0 - alpha0 * alpha0, 0.0))
    sign = np.where(alpha0 < threshold, 1.0, -1.0)
    return math.cos(phi) * alpha0 + sign * math.sin(phi) * perp


def inject_error(alpha0, eps_ls: float, dim: int, rng: np.random.Generator):
    """One random-error read per entry of ``alpha0`` (a float or an array),
    the exact overlaps of unit functionals with solution states in R^dim.
    T, the first coordinate of a uniform point on the unit sphere of
    R^(dim-1), is ``2 Beta(k, k) - 1`` with ``k = (dim - 2)/2``, and a fair
    +-1 at dim 2.  At dim 1, ``alpha0 = +-1`` and the read is ``cos(phi)
    alpha0``."""
    phi = _rotation_angle(eps_ls)
    alpha0 = np.asarray(alpha0, dtype=float)
    if dim <= 2:
        t = np.where(rng.random(alpha0.shape) < 0.5, 1.0, -1.0)
    else:
        t = 2.0 * rng.beta((dim - 2) / 2.0, (dim - 2) / 2.0, alpha0.shape) - 1.0
    perp = np.sqrt(np.maximum(1.0 - alpha0 * alpha0, 0.0))
    return math.cos(phi) * alpha0 + math.sin(phi) * perp * t


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
        self.rng = rng

    def charge(self, eps_ls: float, stats: QueryStats,
               invocations: float = 1.0) -> None:
        counts = qlsa_query_counts(self.sparsity, self.kappa, eps_ls, 2 * self.size)
        stats.qlsa_invocations += invocations
        stats.p_ab_queries += invocations * counts["p_ab_queries"]
        stats.p_b_queries += invocations * counts["p_b_queries"]
        stats.basic_gates += invocations * counts["gates"]

    def solve(self, alpha0, eps_ls: float):
        """Random-error reads of fresh output states of this ``size`` x
        ``size`` system, one per entry of the exact overlaps ``alpha0``
        (``inject_error`` with the oracle's generator).  Charges nothing."""
        return inject_error(alpha0, eps_ls, self.size, self.rng)
