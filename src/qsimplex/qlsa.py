"""Ideal quantum linear-system oracle with injectable error.

The solver internals (Chebyshev/LCU decompositions) are cited machinery,
not simulated.  The exact solution behind an invocation is simulation-side
truth that costs the algorithm nothing, so it is computed elsewhere:
``subroutines.ScaledBasis`` solves every right-hand side an iteration
reads once per basis.  This oracle only turns an exact solution into the
state the solver returns -- a unit vector at distance exactly ``eps_ls``
from it -- and charges the query counters through the stated cost
formulas with unit constants.  Conceptually the solver runs on the
symmetric embedding ``[[0, A], [A', 0]]`` of the system, which enters only
the cost accounting (sparsity d and dimension 2m).  Every downstream
guarantee depends only on the contract ``| |x~> - |A^-1 b> | <= eps_ls``,
which the worst-case mode saturates adversarially.

Error modes:

* ``zero``   -- no deviation (ideal solver);
* ``worst``  -- rotate the solution state by exactly ``eps_ls`` within the
  plane spanned by the state and an adversary functional, pushing the
  functional value toward its decision threshold;
* ``random`` -- rotate by exactly ``eps_ls`` in a seeded random direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costmodel import qlsa_query_counts
from .lp import ZeroVector
from .primitives import QueryStats

ERROR_MODES = ("zero", "worst", "random")


def inject_error(state: np.ndarray, eps_ls: float, mode: str,
                 adversary: np.ndarray | None = None,
                 threshold: float = 0.0,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Return a unit vector at L2 distance exactly ``eps_ls`` from ``state``.

    ``adversary`` is the linear functional the caller will read off the
    state; worst-case mode moves ``<adversary|state>`` toward ``threshold``
    (the decision boundary), which is the deviation the correctness proofs
    must survive.
    """
    if mode == "zero" or eps_ls == 0.0:
        return state
    if eps_ls >= 2.0:
        raise ValueError("a unit vector cannot move farther than 2")
    dim = state.size
    if mode == "worst":
        w = adversary if adversary is not None else _default_adversary(dim)
    elif mode == "random":
        w = rng.standard_normal(dim)
    else:
        raise ValueError(f"unknown error mode {mode!r}")
    d = w - (w @ state) * state
    dn = np.linalg.norm(d)
    if dn < 1e-12:  # functional parallel to the state; any orthogonal dir works
        d = _default_adversary(dim) - (_default_adversary(dim) @ state) * state
        dn = np.linalg.norm(d)
        if dn < 1e-12:
            basis = np.zeros(dim)
            basis[int(np.argmin(np.abs(state)))] = 1.0
            d = basis - (basis @ state) * state
            dn = np.linalg.norm(d)
    d /= dn
    angle = 2.0 * math.asin(eps_ls / 2.0)
    if mode == "worst" and adversary is not None:
        # move the functional toward its threshold
        sign = 1.0 if (adversary @ state) < threshold else -1.0
    elif mode == "random":
        sign = 1.0 if rng.random() < 0.5 else -1.0
    else:
        sign = 1.0
    return math.cos(angle) * state + sign * math.sin(angle) * d


def _default_adversary(dim: int) -> np.ndarray:
    w = np.ones(dim)
    w[0] = 2.0
    return w / np.linalg.norm(w)


@dataclass
class QlsaSolution:
    state: np.ndarray        # normalized approximate solution
    exact: np.ndarray        # normalized exact solution (simulation-side truth)


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

    def solve(self, solution: np.ndarray, eps_ls: float,
              adversary: np.ndarray | None = None,
              threshold: float = 0.0) -> QlsaSolution:
        """The (error-injected) output state of one invocation whose exact
        solution is ``solution = A^-1 r``.  Charges nothing."""
        x = np.asarray(solution, dtype=float).reshape(-1)
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            raise ZeroVector("the solution of a zero right-hand side has no state")
        exact = x / norm
        state = inject_error(exact, eps_ls, self.error_mode,
                             adversary=adversary, threshold=threshold,
                             rng=self.rng)
        return QlsaSolution(state=state, exact=exact)
