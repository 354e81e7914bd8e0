"""Quantum primitive simulations: phase estimation, amplitude estimation,
Grover QSearch, and minimum finding, with exact outcome distributions.

Two execution modes run through everything:

* analytic -- outcome distributions are evaluated in closed form from the
  simulated state (the standard phase-estimation kernel), so tests are
  deterministic; an amplitude-estimation readout is the most likely grid
  point, read from the kernel at the two grid points bracketing the true
  phase (``ae_readout``), with the full 2^bits table built only when those
  two tie;
* sampling -- outcomes are drawn from those same distributions with a
  seeded generator, which is statistically identical to measuring the
  full statevector circuit (the circuit simulation in the test suite's
  ``tests/oracles.py`` builds the honest circuit distribution for
  cross-checks); an amplitude-estimation draw (``ae_sample``) inverts the
  same uniform through the same cumulative distribution as ``rng.choice``
  on the table, but reads it from the kernel near its two peaks plus
  closed-form sums of the tails between them, building the table only when
  a uniform lies too close to an interval end to decide.

Query accounting conventions (one call of phase estimation on ``t`` bits,
``M = 2^t``): ``M`` controlled powers of the walk/Grover operator are
charged as ``M`` controlled-U calls and ``2M`` U-calls (operator and
inverse inside each iterate) and ``t^2`` basic gates for the inverse QFT;
the state preparations inside the iterates are charged by the caller
(``subroutines.estimation_cost``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class AllInfinite(ValueError):
    """Minimum finding over a domain where every value is +inf."""


@dataclass
class QueryStats:
    """Monotone counters accumulated by every subroutine run.

    Formula-charged counters (oracle queries, gates) are floats because the
    per-invocation charges come from the cost-model expressions; discrete
    counters (iterations, repetitions) stay integral-valued.
    """

    u_calls: float = 0.0
    controlled_u_calls: float = 0.0
    qlsa_invocations: float = 0.0
    p_ab_queries: float = 0.0
    p_b_queries: float = 0.0
    grover_iterations: float = 0.0
    ae_repetitions: float = 0.0
    basic_gates: float = 0.0

    def add(self, other: "QueryStats") -> None:
        for name in _STATS_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def scaled(self, factor: float) -> "QueryStats":
        out = QueryStats()
        for name in _STATS_FIELDS:
            setattr(out, name, getattr(self, name) * factor)
        return out

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _STATS_FIELDS}


_STATS_FIELDS = tuple(f.name for f in fields(QueryStats))


# ---------------------------------------------------------------------------
# phase estimation


def extra_qubits(eps_fail: float) -> int:
    """Extra precision qubits needed for failure probability eps_fail."""
    if not 0 < eps_fail < 1:
        raise ValueError("eps_fail must lie in (0, 1)")
    return math.ceil(math.log2(2.0 + 1.0 / (2.0 * eps_fail)))


def _fejer(phi, y: np.ndarray, M: int) -> np.ndarray:
    """Phase-estimation kernel ``sin^2(pi M d) / (M^2 sin^2(pi d))`` with
    ``d = phi - y/M`` at the grid points y of an M-point register (1 where
    phi lies on the grid), before normalization; a column of phases gives
    one row per phase."""
    delta = phi - y / M
    delta -= np.round(delta)  # wrap to [-1/2, 1/2]; the kernel is 1-periodic
    small = np.abs(delta) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (np.sin(np.pi * M * delta) / (M * np.sin(np.pi * delta))) ** 2
    p[small] = 1.0
    p[~np.isfinite(p)] = 0.0
    return p


def pe_outcome_distribution(phi: float, t: int) -> np.ndarray:
    """Exact distribution of the t-bit phase-estimation outcome for
    eigenphase phi: ``P(y) = sin^2(pi M d) / (M^2 sin^2(pi d))`` with
    ``d = phi - y/M`` (and a point mass when phi lies on the grid)."""
    p = _fejer(phi, np.arange(2 ** t), 2 ** t)
    return p / p.sum()


def _charge_pe(stats: QueryStats, t: int) -> None:
    M = 2 ** t
    stats.controlled_u_calls += M
    stats.u_calls += 2 * M
    stats.ae_repetitions += M
    stats.basic_gates += t * t


# ---------------------------------------------------------------------------
# amplitude estimation


def fold_phase(y: int, M: int) -> float:
    """Map the readout to [0, 1/2]: phases theta and 1 - theta are the two
    eigenphase branches of the Grover operator and carry the same amplitude."""
    return min(y, M - y) / M


def theta_of_amplitude(a: float) -> float:
    """Phase theta in [0, 1/2] with ``sin(pi theta) = sqrt(a)``."""
    a = min(max(a, 0.0), 1.0)
    return math.asin(math.sqrt(a)) / math.pi


def ae_distribution(a: float, bits: int) -> np.ndarray:
    """Exact amplitude-estimation outcome distribution for target
    probability ``a``: the equal mixture of the phase-estimation kernels at
    ``theta`` and ``1 - theta``."""
    theta = theta_of_amplitude(a)
    return 0.5 * (pe_outcome_distribution(theta, bits)
                  + pe_outcome_distribution(-theta, bits))


def bracketing_grid_points(theta: float, bits: int) -> tuple[int, int]:
    """The grid points ``floor(theta M)`` and ``ceil(theta M)`` (M = 2^bits)
    of a phase theta in [0, 1/2]; both lie in [0, M/2].

    Together they carry at least 8/pi^2 > 1/2 of the phase-estimation
    kernel at theta (Brassard-Hoyer-Mosca-Tapp), and the nearer one alone
    at least 4/pi^2.
    """
    M = 2 ** bits
    return math.floor(theta * M), math.ceil(theta * M)


def ae_readout(a: float, bits: int) -> int:
    """Most likely readout of ``ae_distribution(a, bits)``, folded to
    [0, M/2] (M = 2^bits), from the two grid points bracketing ``theta M``.

    The nearer of them carries at least 4/pi^2 of the kernel at theta
    (``bracketing_grid_points``); every other point of [0, M/2] lies at
    least one step from both kernel peaks (theta and -theta), where each
    kernel is below 1/8, so the maximum is one of the two.  When their
    values agree to 1e-9 relative (``theta M`` a half-integer, say),
    rounding decides the argmax, which is then read off the full table.
    """
    M = 2 ** bits
    theta = theta_of_amplitude(a)
    lo, hi = bracketing_grid_points(theta, bits)
    y = np.arange(lo, hi + 1)
    p = _fejer(theta, y, M) + _fejer(-theta, y, M)
    if y.size > 1 and p.min() >= p.max() * (1.0 - 1e-9):
        exact = int(np.argmax(ae_distribution(a, bits)))
        return min(exact, M - exact)
    return int(y[np.argmax(p)])


# Sampled readouts (``ae_quantile``).  The kernel is evaluated on
# +-_AE_WINDOW grid points around each of its two peaks; the tails between
# them hold about 2/(pi^2 _AE_WINDOW) ~ 0.16% of the mass, and a uniform that
# lands there is inverted through the table.  _AE_MARGIN bounds the distance
# between the windowed and the table's cumulative sums (see ``ae_quantile``).
_AE_WINDOW = 128
_AE_MARGIN = 1e-9

# Euler-Maclaurin weights B_2j/(2j)! for j = 1, 2, 3, and the derivatives
# of orders 1, 3, 5 of csc^2 x as polynomials in C = cot x (coefficients of
# C, C^3, C^5, C^7), from P_0 = 1 + C^2, P_(n+1) = -(1 + C^2) dP_n/dC
_EM_TERMS = ((1, 1.0 / 12.0, (-2.0, -2.0, 0.0, 0.0)),
             (3, -1.0 / 720.0, (-16.0, -40.0, -24.0, 0.0)),
             (5, 1.0 / 30240.0, (-272.0, -1232.0, -1680.0, -720.0)))


def _kernel_gap_sums(peaks, starts: np.ndarray, ends: np.ndarray, M: int,
                     s2: float) -> np.ndarray:
    """Sums of the phase-estimation kernels peaked at grid positions
    ``peaks``, ``s2 / (M^2 sin^2(pi (y - peak)/M))`` with
    ``s2 = sin^2(pi M theta)``, over the grid points ``starts[i] .. ends[i]``
    of each gap (inclusive, nonempty), none of which holds a peak; one row
    per peak.

    Euler-Maclaurin with the integral ``-(M/pi) cot``, the end-point
    average and three derivative terms.  The sixth derivative is positive
    on a gap, so the remainder is at most ``2 zeta(6)/(2 pi)^6 = 3.31e-5``
    times the change of the fifth; at distance at least d from both peaks
    that is below ``3.31e-5 * 2 * (720/pi^2) * 2 zeta(7) / d^7``, 1.7e-17
    for ``d = _AE_WINDOW + 1/2``.
    """
    h = math.pi / M
    # odd part of the end-point terms, C/h - sum_j w_j h^n P_n(C), as
    # coefficients of C, C^3, C^5, C^7
    odd = [1.0 / h, 0.0, 0.0, 0.0]
    for order, weight, coef in _EM_TERMS:
        for i, c in enumerate(coef):
            odd[i] -= weight * h ** order * c
    # shift a peak by a period where needed, so each gap lies in (peak, peak + M)
    peaks = np.asarray(peaks, dtype=float)[:, None] % M
    peaks = np.where(peaks > ends, peaks - M, peaks)
    cot = 1.0 / np.tan(h * (np.stack([starts, ends])[:, None] - peaks))
    c2 = cot * cot
    odd_part = cot * (odd[0] + c2 * (odd[1] + c2 * (odd[2] + c2 * odd[3])))
    # (1 + C^2)/2 at both ends; the odd part enters with + at a gap's start, - at its end
    return s2 / M ** 2 * ((1.0 + c2).sum(axis=0) / 2.0 + odd_part[0] - odd_part[1])


def _table_quantile(a: float, bits: int, u):
    """``rng.choice``'s inverse-CDF map on the full table."""
    cdf = ae_distribution(a, bits).cumsum()
    cdf /= cdf[-1]
    y = cdf.searchsorted(u, side="right")
    return int(y) if np.ndim(u) == 0 else y


def ae_quantile(a: float, bits: int, u):
    """Readout(s) of ``ae_distribution(a, bits)`` for uniform(s) ``u`` in
    [0, 1) under the map ``rng.choice`` applies to a table ``p``:
    ``cdf = p.cumsum(); cdf /= cdf[-1]; cdf.searchsorted(u, side="right")``.

    The kernel is evaluated (bit-identically to the table) on the windows
    of +-``_AE_WINDOW`` grid points around theta M and M - theta M
    (M = 2^bits), merged where they overlap or wrap past 0 or M, and summed
    in closed form over the gaps between them (``_kernel_gap_sums``).  The
    resulting cumulative sums differ from the table's by at most:

    * ``M 2^-52`` for the rounding of the table's running sum and of its
      division by the total;
    * ``(3 pi / 2) M 2^-53 / _AE_WINDOW``, twice (in the values and in the
      kernels' normalization by their float sums), for the rounding noise
      of the table's off-peak values: their phase offsets are rounded at
      magnitude up to 1, which moves ``sin(pi M d)`` by up to
      ``1.5 pi M 2^-53``.  The noise scales with ``|sin(pi M theta)|``
      (up to a second-order term below 1e-20), so no phase makes it
      larger;
    * 1e-14 for the Euler-Maclaurin remainders and the window sums.

    For M <= 2^21 the total is below ``_AE_MARGIN / 2``, so a uniform at
    least ``_AE_MARGIN`` from both ends of the window interval holding it
    gets that interval's grid point.  The table decides instead when a
    uniform lies within the margin of an interval end or in a gap, when the
    windows cover the whole grid, and when ``M 2^-51`` exceeds the margin.
    """
    M = 2 ** bits
    theta = theta_of_amplitude(a)
    c = round(theta * M)  # the peaks' nearest grid points are c and M - c
    W = _AE_WINDOW
    if c <= W:  # both windows wrap past 0 and M, where they merge
        windows = [(0, c + W), (M - c - W, M - 1)]
    elif M - c - W <= c + W + 1:  # they merge at M/2
        windows = [(c - W, M - c + W)]
    else:
        windows = [(c - W, c + W), (M - c - W, M - c + W)]
    sizes = [hi - lo + 1 for lo, hi in windows]
    if sum(sizes) >= M or M * 2.0 ** -51 > _AE_MARGIN:
        return _table_quantile(a, bits, u)
    # a gap before, between and after the windows, possibly empty
    bounds = [-1, *(end for window in windows for end in window), M]
    starts = np.array(bounds[0::2]) + 1
    ends = np.array(bounds[1::2]) - 1
    full = starts <= ends
    gaps = np.zeros(starts.size)
    gaps[full] = 0.5 * _kernel_gap_sums(
        (theta * M, M - theta * M), starts[full], ends[full], M,
        math.sin(math.pi * (theta * M - c)) ** 2).sum(axis=0)
    pts = np.concatenate([np.arange(lo, hi + 1) for lo, hi in windows])
    mass = 0.5 * _fejer(np.array([[theta], [-theta]]), pts, M).sum(axis=0)
    # cumulative mass at the end of each window point, gaps included
    cum = np.cumsum(mass) + np.repeat(np.cumsum(gaps[:-1]), sizes)
    k = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
    # undecided: u beyond the last window point, in a gap, or near an end
    decided = (u - (cum[k] - mass[k]) >= _AE_MARGIN) & (cum[k] - u >= _AE_MARGIN)
    if not np.all(decided):
        return _table_quantile(a, bits, u)
    y = pts[k]
    return int(y) if np.ndim(u) == 0 else y


def ae_sample(a: float, bits: int, rng: np.random.Generator, size=None):
    """Sampled readout(s) of ``ae_distribution(a, bits)``: the index, and
    the generator state after it, that ``rng.choice(2**bits, size=size,
    p=ae_distribution(a, bits))`` gives, without building the table unless
    ``ae_quantile`` cannot decide.  Draws the uniforms ``rng.random(size)``,
    as ``choice`` does."""
    return ae_quantile(a, bits, rng.random(size))


@dataclass(frozen=True)
class AEOutcome:
    bits: int
    theta_true: float
    y: int

    @property
    def theta_est(self) -> float:
        return fold_phase(self.y, 2 ** self.bits)

    @property
    def amp_est(self) -> float:
        return math.sin(math.pi * self.theta_est)

    @property
    def phase_error(self) -> float:
        return abs(self.theta_est - self.theta_true)

    def within(self, tol: float) -> bool:
        return self.phase_error <= tol + 1e-15


def amplitude_estimation(a: float, bits: int, mode: str = "analytic",
                         rng: np.random.Generator | None = None) -> AEOutcome:
    """Estimate the amplitude ``sqrt(a)`` of a target state with probability
    ``a`` with ``bits`` qubits of phase accuracy.  Uncharged: the caller
    prices the run with ``estimation_cost``.

    Analytic mode reads out the most likely grid point of the exact
    outcome distribution with ``ae_readout``, so ``y`` is folded to
    [0, M/2] (the fold, and with it ``theta_est``, is the table's argmax);
    sampling mode draws ``y`` with ``ae_sample``, which returns what
    ``rng.choice`` on the table returns while building the table only for
    the rare undecided draw.
    """
    theta = theta_of_amplitude(a)
    if mode == "analytic":
        y = ae_readout(a, bits)
    elif mode == "sampling":
        y = ae_sample(a, bits, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return AEOutcome(bits=bits, theta_true=theta, y=y)


# ---------------------------------------------------------------------------
# Grover search with unknown number of marked items (QSearch)

_QSEARCH_GROWTH = 6.0 / 5.0
_QSEARCH_BUDGET = 9.0  # total Grover iterations <= ceil(9 sqrt(N)) + 4


def qsearch_budget(n: int) -> int:
    return math.ceil(_QSEARCH_BUDGET * math.sqrt(max(n, 1))) + 4


def qsearch(domain, marked, rng: np.random.Generator,
            stats: QueryStats | None = None, confirm=None,
            max_iterations: int | None = None):
    """QSearch over ``domain`` with an unknown number of marked items.

    ``marked`` is the effective marked set driving the Grover dynamics (a
    realization of the bounded-error oracle's decisions for this run);
    ``confirm`` optionally re-checks a measured candidate and is what the
    returned index must pass.  Returns a marked index, or None once the
    iteration budget ``O(sqrt(N))`` is exhausted (no marked item found).

    Conditioned on success the returned index is uniform over the marked
    set, which is the standard QSearch property with randomized iterate
    counts.
    """
    domain = list(domain)
    n = len(domain)
    if n == 0:
        return None
    marked_set = set(marked)
    marked = [i for i in domain if i in marked_set]
    k = len(marked)
    unmarked = [i for i in domain if i not in marked_set]
    theta = math.asin(math.sqrt(k / n)) if k else 0.0
    budget = max_iterations if max_iterations is not None else qsearch_budget(n)
    mmax = math.sqrt(n)
    m_cur = 1.0
    used = 0
    while used <= budget:
        j = int(rng.integers(0, max(1, int(m_cur))))
        used += j + 1
        if stats is not None:
            stats.grover_iterations += j + 1
        p_hit = math.sin((2 * j + 1) * theta) ** 2 if k else 0.0
        if rng.random() < p_hit:
            idx = int(marked[rng.integers(k)])
        else:
            pool = unmarked if unmarked else marked
            idx = int(pool[rng.integers(len(pool))])
        ok = confirm(idx) if confirm is not None else (idx in marked_set)
        if ok:
            return idx
        m_cur = min(_QSEARCH_GROWTH * m_cur, mmax)
    return None


def qsearch_analytic(domain, marked, stats: QueryStats | None = None):
    """Deterministic stand-in for analytic mode: lowest marked index, with
    the canonical ``ceil(pi/4 sqrt(N/k))`` iteration charge."""
    domain = list(domain)
    marked = sorted(set(marked) & set(domain))
    n = len(domain)
    if stats is not None:
        k = max(len(marked), 1)
        stats.grover_iterations += math.ceil(math.pi / 4 * math.sqrt(n / k)) if n else 0
    return marked[0] if marked else None


def grover_count_exists(domain, marked, rng: np.random.Generator | None,
                        stats: QueryStats | None = None,
                        mode: str = "analytic", schedules: int = 1) -> bool:
    """Counting-flavored existence check with a fixed ``3 ceil(pi/4 sqrt(N))``
    iteration budget (success probability at least 5/6 per schedule);
    ``schedules`` independent repetitions push a miss probability of p down
    to p^schedules when a missed marked item is costly to the caller."""
    domain = list(domain)
    n = len(domain)
    if n == 0:
        return False
    budget = 3 * math.ceil(math.pi / 4.0 * math.sqrt(n))
    if mode == "analytic":
        if stats is not None:
            stats.grover_iterations += budget * schedules
        return bool(set(marked) & set(domain))
    for _ in range(schedules):
        if qsearch(domain, marked, rng, stats, max_iterations=budget) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# minimum finding (Durr-Hoyer)

_DH_BUDGET = 22.5


def dh_budget(n: int) -> int:
    return math.ceil(_DH_BUDGET * math.sqrt(max(n, 1))
                     + 1.4 * math.log2(max(n, 2)) ** 2)


def min_finding(values, rng: np.random.Generator | None = None,
                stats: QueryStats | None = None, reps: int = 2,
                mode: str = "sampling") -> int:
    """Index minimizing ``values`` (entries may be +inf) via the
    threshold-descent search: repeatedly Grover-search for an index with a
    value below the current pivot inside an ``O(sqrt(N))`` iteration
    budget.  One schedule succeeds with probability >= 1/2; ``reps``
    independent schedules keep the best candidate (>= 3/4 for reps = 2).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0 or not np.any(np.isfinite(values)):
        raise AllInfinite("no finite value in the search domain")
    if mode == "analytic":
        if stats is not None:
            stats.grover_iterations += reps * dh_budget(n)
        return int(np.argmin(values))

    domain = list(range(n))
    best: int | None = None
    for _ in range(reps):
        pivot = int(rng.integers(n))
        budget = dh_budget(n)
        start = stats.grover_iterations if stats is not None else 0
        local = QueryStats() if stats is None else stats
        while local.grover_iterations - start < budget:
            below = np.flatnonzero(values < values[pivot]).tolist()
            remaining = int(budget - (local.grover_iterations - start))
            found = qsearch(domain, below, rng, local, max_iterations=remaining)
            if found is None:
                break
            pivot = found
        if best is None or values[pivot] < values[best]:
            best = pivot
    return int(best)
