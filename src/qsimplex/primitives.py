"""Quantum primitive simulations: phase estimation, amplitude estimation,
Grover QSearch, and minimum finding, with exact outcome distributions.

Every kernel table comes from one builder, ``ae_distribution``: a vector
of probabilities gives one table row per probability from one kernel
pass, each row bit-identical to the table of its probability alone.  Two
execution modes run through everything:

* analytic -- outcome distributions are evaluated in closed form from the
  simulated state (the standard phase-estimation kernel), so tests are
  deterministic; amplitude-estimation readouts are the most likely grid
  points, read for a whole vector of probabilities from the kernel at the
  two grid points bracketing each true phase (``ae_readout``), with tables
  built only for the rows where those two tie;
* sampling -- outcomes are drawn from those same distributions with a
  seeded generator, which is statistically identical to measuring the
  full statevector circuit (the circuit simulation in the test suite's
  ``tests/oracles.py`` builds the honest circuit distribution for
  cross-checks); amplitude-estimation draws invert the same uniforms
  through the same cumulative distributions as ``rng.choice`` on the
  tables, for a whole vector of probabilities in one array pass
  (``AEQuantiles``): up to 9 bits from the tables themselves, above that
  from the kernel near its two peaks plus closed-form sums of the tails
  between them, building tables only for the rows with a uniform too
  close to an interval end to decide.

Amplitude estimation has one readout path.  The phase theta = asin(sqrt
a)/pi has one formula (``_phases``), which every kernel, readout and
tolerance test reads.  ``amplitude_estimation`` reads an array of
probabilities of any shape, and is the one place that picks
``ae_readout`` or ``AEQuantiles``.  It returns an ``AEOutcome``: the
readouts folded once to phases in [0, 1/2], and the one phase-tolerance
test, which the sampled sign votes use too.

Query accounting conventions (one call of phase estimation on ``t`` bits,
``M = 2^t``): ``M`` controlled powers of the walk/Grover operator are
charged as ``M`` controlled-U calls and ``2M`` U-calls (operator and
inverse inside each iterate) and ``t^2`` basic gates for the inverse QFT;
the state preparations inside the iterates are charged by the caller
(``subroutines.estimation_cost``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    # the instance dict holds exactly the counters, in field order
    def add(self, other: "QueryStats") -> None:
        mine, theirs = self.__dict__, other.__dict__
        for name in mine:
            mine[name] += theirs[name]

    def scaled(self, factor: float) -> "QueryStats":
        return QueryStats(*[value * factor for value in self.__dict__.values()])

    def as_dict(self) -> dict:
        return dict(self.__dict__)


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


def _phases(a) -> np.ndarray:
    """Phase theta in [0, 1/2] with ``sin(pi theta) = sqrt(a)`` of each
    probability of ``a`` (clipped to [0, 1]), shaped like it: the one
    formula every kernel, readout and tolerance test reads theta from."""
    return np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0))) / math.pi


def ae_distribution(a, bits: int) -> np.ndarray:
    """Exact amplitude-estimation outcome distribution for target
    probability ``a``: the equal mixture of the phase-estimation kernels at
    ``theta`` and ``1 - theta``.  A vector of probabilities gives one row
    per probability from one kernel pass; each row is the table of its
    probability alone, bit for bit (sums and running sums along a row of a
    C-ordered array round as they do on one row)."""
    M = 2 ** bits
    theta = _phases(a)
    p = _fejer(np.stack([theta, -theta])[..., None], np.arange(M), M)
    p /= p.sum(axis=-1, keepdims=True)
    return 0.5 * (p[0] + p[1])


def ae_readout(a, bits: int) -> np.ndarray:
    """Most likely readout of ``ae_distribution(a, bits)``, folded to
    [0, M/2] (M = 2^bits), from the two grid points bracketing ``theta M``;
    one readout per probability of ``a``, shaped like it.

    Together they carry at least 8/pi^2 of the kernel at theta, and the
    nearer one alone at least 4/pi^2 (Brassard-Hoyer-Mosca-Tapp); every
    other point of [0, M/2] lies at least one step from both kernel peaks
    (theta and -theta), where each kernel is below 1/8, so the maximum is
    one of the two.  When two
    distinct points agree to 1e-9 relative (``theta M`` a half-integer,
    say), rounding decides the argmax, which is then read off the tables
    of those probabilities.
    """
    M = 2 ** bits
    theta = _phases(a)[..., None]
    y = np.concatenate([np.floor(theta * M), np.ceil(theta * M)], axis=-1).astype(np.int64)
    p = _fejer(theta, y, M) + _fejer(-theta, y, M)
    lo, hi = p[..., 0], p[..., 1]
    read = np.where(hi > lo, y[..., 1], y[..., 0])
    tied = (y[..., 0] < y[..., 1]) & (np.minimum(lo, hi) >= np.maximum(lo, hi) * (1.0 - 1e-9))
    if tied.any():
        exact = ae_distribution(np.asarray(a, dtype=float)[tied], bits).argmax(axis=-1)
        read[tied] = np.minimum(exact, M - exact)
    return read


# Sampled readouts (``AEQuantiles``).  Above _AE_POINTS grid points the
# kernel is evaluated on +-_AE_WINDOW grid points around each of its two
# peaks; the tails between them hold about 2/(pi^2 _AE_WINDOW) ~ 0.16% of the
# mass, and a uniform that lands there is inverted through the table.
# _AE_MARGIN bounds the distance between the windowed and the table's
# cumulative sums (see ``AEQuantiles``).
_AE_WINDOW = 128
_AE_POINTS = 2 * (2 * _AE_WINDOW + 1)  # the most grid points two windows hold
_AE_MARGIN = 1e-9

# Euler-Maclaurin weights B_2j/(2j)! for j = 1, 2, 3, and the derivatives
# of orders 1, 3, 5 of csc^2 x as polynomials in C = cot x (coefficients of
# C, C^3, C^5, C^7), from P_0 = 1 + C^2, P_(n+1) = -(1 + C^2) dP_n/dC
_EM_TERMS = ((1, 1.0 / 12.0, (-2.0, -2.0, 0.0, 0.0)),
             (3, -1.0 / 720.0, (-16.0, -40.0, -24.0, 0.0)),
             (5, 1.0 / 30240.0, (-272.0, -1232.0, -1680.0, -720.0)))


def _kernel_gap_sums(peaks, starts, ends, M: int, s2) -> np.ndarray:
    """Sums of the phase-estimation kernels peaked at grid positions
    ``peaks[..., j]``, ``s2 / (M^2 sin^2(pi (y - peak)/M))`` with
    ``s2 = sin^2(pi M theta)``, over the grid points ``starts[..., i] ..
    ends[..., i]`` of each gap (inclusive, nonempty), none of which holds a
    peak; shape ``(..., peak, gap)``, with ``s2`` given per leading index.

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
    starts = np.asarray(starts)[..., None, :]
    ends = np.asarray(ends)[..., None, :]
    # shift a peak by a period where needed, so each gap lies in (peak, peak + M)
    peaks = np.asarray(peaks, dtype=float)[..., None] % M
    peaks = np.where(peaks > ends, peaks - M, peaks)
    cot = 1.0 / np.tan(h * (np.stack([starts, ends]) - peaks))
    c2 = cot * cot
    odd_part = cot * (odd[0] + c2 * (odd[1] + c2 * (odd[2] + c2 * odd[3])))
    # (1 + C^2)/2 at both ends; the odd part enters with + at a gap's start, - at its end
    s2 = np.asarray(s2)[..., None, None]
    return s2 / M ** 2 * ((1.0 + c2).sum(axis=0) / 2.0 + odd_part[0] - odd_part[1])


class AEQuantiles:
    """Readouts of ``ae_distribution(a[i], bits)`` for uniforms in [0, 1),
    for every probability of a vector ``a`` at one ``bits``, under the map
    ``rng.choice`` applies to a table ``p``: ``cdf = p.cumsum(); cdf /=
    cdf[-1]; cdf.searchsorted(u, side="right")``.  Building draws nothing;
    calling maps row i of a uniform array through probability ``a[i]`` (or
    ``a[rows[i]]``).

    Up to ``_AE_POINTS`` grid points (M = 2^bits) the tables themselves are
    built, all rows in one ``ae_distribution`` pass; their cumulative sums
    run along the last axis, as a single table's do.  Above that, each row
    holds the kernel (bit-identically to the table) on the windows of
    +-``_AE_WINDOW`` grid points around theta M and M - theta M, merged
    where they overlap or wrap past 0 or M, padded to ``_AE_POINTS``, and
    its sums in closed form over the gaps between them
    (``_kernel_gap_sums``).  These cumulative sums differ from the table's
    by at most:

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
    gets that interval's grid point.  A row with a uniform within the
    margin of an interval end or in a gap, and every row when ``M 2^-51``
    exceeds the margin, is mapped through its table.
    """

    def __init__(self, a, bits: int):
        self.a = np.array(a, dtype=float).ravel()
        self.bits = bits
        M = 2 ** bits
        if M <= _AE_POINTS:
            self.mass = ae_distribution(self.a, bits)
            self.cum = self.mass.cumsum(axis=-1)
            self.cum /= self.cum[:, -1:]
            self.points = np.broadcast_to(np.arange(M), self.mass.shape)
            self.sizes = np.full(self.a.size, M)
            self.margin = -math.inf  # the tables decide every uniform
            return
        theta = _phases(self.a)
        W = _AE_WINDOW
        c = np.round(theta * M).astype(int)  # the peaks' nearest grid points are c and M - c
        wrap = c <= W  # both windows wrap past 0 and M, where they merge
        merge = ~wrap & (M - c - W <= c + W + 1)  # they merge at M/2 (window 1 empty)
        lo0 = np.where(wrap, 0, c - W)
        hi0 = np.where(merge, M - c + W, c + W)
        lo1 = np.where(merge, M, M - c - W)
        hi1 = np.where(wrap | merge, M - 1, M - c + W)
        # the gaps before, between and after the windows, possibly empty
        starts = np.stack([np.zeros_like(c), hi0 + 1, hi1 + 1], axis=-1)
        ends = np.stack([lo0 - 1, lo1 - 1, np.full_like(c, M - 1)], axis=-1)
        full = starts <= ends
        row = np.nonzero(full)[0]
        s2 = np.sin(math.pi * (theta * M - c)) ** 2
        gaps = np.zeros(starts.shape)
        gaps[full] = 0.5 * _kernel_gap_sums(
            np.stack([theta * M, M - theta * M], axis=-1)[row],
            starts[full][:, None], ends[full][:, None], M, s2[row]).sum(axis=-2)[:, 0]
        n0 = (hi0 - lo0 + 1)[:, None]
        j = np.arange(_AE_POINTS)
        first = j < n0
        self.points = np.where(first, lo0[:, None] + j, lo1[:, None] + j - n0)
        self.sizes = n0[:, 0] + hi1 - lo1 + 1
        self.mass = 0.5 * _fejer(np.stack([theta, -theta])[:, :, None],
                                 self.points, M).sum(axis=0)
        # cumulative mass at the end of each window point, gaps included
        self.cum = np.cumsum(self.mass, axis=-1) + np.where(
            first, gaps[:, :1], gaps[:, :1] + gaps[:, 1:2])
        self.cum[j >= self.sizes[:, None]] = math.inf  # padding
        self.margin = _AE_MARGIN if M * 2.0 ** -51 <= _AE_MARGIN else math.inf

    def __call__(self, u: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Readouts of the uniforms ``u[i, :]``, each through the table of
        ``a[rows][i]``."""
        cum, mass = self.cum[rows], self.mass[rows]
        # one searchsorted per row: exact, and cheaper than comparing every
        # uniform with every point of its row
        k = np.array([row.searchsorted(v, side="right") for row, v in zip(cum, u)],
                     dtype=np.intp).reshape(u.shape)
        k = np.minimum(k, self.sizes[rows][:, None] - 1)
        r = np.arange(k.shape[0])[:, None]
        end = cum[r, k]
        start = end - mass[r, k]
        y = self.points[rows][r, k]
        # undecided: u beyond the last window point, in a gap, or near an end
        decided = (u - start >= self.margin) & (end - u >= self.margin)
        for i in np.flatnonzero(~decided.all(axis=-1)):  # rng.choice's map on row i's table
            cdf = ae_distribution(self.a[rows][i], self.bits).cumsum()
            y[i] = (cdf / cdf[-1]).searchsorted(u[i], side="right")
        return y


@dataclass
class AEOutcome:
    """Amplitude-estimation readouts ``y`` on ``bits`` bits of probabilities
    whose phases are ``theta_true`` (arrays that broadcast together).  Each
    readout is folded once, on construction, to the phase ``theta_est`` in
    [0, 1/2]: theta and 1 - theta are the two eigenphase branches of the
    Grover operator and carry the same amplitude.  ``within`` is the one
    phase-tolerance test of a readout."""

    bits: int
    theta_true: np.ndarray
    y: np.ndarray
    theta_est: np.ndarray = field(init=False)

    def __post_init__(self):
        M = 2 ** self.bits
        self.theta_est = np.minimum(self.y, M - self.y) / M

    @property
    def amp_est(self) -> np.ndarray:
        return np.sin(math.pi * self.theta_est)

    def within(self, tol: float) -> np.ndarray:
        return np.abs(self.theta_est - self.theta_true) <= tol + 1e-15


def amplitude_estimation(a, bits: int, mode: str = "analytic", u=None) -> AEOutcome:
    """Estimate the amplitudes ``sqrt(a)`` of target states with the
    probabilities ``a`` (any shape) with ``bits`` qubits of phase accuracy:
    the one place that picks how a readout is made.  Uncharged: the caller
    prices the runs with ``estimation_cost``.

    Analytic mode reads out the most likely grid point of each exact
    outcome distribution with ``ae_readout``, folded to [0, M/2] (the fold,
    and with it ``theta_est``, is the table's argmax); sampling mode maps
    the uniforms ``u``, one per probability in C order, through one
    ``AEQuantiles``: the index that ``rng.choice`` on each table gives for
    the generator that drew them, building tables only for the rare
    undecided draws.
    """
    theta = _phases(a)
    if mode == "analytic":
        y = ae_readout(a, bits)
    elif mode == "sampling":
        y = AEQuantiles(a, bits)(np.reshape(u, (-1, 1)))[:, 0].reshape(np.shape(theta))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return AEOutcome(bits, theta, y)


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
_DH_REPS = 2  # independent threshold-descent schedules per minimum finding


def dh_budget(n: int) -> int:
    return math.ceil(_DH_BUDGET * math.sqrt(max(n, 1))
                     + 1.4 * math.log2(max(n, 2)) ** 2)


def min_finding(values, rng: np.random.Generator | None = None,
                stats: QueryStats | None = None, mode: str = "sampling") -> int:
    """Index minimizing ``values`` (entries may be +inf) via the
    threshold-descent search: repeatedly Grover-search for an index with a
    value below the current pivot inside an ``O(sqrt(N))`` iteration
    budget.  One schedule succeeds with probability >= 1/2; ``_DH_REPS``
    = 2 independent schedules keep the best candidate (>= 3/4).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0 or not np.any(np.isfinite(values)):
        raise AllInfinite("no finite value in the search domain")
    if mode == "analytic":
        if stats is not None:
            stats.grover_iterations += _DH_REPS * dh_budget(n)
        return int(np.argmin(values))

    domain = list(range(n))
    best: int | None = None
    for _ in range(_DH_REPS):
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
