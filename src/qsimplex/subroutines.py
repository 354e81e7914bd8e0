"""The quantum simplex subroutines, composed from the simulated primitives.

Pipeline per iteration (normalize -> IsOptimal -> FindColumn ->
IsUnbounded -> FindRow -> pivot), with the sign-estimation gadgets doing
the heavy lifting:

* a Hadamard interference gadget turns the signed target amplitude
  ``alpha`` into the magnitude ``(1 + alpha)/2`` on ``|0>|k>`` (or
  ``(1 - alpha)/2`` on ``|1>|k>`` for the positive-sign variants), and
* amplitude estimation reads that magnitude out at a precision/threshold
  pairing tuned so one variant has no false negatives and the other no
  false positives near the decision boundary.

Variant bindings for the positive-sign tests are fixed by what the
consumers must be able to conclude: the unboundedness check needs its
0-return to certify "component below the tolerance", which requires the
fine (1/9-scaled) estimation window, while the ratio-test gate needs its
1-return to certify "denominator above delta/2", which the coarse window
delivers.

Cost accounting: a subroutine pays the price of one oracle application
per activation.  ``estimation_cost`` prices one estimation run over a
solver-prepared state (phase estimation plus ``2 * 2^bits + 1`` solver
invocations); the exact solutions behind them come once per basis from
``ScaledBasis.build`` and cost nothing.  ``_sweep`` returns the price of a
sweep's boosted application, and ``_charge`` adds it per Grover iteration
and confirmation; FindRow pays its gate on every row and an AE pair per
gated row, and its minimum finding's iterations carry no oracle charge.
Simulation-side draws that realize oracle decisions are bookkeeping.

Sweeps: IsOptimal and FindColumn apply CanEnter to every nonbasic column,
IsUnbounded and the FindRow gate a sign estimation to every row.  Every
amplitude an iteration reads -- the sweeps', FindColumn's confirmations
and FindRow's AE numerators and denominators -- comes from
``ScaledBasis.solutions`` through ``ScaledBasis.read``, the one place that
picks the error model of a solver read: a closed form under zero or worst
error, one fresh draw per prepared state under random error.  (The one
exception is ``norm_estimate``, which reads norms, not overlaps.)
Every boosted sign estimation is a ``_sign_votes`` call on an array of
amplitudes, decided in one array pass: analytic mode from the grid points
bracketing each phase and one ``ae_distribution`` call for the entries
straddling the threshold, sampling mode by mapping one ``rng.random`` draw
through one set of quantile tables (``_SampledVotes``), the same generator
stream as drawing entry by entry; one ``AEOutcome`` folds those runs and
tests them against the phase tolerance.  ``can_enter`` is the one pricing
read and vote: a sweep is its call on every column, a FindColumn
confirmation under random error its call on one column; a confirmation
whose state reads alike again draws through its sweep's tables instead.
FindRow's gate is a sweep too: sampling mode draws its m x reps block
first, then one (gated rows x [numerator, denominator]) block of AE
uniforms, which ``amplitude_estimation`` reads as one array, picking
``ae_readout`` or ``AEQuantiles`` by mode.

Each subroutine run owns its generator and counters; inputs are immutable,
so independent runs are safe to parallelize from the caller's side.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lp import BasisSingular, BasisState, LpInstance, ZeroColumn, normalize
from .primitives import (AEOutcome, AEQuantiles, AllInfinite, QueryStats,
                         _charge_pe, _phases, ae_distribution,
                         amplitude_estimation, grover_count_exists, min_finding,
                         qsearch, qsearch_analytic)
from .qlsa import IdealQlsa, read_amplitudes

SQRT3PI = math.sqrt(3.0) * math.pi


@dataclass(frozen=True)
class PrecisionParams:
    """Run parameters: eps (pricing, relative to the extended column norm),
    delta (feasibility), t (ratio-test precision multiplier), reps (odd
    majority-vote count boosting each bounded-error subroutine), eps_prime
    (spectral-norm margin: each basis is scaled to ``|A_B| = 1 -
    eps_prime`` for the QLSA)."""

    eps: float = 0.1
    delta: float = 0.1
    t: float = 100.0
    reps: int = 15
    eps_prime: float = 1e-4

    def __post_init__(self):
        if not 0 < self.eps <= 0.5:
            raise ValueError("eps must lie in (0, 1/2]")
        if not 0 < self.delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.reps < 1 or self.reps % 2 == 0:
            raise ValueError("reps must be odd and >= 1")
        if not 0 < self.eps_prime < 0.5:
            raise ValueError("eps_prime must lie in (0, 1/2)")


# ---------------------------------------------------------------------------
# sign estimation (the four gadget variants)

SIGN_EST_KINDS = ("nfn", "nfp", "nfn_plus", "nfp_plus")
_RULES = {"geq": np.greater_equal, "gt": np.greater, "leq": np.less_equal}


@dataclass(frozen=True)
class SignEstSpec:
    kind: str
    bits: int
    threshold: float
    tol: float            # phase accuracy achieved w.p. >= 3/4
    flipped: bool         # estimate |1>|k> (amplitude (1 - alpha)/2)
    rule: str             # comparison of the folded readout with threshold

    def decide(self, fold):
        """Mask of the folded readouts that lie on the accepting side of
        the threshold."""
        return _RULES[self.rule](fold, self.threshold)

    @property
    def alpha_boundary(self) -> float:
        """Decision threshold mapped back to amplitude units."""
        s = 2.0 * math.sin(math.pi * self.threshold)
        return s - 1.0 if not self.flipped else 1.0 - s


@functools.lru_cache(maxsize=64)
def sign_est_spec(eps: float, kind: str) -> SignEstSpec:
    """Bits/threshold table for the four routines.

    coarse: ``ceil(log2(sqrt(3) pi / eps)) + 2`` bits, threshold
    ``1/6 - 2 eps/(sqrt(3) pi)``; fine: ``ceil(log2(9 sqrt(3) pi/eps)) + 2``
    bits, threshold ``1/6 - 2 eps/(3 sqrt(3) pi)``.
    """
    if kind not in SIGN_EST_KINDS:
        raise ValueError(f"kind must be one of {SIGN_EST_KINDS}")
    if not 0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    coarse = kind in ("nfn", "nfp_plus")
    if coarse:
        bits = math.ceil(math.log2(SQRT3PI / eps)) + 2
        threshold = 1.0 / 6.0 - 2.0 * eps / SQRT3PI
        tol = eps / SQRT3PI
    else:
        bits = math.ceil(math.log2(9.0 * SQRT3PI / eps)) + 2
        threshold = 1.0 / 6.0 - 2.0 * eps / (3.0 * SQRT3PI)
        tol = eps / (9.0 * SQRT3PI)
    rule = {"nfn": "geq", "nfp": "gt", "nfn_plus": "leq", "nfp_plus": "leq"}[kind]
    return SignEstSpec(kind=kind, bits=bits, threshold=threshold,
                       tol=tol, flipped=kind.endswith("_plus"), rule=rule)


def _gadget_phase(alpha: np.ndarray, spec: SignEstSpec) -> tuple[np.ndarray, np.ndarray]:
    """Probability ``a`` the gadget hands to amplitude estimation for each
    amplitude of ``alpha``, and its phase theta in [0, 1/2]."""
    amp = (1.0 - alpha) / 2.0 if spec.flipped else (1.0 + alpha) / 2.0
    a = np.clip(amp, 0.0, 1.0) ** 2
    return a, _phases(a)


def _prob_one(alpha: np.ndarray, spec: SignEstSpec) -> np.ndarray:
    """Exact Pr[routine returns 1] of each amplitude of ``alpha`` (any
    shape), summed over the tables of all of them from one
    ``ae_distribution`` call."""
    a = _gadget_phase(alpha, spec)[0].ravel()
    y = np.arange(2 ** spec.bits)
    ones = spec.decide(np.minimum(y, y.size - y) / y.size)
    # the masked columns come back F-ordered; a C-ordered copy sums each
    # row as the table of its amplitude alone sums dist[ones]
    tables = np.ascontiguousarray(ae_distribution(a, spec.bits)[:, ones])
    return tables.sum(axis=-1).reshape(alpha.shape)


def sign_est_prob_one(alpha, eps: float, kind: str) -> np.ndarray:
    """Exact Pr[routine returns 1] of each amplitude of ``alpha``, shaped
    like it, from the analytic AE distributions."""
    return _prob_one(np.asarray(alpha, dtype=float), sign_est_spec(eps, kind))


# ---------------------------------------------------------------------------
# scaled per-iteration data


@dataclass
class ScaledBasis:
    """Scaled data bundle one iteration works with: ``|A_B| = 1 - eps'``
    with spectrum in [1/kappa, 1 - eps'], ``|c_B| = 1`` (the column scales in
    ``A_B^-1 A_k`` cancel, so directions are scale-free).

    ``domain`` lists, ascending, the nonbasic columns with a nonzero entry:
    the columns pricing can pick.  ``solutions`` holds every exact solution
    the iteration can read, for the matrix scale s: column i is ``A_B^-1 (s
    A_{domain[i]})`` and the last column is ``A_B^-1 (s b)``.  They solve
    ``Z = [A_domain | b]`` through the basis split the state carries
    (``BasisState.split``): its unit columns S, which cover the rows R, and
    its k other columns T, which cover the k rows U that no unit column
    covers: one k x k solve ``x_T = (s A[U, T])^-1 (s Z[U])``, then ``x_S =
    Z[R] - A[R, T] x_T``.  A basis without unit columns (k = m) is one dense
    m x m solve; the slack basis (k = 0) solves nothing.  Every read of a
    solver state comes from these through ``read``; the oracles charge, and
    draw random error: ``qlsa`` for the m x m system, ``qlsa_ext`` for the
    reduced-cost system extended by the cost row.
    """

    instance: LpInstance
    state: BasisState
    c: np.ndarray
    solutions: np.ndarray
    domain: tuple[int, ...]
    error_mode: str
    rng: np.random.Generator | None
    qlsa: IdealQlsa
    qlsa_ext: IdealQlsa

    @classmethod
    def build(cls, instance: LpInstance, basis,
              eps_prime: float = PrecisionParams.eps_prime,
              error_mode: str = "zero",
              rng: np.random.Generator | None = None) -> "ScaledBasis":
        state = basis if isinstance(basis, BasisState) else \
            normalize(instance, basis, eps_prime)
        dense = instance.dense()
        basic, m, s = np.array(state.basis), instance.m, state.matrix_scale
        in_domain = np.diff(instance.A.indptr) > 0
        in_domain[basic] = False
        domain = np.flatnonzero(in_domain)
        Z = np.column_stack([dense[:, domain], instance.b])
        S, T, R, U = state.split
        # row r_i of a unit column B_i reads x_i + A[r_i, T] x_T = Z[r_i],
        # and a row of U sees no unit column
        x = np.empty((m, domain.size + 1))
        x[S] = Z[R]
        if T.size:
            AT = dense[:, basic[T]]
            x[T] = np.linalg.solve(s * AT[U], s * Z[U])
            x[S] -= AT[R] @ x[T]
        return cls(instance=instance, state=state, c=state.cost_scale * instance.c,
                   solutions=x, domain=tuple(domain.tolist()),
                   error_mode=error_mode, rng=rng,
                   qlsa=IdealQlsa(m, state.kappa, state.sparsity, error_mode, rng),
                   qlsa_ext=IdealQlsa(m + 1, state.kappa, state.sparsity,
                                      error_mode, rng))

    def read(self, alpha0, eps_ls: float, threshold: float = 0.0,
             extended: bool = False, runs: int = 1):
        """What solver states at precision ``eps_ls`` give the unit
        functionals whose exact overlaps with the exact solution states are
        ``alpha0``: the closed form under zero or worst error (pushed toward
        ``threshold``), and under random error one fresh read per prepared
        state, from ``qlsa`` or, if ``extended``, ``qlsa_ext``.  With
        ``runs`` > 1 each entry prepares that many states, read along a
        trailing axis under random error; zero and worst error read them all
        alike, so the entry stands for all of them."""
        if self.error_mode != "random":
            return read_amplitudes(alpha0, eps_ls, self.error_mode, threshold)
        if runs > 1:
            alpha0 = np.repeat(np.asarray(alpha0)[..., None], runs, axis=-1)
        return (self.qlsa_ext if extended else self.qlsa).solve(alpha0, eps_ls)

    def position(self, k: int) -> int:
        """Where column k lies in ``domain`` and ``solutions`` (a sorted
        lookup); a basic column raises ``ValueError``, a zero one ``ZeroColumn``."""
        i = bisect.bisect_left(self.domain, k)
        if i < len(self.domain) and self.domain[i] == k:
            return i
        if k in self.state.basis:
            raise ValueError(f"column {k} is basic, so no subroutine reads its solution")
        if not 0 <= k < self.instance.n:
            raise IndexError(f"column {k} is out of range [0, {self.instance.n})")
        raise ZeroColumn(f"column {k} is zero")

    def direction(self, k: int) -> np.ndarray:
        """Exact ``A_B^-1 (s A_k)`` of a column k of ``domain``."""
        return self.solutions[:, self.position(k)]

    @property
    def basic_solution(self) -> np.ndarray:
        """Exact ``A_B^-1 (s b)``."""
        return self.solutions[:, -1]

    @functools.cached_property
    def cost_vector_gadget(self) -> np.ndarray:
        """|(-c_B, 1)> -- the functional whose overlap encodes the reduced cost."""
        w = np.concatenate([-self.c[list(self.state.basis)], [1.0]])
        return w / np.linalg.norm(w)

    @functools.cached_property
    def reduced_cost_amplitudes(self) -> np.ndarray:
        """``<w|(u_k, c_k)> / |(u_k, c_k)|`` for every column k of ``domain``
        in order, with ``w = |(-c_B, 1)>``: the exact amplitudes a pricing
        sweep reads, from one matrix-vector product."""
        ext = np.vstack([self.solutions[:, :-1], self.c[list(self.domain)]])
        return (self.cost_vector_gadget @ ext) / np.linalg.norm(ext, axis=0)

    def reduced_cost_scaled(self, k: int) -> float:
        """``c_bar_k / |(u_k, c_k)|`` of column k: ``|(-c_B, 1)|`` (``sqrt(2)``,
        or 1 when ``c_B = 0``) times its exact amplitude, from its own solution
        ``(u_k, c_k)`` of ``diag(A_B, 1)(x, y) = (s A_k, c_k)``."""
        x = np.append(self.direction(k), self.c[k])
        gadget_norm = 1.0 if self.state.cost_degenerate else math.sqrt(2.0)
        return float(self.cost_vector_gadget @ (x / np.linalg.norm(x))) * gadget_norm


def estimation_cost(qlsa: IdealQlsa, eps_ls: float, bits: int) -> QueryStats:
    """Cost of one estimation run over a solver-prepared state: phase
    estimation on ``bits`` bits plus ``2 * 2^bits + 1`` solver invocations
    at precision ``eps_ls`` (the preparation and its inverse inside each
    of the ``2^bits`` iterates, and the initial preparation)."""
    per = QueryStats()
    _charge_pe(per, bits)
    qlsa.charge(eps_ls, per, invocations=2.0 * 2 ** bits + 1.0)
    return per


def _ae_uniforms(rng: np.random.Generator | None, mode: str, shape):
    """The uniforms a sampled ``amplitude_estimation`` of ``shape``
    probabilities reads, one block from ``rng``; analytic mode draws none."""
    return rng.random(shape) if mode == "sampling" else None


# ---------------------------------------------------------------------------
# sweeps: one sign estimation per column or row


def _analytic_sign_values(alpha: np.ndarray, spec: SignEstSpec) -> np.ndarray:
    """Analytic boosted sign-estimation values of the amplitudes ``alpha``,
    in one array pass: the decision at the two grid points bracketing each
    ``theta M``, and where they straddle the threshold, ``Pr[1] >= 1/2``
    summed over the tables of all the straddling amplitudes at once
    (``_prob_one``)."""
    m_size = 2 ** spec.bits
    theta_m = _gadget_phase(alpha, spec)[1] * m_size
    values = spec.decide(np.floor(theta_m) / m_size).astype(int)
    straddling = values != spec.decide(np.ceil(theta_m) / m_size)
    if straddling.any():
        values[straddling] = _prob_one(alpha[straddling], spec) >= 0.5
    return values


class _SampledVotes:
    """Sampled boosted sign estimation on the amplitudes ``alpha``: their
    quantile tables, built for all of them in one ``AEQuantiles``, through
    which every run on those same states is drawn.  A 2-D ``alpha`` lists
    one amplitude per run, and each run is a row of its own."""

    def __init__(self, alpha: np.ndarray, spec: SignEstSpec):
        a, self.theta = _gadget_phase(alpha, spec)
        self.spec = spec
        self.tables = AEQuantiles(a, spec.bits)

    def __call__(self, rng: np.random.Generator, reps: int, rows=slice(None)):
        """(values, oks): the majority votes, and whether a majority of runs
        read within the phase tolerance, of ``reps`` runs on each entry
        ``rows`` of a 1-D ``alpha`` (on every entry of a 2-D one), from the
        uniforms ``rng.random((len(rows), reps))``: in C order the same
        stream as one ``rng.random(reps)`` call per entry."""
        theta = self.theta[rows]
        u = rng.random((theta.shape[0], reps))
        if theta.ndim == 1:
            y, theta = self.tables(u, rows), theta[:, None]
        else:
            y = self.tables(u.reshape(-1, 1)).reshape(u.shape)
        runs = AEOutcome(self.spec.bits, theta, y)
        majority = (reps + 1) // 2
        return ((self.spec.decide(runs.theta_est).sum(axis=-1) >= majority).astype(int),
                runs.within(self.spec.tol).sum(axis=-1) >= majority)


def _sign_votes(alpha: np.ndarray, eps_se: float, kind: str, reps: int,
                mode: str, rng: np.random.Generator | None):
    """(values, oks, votes): boosted sign estimation -- a reps-fold
    majority vote over independent runs -- on each amplitude of ``alpha``,
    as arrays in order; a 2-D ``alpha`` lists one amplitude per run, for
    runs that each prepare their own state.  Analytic mode decides them in
    one array pass (``_analytic_sign_values``; ``votes`` is None).
    Sampling mode draws them through ``votes``, the entries'
    ``_SampledVotes``, which later runs on the same states reuse.  Any
    other mode, or sampling without a generator, is a ValueError.

    When at least ``(reps + 1)/2`` runs landed within the phase tolerance
    (``oks``) and the majority decision is v, some in-tolerance run also
    voted v, so the single-run certificate for v transfers to the boosted
    output.  Uncharged: the caller prices the runs with
    ``estimation_cost``."""
    spec = sign_est_spec(eps_se, kind)
    if mode == "analytic":
        values = _analytic_sign_values(alpha, spec)
        return values, np.ones(values.shape, dtype=bool), None
    if mode != "sampling":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("sampling mode needs a generator")
    votes = _SampledVotes(alpha, spec)
    return (*votes(rng, reps), votes)


def _sweep(scaled: ScaledBasis, alpha0, eps_ls: float, eps_se: float, kind: str,
           reps: int, mode: str, rng: np.random.Generator | None,
           extended: bool = False, runs: int = 1):
    """(values, oks, votes, price): one boosted ``kind`` sign estimation at
    precision ``eps_se`` on each exact amplitude of ``alpha0``, read from
    ``runs`` solver states per entry at precision ``eps_ls`` (of the
    extended system if ``extended``; ``ScaledBasis.read``) and decided by
    ``_sign_votes``, and ``price``, the cost of one boosted application of
    this oracle: ``reps`` estimation runs (``estimation_cost``)."""
    spec = sign_est_spec(eps_se, kind)
    alpha = scaled.read(alpha0, eps_ls, spec.alpha_boundary, extended, runs)
    price = estimation_cost(scaled.qlsa_ext if extended else scaled.qlsa, eps_ls,
                            spec.bits).scaled(reps)
    return (*_sign_votes(alpha, eps_se, kind, reps, mode, rng), price)


def _charge(stats: QueryStats, price: QueryStats, search: QueryStats,
            confirmations: int = 0) -> None:
    """Add ``search``, the counters of one Grover search, to ``stats``, and
    charge ``price`` -- one boosted oracle application (``_sweep``) --
    once per activation: each Grover iteration the search ran, plus each
    confirmation of a candidate."""
    stats.add(search)
    stats.add(price.scaled(search.grover_iterations + confirmations))


# ---------------------------------------------------------------------------
# pricing (CanEnter / FindColumn / IsOptimal)


def can_enter(scaled: ScaledBasis, eps: float, reps: int = PrecisionParams.reps,
              variant: str = "nfn", mode: str = "analytic",
              rng: np.random.Generator | None = None, columns=slice(None)):
    """CanEnter on the columns ``scaled.domain[columns]`` (a slice or a
    list of positions), in order: the columns it fires on, whether every
    decision's tolerance flags held, the columns' ``_SampledVotes`` in
    sampling mode, and the price of one boosted application (``_sweep``).
    A column fires when its (rescaled) reduced cost is certified ``< -eps
    |(A_B^-1 A_k, c_k)|`` (``classical.pricing_terms``): the sign
    estimation at precision ``11 eps / (10 sqrt(2))`` returns 0.
    Uncharged: the caller charges the price per activation (``_charge``).

    The oracle solves the extended system ``diag(A_B, 1)(x, y) = (A_k,
    c_k)`` at precision ``eps/(10 sqrt(2))`` and reads off the all-zeros
    amplitude after un-preparing ``|(-c_B, 1)>``; that amplitude equals
    ``c_bar_k / (sqrt(2) |(A_B^-1 A_k, c_k)|)``, or ``c_bar_k / |(A_B^-1
    A_k, c_k)|`` when ``c_B = 0`` (``scaled.reduced_cost_amplitudes``), up
    to the solver error, pushed toward the variant's boundary under worst
    error.  A column prepares one state for its ``reps`` runs in analytic
    mode and one per run in sampling mode (``ScaledBasis.read``).

    variant "nfn" is the pricing default; "nfp" is the optimality-check
    variant (fires on everything at most ``-eps``, may fire inside the
    indecision window, which is exactly what IsOptimal needs).
    """
    values, oks, votes, price = _sweep(
        scaled, scaled.reduced_cost_amplitudes[columns], eps / (10.0 * math.sqrt(2.0)),
        11.0 * eps / (10.0 * math.sqrt(2.0)), {"nfn": "nfn", "nfp": "nfp"}[variant],
        reps, mode, rng, extended=True, runs=reps if mode == "sampling" else 1)
    domain = np.array(scaled.domain, dtype=int)[columns]
    return tuple(domain[values == 0].tolist()), bool(oks.all()), votes, price


@dataclass
class FindColumnResult:
    column: int | None
    ok: bool
    variant: str
    marked: tuple[int, ...]
    decisions_ok: bool
    stats: QueryStats = field(default_factory=QueryStats)
    reduced_cost_scaled: float | None = None  # c_bar/|(u, c_k)| at the pick


def find_column(scaled: ScaledBasis, eps: float, reps: int = PrecisionParams.reps,
                mode: str = "analytic", rng: np.random.Generator | None = None,
                stats: QueryStats | None = None, variant: str = "nfn",
                recover_with_nfp: bool = True) -> FindColumnResult:
    """Grover QSearch over the nonbasic columns for one with certified
    negative reduced cost.

    Marked-set realization: each column's boosted CanEnter decision is
    drawn once per run (bounded-error oracle realization), the QSearch
    dynamics run against that set, and the measured candidate is confirmed
    by a fresh boosted call whose tolerance flags become the run's success
    indicator.  A NotFound under the "nfn" variant retries once with the
    "nfp" variant, which recovers the case of every reduced cost sitting
    inside the indecision window.
    """
    stats = stats if stats is not None else QueryStats()
    marked, all_ok, votes, price = can_enter(scaled, eps, reps, variant, mode, rng)
    confirm_ok = True
    confirms = 0
    search = QueryStats()
    if mode == "analytic":
        found = qsearch_analytic(scaled.domain, marked, search)
        confirms = 1 if found is not None else 0
    else:
        def confirm(idx: int) -> bool:
            nonlocal confirm_ok, confirms
            confirms += 1
            if scaled.error_mode != "random":  # zero/worst error read a state alike again
                values, oks = votes(rng, reps, [scaled.position(idx)])
                confirm_ok = bool(oks[0])
                return bool(values[0] == 0)
            fired, confirm_ok, _, _ = can_enter(scaled, eps, reps, variant, mode, rng,
                                                columns=[scaled.position(idx)])
            return bool(fired)

        found = qsearch(scaled.domain, marked, rng, search, confirm=confirm)
    _charge(stats, price, search, confirms)

    if found is None and variant == "nfn" and recover_with_nfp:
        return find_column(scaled, eps, reps, mode, rng, stats, variant="nfp",
                           recover_with_nfp=False)
    return FindColumnResult(column=found, ok=confirm_ok and found is not None,
                            variant=variant, marked=marked, decisions_ok=all_ok,
                            stats=stats,
                            reduced_cost_scaled=(scaled.reduced_cost_scaled(found)
                                                 if found is not None else None))


@dataclass(frozen=True)
class IsOptimalResult:
    value: int
    ok: bool
    marked: tuple[int, ...]


def is_optimal(scaled: ScaledBasis, eps: float, reps: int = PrecisionParams.reps,
               mode: str = "analytic", rng: np.random.Generator | None = None,
               stats: QueryStats | None = None) -> IsOptimalResult:
    """Counting-Grover existence check over CanEnter with the "nfp"
    sign-estimation variant: returns 1 only when no nonbasic column fires,
    which certifies no column has scaled reduced cost <= -eps.

    An empty nonbasic set is trivially optimal.  The iteration budget is
    the fixed ``3 ceil(pi/4 sqrt(n))`` schedule.
    """
    stats = stats if stats is not None else QueryStats()
    if not scaled.domain:
        return IsOptimalResult(value=1, ok=True, marked=())
    marked, ok, _, price = can_enter(scaled, eps, reps, "nfp", mode, rng)
    search = QueryStats()
    exists = grover_count_exists(scaled.domain, marked, rng, search, mode)
    _charge(stats, price, search)
    return IsOptimalResult(value=int(not exists), ok=ok, marked=marked)


# ---------------------------------------------------------------------------
# unboundedness check and ratio test


@dataclass(frozen=True)
class IsUnboundedResult:
    value: int
    ok: bool
    marked_rows: tuple[int, ...]


def is_unbounded(scaled: ScaledBasis, k: int, delta: float, reps: int = PrecisionParams.reps,
                 mode: str = "analytic", rng: np.random.Generator | None = None,
                 stats: QueryStats | None = None) -> IsUnboundedResult:
    """1 when no component of ``A_B^-1 A_k`` rises above the delta
    threshold: solve at precision delta/10, test each row with the fine
    positive-sign estimation at 9 delta/10 (its 0-return certifies the
    component is below the tolerance), and Grover-count for any firing row.
    """
    stats = stats if stats is not None else QueryStats()
    u = scaled.direction(k)
    # each component u_h/|u| is read from a state prepared for its row
    values, oks, _, price = _sweep(scaled, u / np.linalg.norm(u), delta / 10.0,
                                   9.0 * delta / 10.0, "nfn_plus", reps, mode, rng)
    marked = tuple(np.flatnonzero(values == 1).tolist())
    search = QueryStats()
    # a missed marked row turns into a terminal (false) unbounded verdict,
    # so the counting schedule is repeated; each repetition keeps the fixed
    # 3 ceil(pi/4 sqrt(m)) budget
    exists = grover_count_exists(list(range(scaled.instance.m)), marked, rng, search,
                                 mode, schedules=3)
    _charge(stats, price, search)
    return IsUnboundedResult(value=int(not exists), ok=bool(oks.all()), marked_rows=marked)


@dataclass
class FindRowResult:
    row: int | None
    ok: bool
    failure: str | None
    gated: tuple[int, ...]
    ratio_estimates: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def find_row(scaled: ScaledBasis, k: int, delta: float, t: float,
             reps: int = PrecisionParams.reps, mode: str = "analytic",
             rng: np.random.Generator | None = None,
             stats: QueryStats | None = None) -> FindRowResult:
    """Approximate ratio-test minimizer (the leaving row).

    Builds solution states for ``A_B y = b`` and ``A_B y = A_k`` at
    precision ``delta/(16 t)``, estimates the two components of every row
    with amplitude estimation at phase precision ``delta/(16 pi t)``, and
    minimizes the estimated ratio over the rows whose denominator passes
    the coarse positive-sign gate at delta/2 (its 1-return certifies the
    scaled component exceeds delta/2).  The returned row satisfies the
    ``(2t+1)/(2t-1)`` relative plus ``2/(2t-1)`` absolute bound against the
    delta-thresholded classical minimum whenever the run's tolerance flags
    hold.  Raw estimates are used as-is (no flooring): a zero denominator
    readout gives an infinite ratio for that row.  Each row's numerator and
    denominator are read from states of their own; worst error pushes both
    toward 0.
    """
    stats = stats if stats is not None else QueryStats()
    m = scaled.instance.m
    u = scaled.direction(k)
    if not np.any(scaled.instance.b):
        raise ZeroColumn("right-hand side b is zero")
    x = scaled.basic_solution
    x_norm = float(np.linalg.norm(x))
    u_norm = float(np.linalg.norm(u))
    eps_ls = delta / (16.0 * t)
    nu = delta / (16.0 * math.pi * t)
    ae_bits = math.ceil(math.log2(1.0 / nu)) + 2
    num_amps = scaled.read(x / x_norm, eps_ls)
    den_amps = scaled.read(u / u_norm, eps_ls)
    gate_values, gate_oks, _, gate_cost = _sweep(scaled, u / u_norm, delta / 2.0,
                                                 delta / 2.0, "nfp_plus", reps, mode, rng)
    rows = np.flatnonzero(gate_values == 1)
    # a (gated rows x [numerator, denominator]) readout, drawn after the gate
    ae = amplitude_estimation(np.stack([num_amps[rows], den_amps[rows]], axis=-1) ** 2,
                              ae_bits, mode, _ae_uniforms(rng, mode, (rows.size, 2)))
    # every row's gate is estimated; each gated row's two components too
    stats.add(gate_cost.scaled(m))
    stats.add(estimation_cost(scaled.qlsa, eps_ls, ae_bits).scaled(2 * rows.size))
    all_ok = bool(gate_oks.all() and ae.within(nu).all())
    num, den = ae.amp_est.T
    ratios = np.full(m, np.inf)
    ratios[rows] = np.divide(num, den, out=np.full(rows.size, np.inf), where=den > 0)

    gated = tuple(rows.tolist())
    if not gated or not np.any(np.isfinite(ratios)):
        return FindRowResult(
            row=None, ok=all_ok, failure="no_positive_denominator",
            gated=gated, ratio_estimates=ratios)
    row = min_finding(ratios, rng=rng, stats=stats, mode=mode)
    all_ok = all_ok and ratios[row] == ratios[np.argmin(ratios)]
    # the AE quotient estimates the normalized ratio (x_h/|x|)/(u_h/|u|);
    # report the unscaled ratio-test value alongside it
    return FindRowResult(row=int(row), ok=all_ok, failure=None,
                         gated=gated, ratio_estimates=ratios,
                         diagnostics={"ratio_unscaled":
                                      float(ratios[row]) * (x_norm / u_norm)})


# ---------------------------------------------------------------------------
# Frobenius norm estimation (tolerance characterization)


@dataclass(frozen=True)
class NormEstimateResult:
    rho: float              # estimate of |A_Bscaled^-1 A_N|_F^2
    exact: float            # dense-oracle truth for the same quantity
    ok: bool


def norm_estimate(scaled: ScaledBasis, eps: float, mode: str = "analytic",
                  rng: np.random.Generator | None = None,
                  stats: QueryStats | None = None) -> NormEstimateResult:
    """Estimate ``|A_B^-1 A_N|_F^2`` (scaled basis) to relative error eps.

    The right-hand-side oracle prepares the Frobenius-weighted column
    superposition; the solver's auxiliary register succeeds with
    probability ``|A~_B^-1 A_N|_F^2 / (alpha^2 |A_N|_F^2)``, which
    amplitude estimation reads out at phase precision ``eps/(4 pi alpha^2)``.
    ``alpha`` is the solver's internal normalization, here kappa (an upper
    bound on ``|A_B^-1|`` after scaling, so the success amplitude stays
    <= 1).  The solver error shifts each column's norm by ``eps_ls`` times
    the column norm: outward under worst error, by a fair sign under
    random error.  A norm is no overlap with a unit functional, so
    ``ScaledBasis.read``'s closed forms do not apply to it.
    """
    stats = stats if stats is not None else QueryStats()
    alpha = scaled.state.kappa
    eps_ls = eps / (2.0 * scaled.instance.n)
    if not scaled.domain:
        raise ZeroColumn("no nonzero column to estimate over")

    col_norms = np.array([np.linalg.norm(scaled.instance.column(j)) for j in scaled.domain])
    # solutions hold A_B^-1 (s A_j); the estimated norm is of A_B^-1 A_j
    sol_norms = (np.linalg.norm(scaled.solutions[:, :-1], axis=0)
                 / scaled.state.matrix_scale)
    exact = float((sol_norms ** 2).sum())
    if scaled.error_mode == "worst":
        tilde = sol_norms + eps_ls * col_norms
    elif scaled.error_mode == "random":
        signs = scaled.rng.choice([-1.0, 1.0], size=len(scaled.domain))
        tilde = sol_norms + signs * eps_ls * col_norms
    else:
        tilde = sol_norms
    fro2 = float((col_norms ** 2).sum())
    p = float((tilde ** 2).sum() / (alpha ** 2 * fro2))
    p = min(p, 1.0)

    nu = eps / (4.0 * math.pi * alpha ** 2)
    bits = math.ceil(math.log2(1.0 / nu)) + 2
    outcome = amplitude_estimation(p, bits, mode, _ae_uniforms(rng, mode, 1))
    stats.add(estimation_cost(scaled.qlsa, eps_ls, bits))
    rho = outcome.amp_est ** 2 * alpha ** 2 * fro2
    return NormEstimateResult(rho=float(rho), exact=exact, ok=bool(outcome.within(nu)))


# ---------------------------------------------------------------------------
# one simplex iteration and the solve loop


@dataclass
class IterationOutcome:
    """Result of one SimplexIter: Optimal | Unbounded | Pivot(k, row) |
    Failure(kind), plus query counters and cross-check diagnostics; a
    failure names its reason in ``diagnostics["failure"]``."""

    status: str
    entering: int | None = None
    leaving_row: int | None = None
    ok: bool = True
    kappa: float = 0.0
    stats: QueryStats = field(default_factory=QueryStats)
    diagnostics: dict = field(default_factory=dict)


def simplex_iter(instance: LpInstance, basis, params: PrecisionParams,
                 mode: str = "analytic", error_mode: str = "zero",
                 rng: np.random.Generator | None = None) -> IterationOutcome:
    """One full iteration: normalize, IsOptimal, FindColumn, IsUnbounded,
    FindRow.  An IsOptimal = 1 verdict is only trusted after the
    "nfp"-variant FindColumn re-check comes back empty (the recovery
    for the indecision window between -2.2 eps and -eps); conversely a
    FindColumn miss under "nfn" retries with "nfp" before declaring the
    basis numerically optimal.
    """
    scaled = ScaledBasis.build(instance, basis, eps_prime=params.eps_prime,
                               error_mode=error_mode, rng=rng)
    stats = QueryStats()
    opt = is_optimal(scaled, params.eps, params.reps, mode, rng, stats)
    diag: dict = {"is_optimal": opt.value}
    if opt.value == 1:
        recheck = find_column(scaled, params.eps, params.reps, mode, rng, stats,
                              variant="nfp", recover_with_nfp=False)
        if recheck.column is None:
            return IterationOutcome("optimal", ok=opt.ok, kappa=scaled.state.kappa,
                                    stats=stats, diagnostics=diag)
        fc = recheck
        diag["is_optimal_overridden"] = True
    else:
        fc = find_column(scaled, params.eps, params.reps, mode, rng, stats,
                         variant="nfn")
        if fc.column is None:
            diag["pricing_not_found"] = True
            return IterationOutcome("optimal", ok=fc.decisions_ok,
                                    kappa=scaled.state.kappa, stats=stats,
                                    diagnostics=diag)
    k = fc.column
    diag["entering_variant"] = fc.variant
    diag["reduced_cost_scaled_estimate"] = fc.reduced_cost_scaled
    ub = is_unbounded(scaled, k, params.delta, params.reps, mode, rng, stats)
    if ub.value == 1:
        return IterationOutcome("unbounded", entering=k, ok=fc.ok and ub.ok,
                                kappa=scaled.state.kappa, stats=stats,
                                diagnostics=diag)
    fr = find_row(scaled, k, params.delta, params.t, params.reps, mode, rng, stats)
    if fr.row is None:
        diag["failure"] = fr.failure
        return IterationOutcome("failure", entering=k,
                                ok=fc.ok and ub.ok and fr.ok,
                                kappa=scaled.state.kappa, stats=stats,
                                diagnostics=diag)
    diag["ratio_estimate"] = float(fr.ratio_estimates[fr.row])
    diag["ratio_estimate_unscaled"] = fr.diagnostics.get("ratio_unscaled")
    return IterationOutcome("pivot", entering=k, leaving_row=fr.row,
                            ok=fc.ok and ub.ok and fr.ok,
                            kappa=scaled.state.kappa, stats=stats,
                            diagnostics=diag)


@dataclass
class QuantumSolveResult:
    status: str             # "optimal" | "unbounded" | "failure" | "cap"
    basis: tuple[int, ...]
    iterations: int
    objective: float | None
    stats: QueryStats
    outcomes: list[IterationOutcome] = field(default_factory=list)
    failure: str | None = None  # the last iteration's reason, on "failure"


# the numerical dead ends a solve reports as a failure; anything else is a
# programming error and propagates
NUMERICAL_DEAD_ENDS = (BasisSingular, ZeroColumn, AllInfinite, np.linalg.LinAlgError)


def solve_quantum(instance: LpInstance, start_basis, params: PrecisionParams,
                  mode: str = "analytic", error_mode: str = "zero",
                  seed: int = 0, max_iters: int | None = None) -> QuantumSolveResult:
    """Drive simplex_iter to termination from a feasible start basis."""
    basis = list(start_basis)
    rng = np.random.default_rng(seed)
    cap = max_iters if max_iters is not None else 50 * (instance.m + instance.n)
    total = QueryStats()
    outcomes: list[IterationOutcome] = []
    status = "cap"
    failure = None
    for _ in range(cap):
        tick = time.perf_counter()
        try:
            out = simplex_iter(instance, basis, params, mode, error_mode, rng)
        except NUMERICAL_DEAD_ENDS as exc:
            out = IterationOutcome("failure", ok=False,
                                   diagnostics={"failure": repr(exc)})
        out.diagnostics["elapsed_ms"] = (time.perf_counter() - tick) * 1e3
        total.add(out.stats)
        outcomes.append(out)
        if out.status == "pivot":
            basis[out.leaving_row] = out.entering
            continue
        status = out.status
        failure = out.diagnostics.get("failure")
        break
    objective = None
    if status == "optimal":
        from .classical import basic_solution
        x = basic_solution(instance, basis)
        objective = float(instance.c[list(basis)] @ x)
    return QuantumSolveResult(status=status, basis=tuple(basis),
                              iterations=len(outcomes), objective=objective,
                              stats=total, outcomes=outcomes, failure=failure)
