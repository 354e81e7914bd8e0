"""Property suites for the stated precision/probability guarantees.

Each suite checks one family of claims (phase-estimation accuracy, the
sign-estimation classifier bounds, pricing soundness, the ratio-test
error bound, unboundedness soundness, norm estimation, query-count
scaling, end-to-end optimality, the column-splitting formulas) and
returns a ``SuiteResult`` with one printable line per sub-check.
``cmd_verify`` runs them with its defaults; the acceptance tests call them
with the pinned acceptance parameters.

Success conditioning: the probabilistic guarantees are proved on the
event that every amplitude-estimation readout lands within its phase
tolerance and the solver flag is up.  Runs record exactly those
indicators, so the suites can verify the deterministic implication on
flagged runs and the >= 3/4 rates separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import (OPTIMAL_FACTOR, PRICING_FACTOR, basic_solution,
                        direction, pricing_terms, ratio_test, reduced_costs,
                        solve_classical)
from .costmodel import column_split, quantum_pricing_cost, split_threshold
from .instances import (random_bounded_lp, random_lp, random_unbounded_lp,
                        ratio_test_triple)
from .lp import LpInstance, slack_identity_basis
from .primitives import (QueryStats, _charge_pe, extra_qubits,
                         pe_outcome_distribution, qsearch)
from .subroutines import (PrecisionParams, ScaledBasis, find_column, find_row,
                          is_unbounded, norm_estimate, sign_est_prob_one,
                          sign_est_spec, solve_quantum)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def line(self, ok, text: str) -> None:
        ok = bool(ok)  # numpy bools leak in from vectorized comparisons
        self.lines.append(f"[{'PASS' if ok else 'FAIL'}] {text}")
        self.passed = self.passed and ok


# ---------------------------------------------------------------------------
# phase-estimation accuracy


def pe_success_probability(phi: float, q: int, eps_fail: float) -> float:
    """Pr[the first q bits of the readout are within 2^-q of phi] on the
    exact outcome distribution with q + ceil(log2(2 + 1/(2 eps))) qubits."""
    t = q + extra_qubits(eps_fail)
    dist = pe_outcome_distribution(phi, t)
    y = np.arange(2 ** t)
    trunc = np.floor_divide(y, 2 ** (t - q)) / 2 ** q
    d = np.abs(trunc - phi) % 1.0
    d = np.minimum(d, 1.0 - d)
    return float(dist[d < 2.0 ** (-q)].sum())


def phase_estimation_suite() -> SuiteResult:
    """Exact inequality Pr(|phi - 0.a| < 2^-q) >= 1 - eps_fail on a phase grid."""
    out = SuiteResult("phase_estimation_accuracy", True)
    phases = (np.arange(50) + 0.37) / 50  # off-grid, wraps near 1
    for q, eps_fail in ((3, 0.25), (4, 0.25), (5, 0.1)):
        worst = min(pe_success_probability(p, q, eps_fail) for p in phases)
        out.line(worst >= 1.0 - eps_fail,
                 f"q={q} eps_fail={eps_fail}: min success {worst:.4f} "
                 f">= {1 - eps_fail}")
    return out


# ---------------------------------------------------------------------------
# sign-estimation classifier bounds (NFN / NFP)


def nfn_certified_window(eps: float) -> float:
    """Amplitude below which the coarse routine returns 0 w.p. >= 3/4:
    ``alpha < -(1 - 2 sin(pi/6 - sqrt(3) eps))`` is what the estimation
    tolerance actually certifies (approximately -3 eps, not -2 eps)."""
    return 1.0 - 2.0 * math.sin(math.pi / 6.0 - math.sqrt(3.0) * eps)


def sign_estimation_check(eps: float, grid: np.ndarray,
                          nfn_neg_window: float | None = None) -> dict:
    """The four classifier implications on the analytic distributions.

    ``nfn_neg_window`` is the alpha threshold for the second NFN
    implication (default: the stated -2 eps)."""
    window = -2.0 * eps if nfn_neg_window is None else nfn_neg_window
    checks = {"nfn_accept": True, "nfn_reject": True,
              "nfp_reject": True, "nfp_accept": True}
    worst = {k: 1.0 for k in checks}
    probs = zip(sign_est_prob_one(grid, eps, "nfn").tolist(),
                sign_est_prob_one(grid, eps, "nfp").tolist())
    for alpha, (p_nfn, p_nfp) in zip(grid, probs):
        if alpha >= -eps:
            checks["nfn_accept"] &= p_nfn >= 0.75
            worst["nfn_accept"] = min(worst["nfn_accept"], p_nfn)
        if alpha < window:
            checks["nfn_reject"] &= p_nfn <= 0.25
            worst["nfn_reject"] = min(worst["nfn_reject"], 1 - p_nfn)
        if alpha <= -eps:
            checks["nfp_reject"] &= (1 - p_nfp) >= 0.75
            worst["nfp_reject"] = min(worst["nfp_reject"], 1 - p_nfp)
        if alpha > eps / 3.0:
            checks["nfp_accept"] &= (1 - p_nfp) <= 0.25
            worst["nfp_accept"] = min(worst["nfp_accept"], p_nfp)
    return {"checks": checks, "worst": worst, "window": window}


def sign_estimation_suite() -> SuiteResult:
    """NFN/NFP asymmetry on the alpha grid, at eps = 0.05, 0.1 and 0.2.

    The three implications other than `nfn_reject` use the stated windows
    everywhere.  `nfn_reject` uses the stated ``alpha < -2 eps`` window at
    eps = 0.05 and 0.1 and the certified window
    ``alpha < -(1 - 2 sin(pi/6 - sqrt(3) eps))`` at eps = 0.2, where the
    stated constant is not achievable by the estimation tolerance and fails
    on the exact distribution (see the acceptance report for the as-stated
    outcome and the analysis notes).
    """
    out = SuiteResult("sign_estimation_classifier", True)
    grid = np.linspace(-0.5, 0.5, 101)
    wide = np.linspace(-1.0, 1.0, 201)
    for eps in (0.05, 0.1, 0.2):
        stated = eps != 0.2
        if stated:
            res = sign_estimation_check(eps, grid)
        else:
            res = sign_estimation_check(eps, wide, nfn_neg_window=-nfn_certified_window(eps))
        for name, ok in res["checks"].items():
            tag = "stated" if stated or name != "nfn_reject" else "certified window"
            out.line(ok, f"eps={eps} {name} ({tag}): worst margin "
                         f"{res['worst'][name]:.4f} >= 0.75")
    return out


# ---------------------------------------------------------------------------
# pricing soundness (CanEnter / FindColumn)


def _pricing_instance(m: int, n: int, seed: int) -> tuple[LpInstance, tuple[int, ...]]:
    """Random LP rejected until some column prices in solidly, with
    ``pricing_terms`` ratio below -0.3 (a pricing test on an already-optimal
    instance would be vacuous)."""
    for attempt in range(100):
        inst = random_lp(m, n, seed=seed * 997 + attempt)
        basis = slack_identity_basis(inst)
        cbar, norm = pricing_terms(inst, basis)
        if np.min(cbar / norm) < -0.3:
            return inst, basis
    raise RuntimeError("generator failed to produce an eligible column")


def pricing_suite(runs: int = 200, m: int = 4, n: int = 12, eps: float = 0.05,
                  seed: int = 20_260_101, error_mode: str = "zero") -> SuiteResult:
    """FindColumn soundness and coverage over seeded sampling runs:
    every success-flagged returned column must satisfy the classical
    inequality; columns below -2.2 eps must be returned-or-marked at rate
    >= 3/4; overall success rate >= 3/4."""
    out = SuiteResult("pricing_soundness", True)
    sound = 0
    returned = 0
    recovered_sound = 0
    recovered = 0
    successes = 0
    strong_hits = 0
    strong_total = 0
    for i in range(runs):
        inst, basis = _pricing_instance(m, n, seed + i)
        rng = np.random.default_rng(seed + 10_000 + i)
        scaled = ScaledBasis.build(inst, basis, error_mode=error_mode, rng=rng)
        fc = find_column(scaled, eps, mode="sampling", rng=rng)
        nonbasic = scaled.state.nonbasic
        cbar, norm = pricing_terms(inst, basis, nonbasic)
        if fc.column is not None and fc.ok:
            successes += 1
            j = nonbasic.index(fc.column)
            certified = int(cbar[j] < PRICING_FACTOR[fc.variant] * eps * norm[j])
            if fc.variant == "nfn":
                returned += 1
                sound += certified
            else:
                recovered += 1
                recovered_sound += certified
        strong = np.array(nonbasic)[cbar < OPTIMAL_FACTOR * eps * norm].tolist()
        strong_total += len(strong)
        strong_hits += sum(fc.column == k or k in fc.marked for k in strong)
    out.line(returned == 0 or sound == returned,
             f"soundness: {sound}/{returned} returned columns satisfy "
             f"c_bar/|c_B| < -eps * |(u, c_k/|c_B|)| classically")
    if recovered:
        out.line(recovered_sound == recovered,
                 f"recovery soundness: {recovered_sound}/{recovered} "
                 f"nfp-variant returns satisfy their weaker certificate")
    out.line(successes >= 0.75 * runs, f"success rate: {successes}/{runs} >= 0.75")
    rate = strong_hits / strong_total if strong_total else 1.0
    out.line(rate >= 0.75,
             f"coverage of columns below {OPTIMAL_FACTOR} eps: "
             f"{strong_hits}/{strong_total} ({rate:.3f}) >= 0.75")
    out.details.update(sound=sound, returned=returned, successes=successes,
                       recovered=(recovered_sound, recovered),
                       strong=(strong_hits, strong_total))
    return out


# ---------------------------------------------------------------------------
# ratio-test bound (FindRow)


def ratio_bound(x: np.ndarray, u: np.ndarray, delta: float, t: float):
    """Right-hand side of the approximation bound: ``2/(2t-1) |x|/|u| +
    (2t+1)/(2t-1) min_{h: u_h > delta |u|} x_h/u_h`` (None if the
    thresholded set is empty)."""
    mask = u > delta * np.linalg.norm(u)
    if not mask.any():
        return None
    best = float((x[mask] / u[mask]).min())
    absolute = 2.0 / (2 * t - 1) * np.linalg.norm(x) / np.linalg.norm(u)
    return absolute + (2 * t + 1) / (2 * t - 1) * best


def ratio_test_suite(triples: int = 100, t_values=(2.0, 10.0, 100.0),
                     m: int = 4, delta: float = 0.1, seed: int = 20_260_202,
                     error_mode: str = "zero") -> SuiteResult:
    """FindRow satisfies the (2t+1)/(2t-1) + absolute bound, success-conditioned."""
    from .instances import embed_basis_instance

    out = SuiteResult("ratio_test_bound", True)
    for t in t_values:
        ok_runs = 0
        satisfied = 0
        found = 0
        for i in range(triples):
            B, A_k, b = ratio_test_triple(m, seed=seed + i)
            inst, basis = embed_basis_instance(B, A_k, b)
            rng = np.random.default_rng(seed + 50_000 + i)
            scaled = ScaledBasis.build(inst, basis, error_mode=error_mode, rng=rng)
            u = direction(inst, basis, m)
            x = basic_solution(inst, basis)
            bound = ratio_bound(x, u, delta, t)
            if bound is None:
                continue
            fr = find_row(scaled, m, delta, t, mode="sampling", rng=rng)
            if fr.row is None:
                continue
            found += 1
            if not fr.ok:
                continue
            ok_runs += 1
            if u[fr.row] > 0 and x[fr.row] / u[fr.row] <= bound + 1e-9:
                satisfied += 1
        rate = satisfied / ok_runs if ok_runs else 0.0
        out.line(ok_runs >= 0.75 * triples and rate >= 0.75,
                 f"t={t:g}: bound satisfied on {satisfied}/{ok_runs} "
                 f"success-flagged runs (found {found}/{triples})")
        out.details[f"t={t:g}"] = (satisfied, ok_runs, found)
    return out


# ---------------------------------------------------------------------------
# unboundedness soundness (IsUnbounded)


def unbounded_suite(count: int = 50, m: int = 4, n: int = 8, delta: float = 0.1,
                    seed: int = 20_260_303, error_mode: str = "zero") -> SuiteResult:
    """returns-1 soundness at 100% (success-conditioned) plus detection of
    classically-unbounded directions at rate >= 3/4."""
    out = SuiteResult("isunbounded", True)
    agree = 0
    positives = 0
    detected = 0
    for i in range(count):
        inst = random_unbounded_lp(m, n, seed=seed + i)
        basis = slack_identity_basis(inst)
        cbar = reduced_costs(inst, basis)
        nonbasic = [k for k in range(inst.n) if k not in basis]
        k = min((k for k, cb in zip(nonbasic, cbar)
                 if cb < 0 and ratio_test(inst, basis, k) is None), default=None)
        if k is None:
            continue
        rng = np.random.default_rng(seed + 70_000 + i)
        scaled = ScaledBasis.build(inst, basis, error_mode=error_mode, rng=rng)
        res = is_unbounded(scaled, k, delta, mode="sampling", rng=rng)
        u = direction(inst, basis, k)
        if res.value == 1 and res.ok:
            positives += 1
            if np.all(u < delta * np.linalg.norm(u)):
                agree += 1
        if res.value == 1:
            detected += 1
    out.line(positives == agree,
             f"soundness: {agree}/{positives} flagged runs have all "
             f"components < delta |u|")
    out.line(detected >= 0.75 * count,
             f"detection: {detected}/{count} classically-unbounded directions "
             f"flagged >= 75%")

    false_pos = 0
    bounded_ok = 0
    for i in range(count):
        inst = random_bounded_lp(m, n, seed=seed + 500 + i)
        basis = slack_identity_basis(inst)
        rep = solve_classical(inst, basis, rule="dantzig", keep_reports=True,
                              max_iters=1).reports
        k = rep[0].entering if rep and rep[0].entering is not None else None
        if k is None:
            continue
        u = direction(inst, basis, k)
        if u.max() < 2 * delta * np.linalg.norm(u):
            continue  # keep the test delta-separated
        bounded_ok += 1
        rng = np.random.default_rng(seed + 90_000 + i)
        scaled = ScaledBasis.build(inst, basis, error_mode=error_mode, rng=rng)
        res = is_unbounded(scaled, k, delta, mode="sampling", rng=rng)
        if res.value == 1 and res.ok:
            false_pos += 1
            if not np.all(u < delta * np.linalg.norm(u)):
                out.line(False, f"bounded instance {i}: flagged unbounded with a "
                                f"component at {u.max() / np.linalg.norm(u):.3f}|u|")
    out.line(false_pos == 0,
             f"bounded set: {false_pos}/{bounded_ok} delta-separated bounded "
             f"directions flagged unbounded")
    out.details.update(agree=agree, positives=positives, detected=detected,
                       count=count, false_pos=false_pos, bounded_ok=bounded_ok)
    return out


# ---------------------------------------------------------------------------
# norm estimation (Frobenius)


def norm_estimate_suite(count: int = 30, eps: float = 0.1,
                        seed: int = 20_260_404, error_mode: str = "zero",
                        mode: str = "sampling") -> SuiteResult:
    out = SuiteResult("norm_estimation", True)
    ok_runs = 0
    within = 0
    for i in range(count):
        inst = random_lp(4, 9, seed=seed + i)
        basis = slack_identity_basis(inst)
        rng = np.random.default_rng(seed + 30_000 + i)
        scaled = ScaledBasis.build(inst, basis, error_mode=error_mode, rng=rng)
        res = norm_estimate(scaled, eps, mode=mode, rng=rng)
        if res.ok:
            ok_runs += 1
            if abs(res.rho - res.exact) <= eps * res.exact + 1e-12:
                within += 1
    out.line(ok_runs >= 0.75 * count, f"success rate {ok_runs}/{count} >= 75%")
    out.line(within == ok_runs,
             f"relative error <= eps on {within}/{ok_runs} flagged runs")
    out.details.update(ok_runs=ok_runs, within=within, count=count)
    return out


# ---------------------------------------------------------------------------
# query-count scaling


def scaling_suite(seed: int = 20_260_505, grover_runs: int = 200) -> SuiteResult:
    """Measured AE repetitions scale as 1/eps; measured Grover iterations
    scale as sqrt(n); both from QueryStats."""
    out = SuiteResult("scaling", True)
    eps_values = np.array([0.2, 0.1, 0.05, 0.025])
    reps_counts = []
    for eps in eps_values:
        stats = QueryStats()
        _charge_pe(stats, sign_est_spec(float(eps), "nfn").bits)
        reps_counts.append(stats.ae_repetitions)
    slope = np.polyfit(np.log(eps_values), np.log(reps_counts), 1)[0]
    out.line(abs(slope + 1.0) <= 0.1,
             f"AE repetitions vs eps: log-log slope {slope:.3f} within -1 +- 0.1")

    sizes = [8, 16, 32, 64]
    grover_iterations = []
    rng = np.random.default_rng(seed)
    for n in sizes:
        counts = []
        for _ in range(grover_runs):
            stats = QueryStats()
            qsearch(range(n), {0}, rng, stats)
            counts.append(stats.grover_iterations)
        grover_iterations.append(counts)
    # integer-valued counts: every summation order gives the same mean
    means = [sum(counts) / grover_runs for counts in grover_iterations]
    expo = np.polyfit(np.log(sizes), np.log(means), 1)[0]
    out.line(abs(expo - 0.5) <= 0.15,
             f"Grover iterations vs n (1 marked): exponent {expo:.3f} "
             f"within 0.5 +- 0.15")
    out.details.update(eps_values=eps_values.tolist(), ae_counts=reps_counts,
                       sizes=sizes, grover_iterations=grover_iterations,
                       slope=float(slope), exponent=float(expo))
    return out


# ---------------------------------------------------------------------------
# end-to-end loop


def end_to_end_suite(count: int = 20, seed: int = 20_260_606,
                     error_mode: str = "zero", m: int = 4, n: int = 8) -> SuiteResult:
    """The quantum-simulated loop terminates, and the final basis passes
    the classical -2.2 eps relative optimality certificate, on >= 3/4 of
    seeded runs; the classical solver cross-checks exact optimality."""
    # delta = 0.05 keeps the tolerance-level unbounded verdict (all direction
    # components below delta |u|) away from generic bounded instances
    params = PrecisionParams(delta=0.05)
    out = SuiteResult("end_to_end", True)
    good = 0
    terminated = 0
    for i in range(count):
        inst = random_bounded_lp(m, n, seed=seed + i)
        basis = slack_identity_basis(inst)
        classical = solve_classical(inst, basis, rule="dantzig")
        assert classical.status == "optimal"
        res = solve_quantum(inst, basis, params, mode="sampling",
                            error_mode=error_mode, seed=seed + 40_000 + i)
        if res.status != "optimal":
            continue
        terminated += 1
        cbar, norm = pricing_terms(inst, res.basis)
        good += bool(np.all(cbar >= OPTIMAL_FACTOR * params.eps * norm - 1e-9))
    out.line(good >= 0.75 * count,
             f"{good}/{count} runs end at a basis with all c_bar/|c_B| "
             f">= {OPTIMAL_FACTOR} eps |(u, c_k/|c_B|)| (terminated: {terminated})")
    out.details.update(good=good, terminated=terminated, count=count)
    return out


# ---------------------------------------------------------------------------
# column splitting


def column_split_suite() -> SuiteResult:
    """Split formula beats the no-split formula exactly on the admissible
    side of the threshold ``n/m >= 2 kappa d^2 / d_c`` (unit constants);
    the grid includes exact-boundary points.  Formula-only: no subroutine
    runs split pricing, so this compares one ``costmodel`` formula with
    another, not a measured counter."""
    out = SuiteResult("column_split", True)
    eps = 0.1
    mismatches = []
    checked = 0
    for m in (8, 16, 32):
        for kappa in (1.0, 2.0, 4.0):
            for d_c, d in ((1, 1), (2, 2), (2, 4), (4, 4)):
                thresh = 2.0 * kappa * d * d / d_c
                for factor in (0.5, 0.9, 1.0, 1.1, 2.0, 8.0):
                    n = int(round(m * thresh * factor))
                    if n <= m:
                        continue
                    checked += 1
                    admissible = split_threshold(m, n, d_c, d, kappa)
                    h = column_split(n, m, d_c, d, kappa)
                    below = False
                    if h is not None:
                        below = (quantum_pricing_cost(m, n, d_c, d, kappa, eps,
                                                      split=True)
                                 < quantum_pricing_cost(m, n, d_c, d, kappa, eps))
                    if (h is not None) != admissible or below != admissible:
                        mismatches.append((m, n, d_c, d, kappa))
    out.line(not mismatches,
             f"formula-only: split beats no-split exactly on the admissible side "
             f"({checked} grid points, {len(mismatches)} mismatches)")
    spec_h = column_split(4096, 16, 2, 2, 2.0)
    out.line(spec_h == 64, f"reference point n=4096 m=16 d_c=d=kappa=2: h={spec_h}")
    out.details.update(checked=checked, mismatches=mismatches)
    return out


# ---------------------------------------------------------------------------


def run_all(error_mode: str = "worst", quick: bool = False,
            seed: int = 0) -> list[SuiteResult]:
    """The cmd_verify battery (worst-case solver error by default)."""
    runs = 60 if quick else 200
    triples = 30 if quick else 100
    count = 20 if quick else 50
    return [
        phase_estimation_suite(),
        sign_estimation_suite(),
        pricing_suite(runs=runs, error_mode=error_mode, seed=seed + 20_260_101),
        ratio_test_suite(triples=triples, error_mode=error_mode,
                         seed=seed + 20_260_202),
        unbounded_suite(count=count, error_mode=error_mode,
                        seed=seed + 20_260_303),
        norm_estimate_suite(error_mode=error_mode, seed=seed + 20_260_404),
        scaling_suite(seed=seed + 20_260_505),
        end_to_end_suite(count=10 if quick else 20, error_mode=error_mode,
                         seed=seed + 20_260_606),
        column_split_suite(),
    ]
