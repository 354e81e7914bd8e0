"""Sign estimation, pricing, unboundedness, ratio test, norm estimation,
and the iteration driver, against classical oracles."""

import math

import numpy as np
import pytest

from qsimplex.classical import (OPTIMAL_FACTOR, PRICING_FACTOR, basic_solution,
                                direction, pivot_report, pricing_terms,
                                ratio_test, solve_classical)
from qsimplex.instances import (embed_basis_instance, random_bounded_lp,
                                random_lp, random_unbounded_lp,
                                ratio_test_triple)
from qsimplex.lp import (BasisSingular, LpInstance, ZeroColumn, normalize,
                         slack_identity_basis)
from qsimplex.primitives import (_phases, ae_distribution, ae_readout,
                                 amplitude_estimation, pe_outcome_distribution)
from qsimplex.qlsa import read_amplitudes
from qsimplex.subroutines import (SIGN_EST_KINDS, PrecisionParams, ScaledBasis,
                                  _analytic_sign_values, _gadget_phase, _sign_votes,
                                  can_enter, find_column, find_row, is_optimal,
                                  is_unbounded, norm_estimate,
                                  sign_est_prob_one, sign_est_spec,
                                  simplex_iter, solve_quantum)
from oracles import worst_case_state
from test_iteration import CASES, dantzig_basis
from test_iteration import GENERATORS as ITERATION_GENERATORS

SQRT3PI = math.sqrt(3.0) * math.pi


def _votes(alphas, eps, kind, reps=1):
    """Analytic boosted sign-estimation values of the amplitudes ``alphas``."""
    return _sign_votes(np.array(alphas, dtype=float), eps, kind, reps, "analytic",
                       None)[0].tolist()


# ---------------------------------------------------------------------------
# precision parameters


def test_precision_params_validation():
    PrecisionParams()
    with pytest.raises(ValueError):
        PrecisionParams(eps=0.6)
    with pytest.raises(ValueError):
        PrecisionParams(reps=4)
    with pytest.raises(ValueError):
        PrecisionParams(t=0.5)
    for eps_prime in (0.0, 0.5):
        with pytest.raises(ValueError, match="eps_prime must lie in"):
            PrecisionParams(eps_prime=eps_prime)


def test_simplex_iter_scales_the_basis_by_params_eps_prime():
    inst = random_lp(8, 24, seed=3)
    basis = slack_identity_basis(inst)
    for eps_prime in (1e-4, 1e-2):
        out = simplex_iter(inst, basis, PrecisionParams(eps_prime=eps_prime))
        assert out.kappa == normalize(inst, basis, eps_prime).kappa


# ---------------------------------------------------------------------------
# sign estimation


def test_sign_est_spec_tables():
    spec = sign_est_spec(0.1, "nfn")
    assert spec.bits == math.ceil(math.log2(SQRT3PI / 0.1)) + 2
    assert spec.threshold == pytest.approx(1 / 6 - 0.2 / SQRT3PI)
    spec = sign_est_spec(0.1, "nfp")
    assert spec.bits == math.ceil(math.log2(9 * SQRT3PI / 0.1)) + 2
    assert spec.threshold == pytest.approx(1 / 6 - 0.2 / (3 * SQRT3PI))


def test_sign_est_gadget_interference_coefficient():
    # the Hadamard gadget puts (1 + alpha)/2 on |0>|k>: verify by building
    # the two-branch state explicitly for a real state
    v = np.array([0.28, -0.96])
    state = v / np.linalg.norm(v)
    alpha = float(state[1])
    dim = 2
    psi = np.zeros(2 * dim)
    psi[1] = 0.5 * (1 + alpha)          # |0>|k>
    psi[dim + 1] = 0.5 * (1 - alpha)    # |1>|k>
    psi[0] = 0.5 * float(state[0])
    psi[dim] = -0.5 * float(state[0])
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert psi[1] == pytest.approx((1 + alpha) / 2)


def test_sign_est_nfn_maximal_amplitude():
    assert _votes([1.0], 0.1, "nfn") == [1]
    assert sign_est_prob_one(1.0, 0.1, "nfn") >= 0.75


def test_sign_est_nfn_strongly_negative():
    # alpha = -3 eps is outside the certified window: returns 0 w.h.p.
    eps = 0.1
    assert sign_est_prob_one(-0.9, eps, "nfn") <= 0.25
    assert _votes([-0.9], eps, "nfn") == [0]


def test_sign_est_nfp_boundary_points():
    eps = 0.1
    # alpha = -eps: returns 0 w.p. >= 3/4
    assert 1 - sign_est_prob_one(-eps, eps, "nfp") >= 0.75
    # alpha = 1: returns 1
    assert sign_est_prob_one(1.0, eps, "nfp") >= 0.75


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_sign_est_nfn_guarantees_on_sweep(eps):
    for alpha in np.linspace(-0.5, 0.5, 41):
        p1 = sign_est_prob_one(float(alpha), eps, "nfn")
        if alpha >= -eps:
            assert p1 >= 0.75, (alpha, p1)
        # certified rejection window (the stated -2 eps constant is not
        # achievable at every eps; see the acceptance report)
        if alpha < -(1 - 2 * math.sin(math.pi / 6 - math.sqrt(3) * eps)):
            assert p1 <= 0.25, (alpha, p1)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_sign_est_nfp_guarantees_on_sweep(eps):
    for alpha in np.linspace(-0.5, 0.5, 41):
        p1 = sign_est_prob_one(float(alpha), eps, "nfp")
        if alpha <= -eps:
            assert 1 - p1 >= 0.75, (alpha, p1)
        if alpha > eps / 3:
            assert p1 >= 0.75, (alpha, p1)


def test_sign_est_plus_trivial_points():
    eps = 0.1
    # alpha = 1: the |1>|k> coefficient vanishes, both variants return 1
    for kind in ("nfn_plus", "nfp_plus"):
        assert _votes([1.0, -1.0], eps, kind) == [1, 0], kind


def test_sign_est_plus_mirror_identities():
    # the positive-sign tests are output-inverted mirrors of the negative
    # ones under alpha -> -alpha: nfn_plus of alpha equals 1 - nfp(-alpha),
    # nfp_plus of alpha equals 1 - nfn(-alpha), up to the boundary readout
    eps = 0.1
    for alpha in np.linspace(-0.9, 0.9, 37):
        p_plus = sign_est_prob_one(float(alpha), eps, "nfn_plus")
        p_mirror = 1.0 - sign_est_prob_one(float(-alpha), eps, "nfp")
        assert p_plus == pytest.approx(p_mirror, abs=1e-9)
        p_plus = sign_est_prob_one(float(alpha), eps, "nfp_plus")
        p_mirror = 1.0 - sign_est_prob_one(float(-alpha), eps, "nfn")
        assert p_plus == pytest.approx(p_mirror, abs=1e-9)


def test_sign_est_plus_certificates():
    # nfn_plus: alpha >= eps fires w.h.p. (no false negatives); its
    # 0-return certifies alpha below eps.  nfp_plus: its 1-return
    # certifies alpha above eps, firing w.h.p. from ~3 eps upward.
    eps = 0.1
    assert sign_est_prob_one(eps, eps, "nfn_plus") >= 0.75
    assert sign_est_prob_one(eps / 2, eps, "nfn_plus") <= 0.9  # indecision ok
    assert sign_est_prob_one(0.0, eps, "nfn_plus") <= 0.25
    assert sign_est_prob_one(4 * eps, eps, "nfp_plus") >= 0.75
    assert sign_est_prob_one(0.9 * eps, eps, "nfp_plus") <= 0.25


def test_boosted_sign_est_majority():
    rng = np.random.default_rng(0)
    values, oks, _ = _sign_votes(np.array([0.5, -0.9]), 0.1, "nfn", 15, "sampling", rng)
    assert values.tolist() == [1, 0]
    assert oks[0]


@pytest.mark.parametrize("mode,seed,message", [
    ("Analytic", 0, "unknown mode 'Analytic'"),
    ("sampling", None, "sampling mode needs a generator")])
def test_sign_votes_rejects_unknown_mode_and_missing_generator(mode, seed, message):
    # every subroutine reaches _sign_votes first: a misspelt mode may not
    # run the sampled path, and sampling without a generator fails by name
    rng = None if seed is None else np.random.default_rng(seed)
    inst = random_bounded_lp(8, 20, seed=3)
    basis = dantzig_basis(inst, 6)  # the terminal basis of its Dantzig path
    assert pivot_report(inst, basis).entering is None
    with pytest.raises(ValueError, match=message):
        simplex_iter(inst, basis, PrecisionParams(), mode=mode, rng=rng)
    with pytest.raises(ValueError, match=message):
        _sign_votes(np.array([0.5]), 0.1, "nfn", 15, mode, rng)


@pytest.mark.parametrize("kind", SIGN_EST_KINDS)
def test_gadget_phase_matches_per_entry_formula(kind):
    # the array expression against the per-entry formula: Python's x ** 2
    # (libm pow) and NumPy's square may round differently in the last bit;
    # each phase is, bit for bit, the one the kernels read for its
    # probability alone
    spec = sign_est_spec(0.1, kind)
    rng = np.random.default_rng(5)
    alpha = np.concatenate([rng.uniform(-1.0, 1.0, 2000), [-1.0, 0.0, 1.0],
                            spec.alpha_boundary + rng.uniform(-1e-3, 1e-3, 200)])
    a, theta = _gadget_phase(alpha, spec)
    for x, p, t in zip(alpha.tolist(), a.tolist(), theta.tolist()):
        amp = (1.0 - x) / 2.0 if spec.flipped else (1.0 + x) / 2.0
        assert p == pytest.approx(min(max(amp, 0.0), 1.0) ** 2, rel=2.0 ** -52, abs=0), x
        assert t == _phases(p), x


@pytest.mark.parametrize("kind", ["nfn", "nfp"])  # 9 and 12 bits
@pytest.mark.parametrize("per_run", [False, True], ids=["per-entry", "per-run"])
def test_sampled_sweep_matches_choice_entry_by_entry(kind, per_run):
    # a sampled sweep, decided from one draw and one table set, against
    # rng.choice on each entry's own table, entry by entry (and under
    # per-run amplitudes, run by run): the same votes and tolerance flags,
    # and the same generator state after them
    eps_se, reps = 11 * 0.1 / (10 * math.sqrt(2)), 15
    spec = sign_est_spec(eps_se, kind)
    M = 2 ** spec.bits
    # a = 1 and a = 0, amplitudes near the decision boundary, and many at
    # Pr[1] = 1/2, where the votes split and handing an entry's uniforms to
    # another changes them
    lo, hi = spec.alpha_boundary - 0.05, spec.alpha_boundary + 0.05
    above_half = lambda x: sign_est_prob_one(x, eps_se, kind) >= 0.5  # noqa: E731
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if above_half(mid) == above_half(lo) else (lo, mid)
    rng = np.random.default_rng(3)
    entries = np.concatenate([[1.0, -1.0], spec.alpha_boundary + rng.uniform(-0.02, 0.02, 10),
                              np.full(20, lo)])
    alpha = entries[:, None] + rng.uniform(-1e-3, 1e-3, (32, reps)) if per_run else entries
    alpha = np.clip(alpha, -1.0, 1.0)
    drawn, expected = np.random.default_rng(9), np.random.default_rng(9)
    values, oks, _ = _sign_votes(alpha, eps_se, kind, reps, "sampling", drawn)
    for i, entry in enumerate(alpha.tolist()):
        a, theta = _gadget_phase(np.array(entry if per_run else [entry] * reps), spec)
        if per_run:
            y = np.array([expected.choice(M, p=ae_distribution(p, spec.bits))
                          for p in a.tolist()])
        else:
            y = expected.choice(M, size=reps, p=ae_distribution(a[0], spec.bits))
        folds = np.minimum(y, M - y) / M
        votes = spec.decide(folds).sum()
        in_tol = (np.abs(folds - theta) <= spec.tol + 1e-15).sum()
        assert (values[i], oks[i]) == (votes >= 8, in_tol >= 8), i
    assert drawn.random() == expected.random()


@pytest.mark.parametrize("kind", SIGN_EST_KINDS)
@pytest.mark.parametrize("eps", [0.05, 11 * 0.1 / (10 * math.sqrt(2)), 0.09, 0.1])
def test_boosted_analytic_decision_matches_table(kind, eps):
    # the bracketing-point decisions of one array pass equal Pr[1] >= 1/2
    # summed over each amplitude's full table, on random alpha and within
    # 3e-3 of the decision boundary
    rng = np.random.default_rng(0)
    boundary = sign_est_spec(eps, kind).alpha_boundary
    alphas = np.concatenate([rng.uniform(-1.0, 1.0, 100),
                             boundary + rng.uniform(-3e-3, 3e-3, 100)])
    expected = [int(sign_est_prob_one(alpha, eps, kind) >= 0.5) for alpha in alphas.tolist()]
    assert _votes(alphas, eps, kind, 15) == expected


# ---------------------------------------------------------------------------
# reduced cost oracle / CanEnter


# ---------------------------------------------------------------------------
# exact solutions: the unit-column split of a basis


def _full_solve(scaled, rhs):
    """``(s B)^-1 (s rhs)``: one dense m x m solve on the whole basis."""
    s = scaled.state.matrix_scale
    B = scaled.instance.dense()[:, list(scaled.state.basis)]
    return np.linalg.solve(s * B, s * rhs)


def _domain_rhs(scaled):
    """``[A_domain | b]``: the columns ``solutions`` holds, in its order."""
    inst = scaled.instance
    return np.column_stack([inst.dense(), inst.b])[:, list(scaled.domain) + [inst.n]]


def _recording_solve(monkeypatch):
    shapes, solve = [], np.linalg.solve

    def recording(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return shapes


@pytest.mark.parametrize("seed", range(6))
def test_scaled_basis_split_matches_full_solve(monkeypatch, seed):
    # k structural columns and m - k slacks, in shuffled basis order
    m, n = 24, 72
    inst = random_lp(m, n, seed=seed)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, m))
    rows = rng.choice(m, size=m - k, replace=False)
    basis = rng.permutation(np.concatenate([rng.choice(n - m, size=k, replace=False),
                                            n - m + rows])).tolist()
    shapes = _recording_solve(monkeypatch)
    scaled = ScaledBasis.build(inst, basis)
    assert len(scaled.domain) == n - m
    assert shapes == [((k, k), (k, n - m + 1))]
    assert scaled.solutions.shape == (m, n - m + 1)
    assert np.allclose(scaled.solutions, _full_solve(scaled, _domain_rhs(scaled)),
                       rtol=0, atol=1e-12)


def test_scaled_basis_without_unit_columns_is_one_dense_solve(monkeypatch):
    # k = m: the same call on the same operands as a solve of the whole
    # basis, so the same bits
    rng = np.random.default_rng(4)
    G = rng.uniform(-1.0, 1.0, size=(6, 15))
    inst = LpInstance.from_dense(G, rng.uniform(0.5, 2.0, 6), rng.uniform(-1, 1, 15))
    basis = [7, 2, 11, 0, 5, 9]
    shapes = _recording_solve(monkeypatch)
    scaled = ScaledBasis.build(inst, basis)
    assert shapes == [((6, 6), (6, 10))]
    assert np.array_equal(scaled.solutions, _full_solve(scaled, _domain_rhs(scaled)))


def test_scaled_basis_of_slacks_solves_nothing(monkeypatch):
    # k = 0: every solution is a row permutation of [A_domain | b], exactly
    inst = random_lp(12, 36, seed=2)
    slack = slack_identity_basis(inst)
    shapes = _recording_solve(monkeypatch)
    scaled = ScaledBasis.build(inst, slack)
    assert scaled.domain == tuple(range(24))
    ab = _domain_rhs(scaled)
    assert np.array_equal(scaled.solutions, ab)
    order = np.random.default_rng(0).permutation(12)
    scaled = ScaledBasis.build(inst, [slack[i] for i in order])
    assert np.array_equal(scaled.solutions, ab[order])
    assert shapes == []


def test_scaled_basis_counts_scaled_singleton_as_structural(monkeypatch):
    # 2 e_0 has one stored nonzero but is no unit column: k = 1
    A = np.array([[2.0, 0.0, 0.6, 1.0],
                  [0.0, 1.0, 0.8, 0.5]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [1.0, 1.0, 0.1, -0.5])
    assert inst.unit_row.tolist() == [-1, 1, -1, -1]
    shapes = _recording_solve(monkeypatch)
    scaled = ScaledBasis.build(inst, (0, 1))
    assert shapes == [((1, 1), (1, 3))]
    assert scaled.domain == (2, 3)
    assert np.allclose(scaled.solutions,
                       [[0.3, 0.5, 0.5], [0.8, 0.5, 1.0]], rtol=0, atol=1e-15)


def test_scaled_basis_leaves_zero_and_basic_columns_out(monkeypatch):
    # column 2 is zero and nonbasic: neither domain nor the solve's
    # right-hand side holds it, and no column of solutions is basic
    A = np.array([[1.0, 0.0, 0.0, 0.6, 1.0],
                  [0.0, 1.0, 0.0, 0.8, 0.5]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, 1.0, -1.0, -0.5])
    shapes = _recording_solve(monkeypatch)
    scaled = ScaledBasis.build(inst, (3, 1))
    assert scaled.domain == (0, 4)
    assert shapes == [((1, 1), (1, 3))]
    assert scaled.solutions.shape == (2, 3)
    assert np.allclose(scaled.solutions, _full_solve(scaled, _domain_rhs(scaled)),
                       rtol=0, atol=1e-15)
    assert np.array_equal(scaled.direction(4), scaled.solutions[:, 1])
    with pytest.raises(ZeroColumn, match="column 2 is zero"):
        scaled.direction(2)
    with pytest.raises(IndexError, match="column 5 is out of range"):
        scaled.direction(5)
    for basic in (3, 1):
        with pytest.raises(ValueError, match=f"column {basic} is basic") as raised:
            scaled.direction(basic)
        assert not isinstance(raised.value, ZeroColumn)


def test_scaled_basis_two_unit_columns_on_one_row_is_singular():
    # lp.normalize splits the basis, and build solves through that split
    A = np.array([[1.0, 1.0, 0.5],
                  [0.0, 0.0, 1.0]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, -1.0])
    for split_by in (normalize, ScaledBasis.build):
        with pytest.raises(BasisSingular, match="two unit columns"):
            split_by(inst, (0, 1))


def _module2_instance():
    s = 1 / np.sqrt(2)
    A = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
    return LpInstance.from_dense(A, [1.0, 1.0], [s, s, 0.1])


def test_red_cost_amplitude_matches_arithmetic():
    # target amplitude = c_bar / (sqrt(2) |(u, c_k)|) with the module-2
    # numbers: c_bar = -0.88995, |(0.6, 0.8, 0.1)| = 1.00499 -> -0.6262
    inst = _module2_instance()
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    alpha_exact = scaled.reduced_cost_amplitudes[scaled.domain.index(2)]
    cbar = 0.1 - 1.4 / np.sqrt(2)
    expected = cbar / (np.sqrt(2) * np.linalg.norm([0.6, 0.8, 0.1]))
    assert alpha_exact == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(-0.6261, abs=1e-4)


def test_red_cost_basic_column_zero_amplitude():
    inst = _module2_instance()
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    # a duplicate of a basic column has zero reduced cost
    A = np.hstack([inst.dense(), inst.dense()[:, [0]]])
    inst2 = LpInstance.from_dense(A, inst.b, np.append(inst.c, inst.c[0]))
    scaled2 = ScaledBasis.build(inst2, (0, 1), error_mode="zero")
    alpha_exact = scaled2.reduced_cost_amplitudes[scaled2.domain.index(3)]
    assert abs(alpha_exact) <= 0.1 / (10 * np.sqrt(2)) + 1e-9


def test_red_cost_worst_error_bounded():
    inst = _module2_instance()
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="worst")
    eps_ls = 0.1 / (10 * np.sqrt(2))
    i = scaled.domain.index(2)
    alpha = read_amplitudes(scaled.reduced_cost_amplitudes, eps_ls, scaled.error_mode)[i]
    exact = ScaledBasis.build(inst, (0, 1), error_mode="zero").reduced_cost_amplitudes[i]
    assert abs(alpha - exact) <= 0.1 / (10 * np.sqrt(2)) + 1e-12


def test_can_enter_module2_example():
    # ratio -0.8855 < -2.2 * 0.1: CanEnter fires
    inst = _module2_instance()
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    marked, ok, _, _ = can_enter(scaled, 0.1, mode="analytic", columns=[scaled.domain.index(2)])
    assert (marked, ok) == ((2,), True)
    assert scaled.reduced_cost_scaled(2) == pytest.approx(-0.885533, abs=1e-5)


def test_can_enter_zero_reduced_cost():
    inst = _module2_instance()
    A = np.hstack([inst.dense(), inst.dense()[:, [1]]])
    inst2 = LpInstance.from_dense(A, inst.b, np.append(inst.c, inst.c[1]))
    scaled = ScaledBasis.build(inst2, (0, 1), error_mode="zero")
    assert can_enter(scaled, 0.1, mode="analytic", columns=[scaled.domain.index(3)])[0] == ()


def test_can_enter_three_eps_fires():
    # scaled reduced cost at -3 eps: fires w.h.p. (sampling check)
    eps = 0.1
    target_ratio = -3 * eps
    # construct A_k with c_bar / |(u, c_k)| = target: take u = (a, 0),
    # c_k = 0: ratio = -a/(a) ... use direct construction via costs
    A = np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.0]])
    ck = 0.9 * target_ratio / math.sqrt(1 - target_ratio ** 2)
    c = np.array([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])
    # choose c_k so that (c_k - cB.u)/|(u, ck)| = target
    from scipy.optimize import brentq

    def f(x):
        cbar = x - (0.9 / np.sqrt(2))
        return cbar / np.linalg.norm([0.9, x]) - target_ratio

    x = brentq(f, -2.0, 2.0)
    inst = LpInstance.from_dense(A, [1.0, 1.0], np.array([c[0], c[1], x]))
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        hits += len(can_enter(scaled, eps, mode="sampling", rng=rng,
                              columns=[scaled.domain.index(2)])[0])
    assert hits >= 30


# ---------------------------------------------------------------------------
# FindColumn / IsOptimal


def test_find_column_single_strong_column():
    inst = _module2_instance()
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    fc = find_column(scaled, eps=0.1, mode="analytic")
    assert fc.column == 2


def test_find_column_none_when_all_nonnegative():
    A = np.hstack([np.eye(2), np.array([[0.5], [0.5]])])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.1, 0.1, 1.0])
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    fc = find_column(scaled, eps=0.1, mode="analytic")
    assert fc.column is None


def test_find_column_sampling_soundness():
    hits = 0
    for seed in range(60):
        inst = random_lp(4, 12, seed=seed)
        basis = slack_identity_basis(inst)
        rng = np.random.default_rng(seed + 1000)
        scaled = ScaledBasis.build(inst, basis, error_mode="zero", rng=rng)
        fc = find_column(scaled, eps=0.05, mode="sampling", rng=rng)
        if fc.column is not None and fc.ok and fc.variant == "nfn":
            (cbar,), (norm,) = pricing_terms(inst, basis, [fc.column])
            assert cbar < PRICING_FACTOR["nfn"] * 0.05 * norm, (seed, cbar, norm)
            hits += 1
    assert hits >= 30


def test_is_optimal_on_classical_optimum():
    inst = random_bounded_lp(3, 7, seed=2)
    basis = slack_identity_basis(inst)
    sol = solve_classical(inst, basis, rule="dantzig")
    scaled = ScaledBasis.build(inst, sol.basis, error_mode="zero")
    res = is_optimal(scaled, eps=0.1, mode="analytic")
    assert res.value == 1


def test_is_optimal_detects_negative_column():
    inst = _module2_instance()  # ratio -0.885 << -eps
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    res = is_optimal(scaled, eps=0.1, mode="analytic")
    assert res.value == 0


def test_is_optimal_empty_nonbasic():
    inst = LpInstance.from_dense(np.eye(2), [1.0, 1.0], [1.0, 1.0])
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    assert is_optimal(scaled, eps=0.1, mode="analytic").value == 1


# ---------------------------------------------------------------------------
# IsUnbounded / FindRow


def test_is_unbounded_nonpositive_direction():
    A = np.array([[1.0, 0.0, -0.7], [0.0, 1.0, -0.2]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, -1.0])
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    res = is_unbounded(scaled, 2, delta=0.1, mode="analytic")
    assert res.value == 1


def test_is_unbounded_rejects_clear_positive():
    A = np.array([[1.0, 0.0, 0.7], [0.0, 1.0, -0.2]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, -1.0])
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    res = is_unbounded(scaled, 2, delta=0.1, mode="analytic")
    assert res.value == 0


def test_is_unbounded_matches_classical():
    hits = 0
    for seed in range(25):
        inst = random_unbounded_lp(4, 8, seed=seed)
        basis = slack_identity_basis(inst)
        k = next(k for k in range(inst.n) if k not in basis
                 and ratio_test(inst, basis, k) is None)
        rng = np.random.default_rng(seed)
        scaled = ScaledBasis.build(inst, basis, error_mode="zero", rng=rng)
        res = is_unbounded(scaled, k, delta=0.1, mode="sampling", rng=rng)
        hits += res.value
    assert hits >= 19


def test_find_row_identity_basis():
    # A_B = I, x = b, u = A_k: classical min ratio at row 0 for these data
    A = np.array([[1.0, 0.0, 1 / np.sqrt(2)], [0.0, 1.0, 1 / np.sqrt(2)]])
    b = np.array([1.0, 2.0]) / np.linalg.norm([1.0, 2.0])
    inst = LpInstance.from_dense(A, b, [0.5, 0.5, -1.0])
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        fr = find_row(scaled, 2, delta=0.1, t=10.0, mode="sampling", rng=rng)
        hits += fr.row == 0
    assert hits >= 30


def test_find_row_unique_positive_denominator():
    A = np.array([[1.0, 0.0, 0.8], [0.0, 1.0, -0.6]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.5, 0.5, -1.0])
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    for t in (2.0, 10.0, 100.0):
        fr = find_row(scaled, 2, delta=0.1, t=t, mode="analytic")
        assert fr.row == 0, t


def test_find_row_failure_when_no_denominator():
    A = np.array([[1.0, 0.0, -0.8], [0.0, 1.0, -0.6]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.5, 0.5, -1.0])
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    fr = find_row(scaled, 2, delta=0.1, t=10.0, mode="analytic")
    assert fr.row is None
    assert fr.failure == "no_positive_denominator"


def test_find_row_t100_close_to_classical():
    # t = 100: returned ratio within ~1% relative plus the absolute term
    from qsimplex.verify import ratio_bound

    B, A_k, b = ratio_test_triple(4, seed=123)
    inst, basis = embed_basis_instance(B, A_k, b)
    scaled = ScaledBasis.build(inst, basis, error_mode="zero")
    u = direction(inst, basis, 4)
    x = basic_solution(inst, basis)
    bound = ratio_bound(x, u, 0.1, 100.0)
    good = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        fr = find_row(scaled, 4, delta=0.1, t=100.0, mode="sampling", rng=rng)
        if fr.row is not None and fr.ok and u[fr.row] > 0:
            good += x[fr.row] / u[fr.row] <= bound + 1e-9
    assert good >= 22


def _gate_window_basis():
    """An identity basis whose entering direction u puts five rows inside
    the FindRow gate's window at delta = 0.1, where a 15-run majority fires
    with probability from about 0.12 to 0.90, one row far above it and one
    negative row: (scaled basis, entering column)."""
    u = np.array([0.1053, 0.1058, 0.10625, 0.1067, 0.1073, 0.0, -0.3])
    u[5] = math.sqrt(1.0 - u @ u)
    m = u.size
    inst = LpInstance.from_dense(np.hstack([np.eye(m), u[:, None]]), np.ones(m),
                                 np.append(np.zeros(m), -1.0))
    return ScaledBasis.build(inst, tuple(range(m)), error_mode="zero"), m


def _gate_alpha(scaled, k, delta):
    """The amplitudes FindRow's gate reads: u_h/|u| at precision delta/2."""
    u = scaled.direction(k)
    return scaled.read(u / np.linalg.norm(u), delta / 2,
                       sign_est_spec(delta / 2, "nfp_plus").alpha_boundary)


@pytest.mark.parametrize("seed", range(5))
def test_sampled_find_row_draws_gate_block_then_ae_block(seed):
    # the sampled stream of one FindRow call: the gate's m x reps block is
    # one _sign_votes sweep, and the gated rows' (numerator, denominator)
    # readouts map the next 2 x len(gated) uniforms, row by row
    scaled, k = _gate_window_basis()
    delta, t, reps = 0.1, 100.0, 15
    fr = find_row(scaled, k, delta, t, reps, "sampling", np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    values, _, _ = _sign_votes(_gate_alpha(scaled, k, delta), delta / 2, "nfp_plus",
                               reps, "sampling", twin)
    assert fr.gated == tuple(np.flatnonzero(values == 1).tolist())
    draws = twin.random((len(fr.gated), 2))
    eps_ls = delta / (16 * t)
    bits = math.ceil(math.log2(16 * math.pi * t / delta)) + 2
    x, u = scaled.basic_solution, scaled.direction(k)
    amps = [scaled.read(v / np.linalg.norm(v), eps_ls) for v in (x, u)]
    for i, h in enumerate(fr.gated):
        num, den = (amplitude_estimation(amp[h] ** 2, bits, "sampling",
                                         draws[i, j:j + 1]).amp_est
                    for j, amp in enumerate(amps))
        assert fr.ratio_estimates[h] == (num / den if den > 0 else np.inf), h


def test_sampled_find_row_gate_frequencies_match_majority_probability():
    # over 400 seeds each row's sampled gate frequency matches the exact
    # probability that a majority of its 15 runs fires, the binomial tail
    # over one run's Pr[1], within four binomial standard deviations
    scaled, k = _gate_window_basis()
    delta, reps, runs = 0.1, 15, 400
    p = sign_est_prob_one(_gate_alpha(scaled, k, delta), delta / 2, "nfp_plus")
    want = sum(math.comb(reps, j) * p ** j * (1 - p) ** (reps - j)
               for j in range((reps + 1) // 2, reps + 1))
    assert np.sum((want > 0.1) & (want < 0.9)) == 5
    hits = np.zeros(want.size)
    for seed in range(runs):
        fr = find_row(scaled, k, delta, 100.0, reps, "sampling", np.random.default_rng(seed))
        hits[list(fr.gated)] += 1
    spread = np.sqrt(want * (1 - want) / runs)
    assert np.all(np.abs(hits / runs - want) <= 4 * spread), (hits / runs, want)


# ---------------------------------------------------------------------------
# sweeps: every decision equals the per-entry vector path's

PINNED_BASES = sorted({case[:4] for case in CASES if case[4] == "analytic"})
PRICING_EPS = (0.1 / (10 * math.sqrt(2)), 11 * 0.1 / (10 * math.sqrt(2)))
# sign-estimation kind -> (solver precision, sign-estimation precision) of the
# sweep that uses it, at eps = delta = 0.1
SWEEPS = {"nfp": PRICING_EPS, "nfn": PRICING_EPS, "nfn_plus": (0.01, 0.09),
          "nfp_plus": (0.05, 0.05)}


def _vector_read(x, eps_ls, w, threshold, error_mode):
    """<w|x~> of the unit state x after the solver error, as a vector."""
    if error_mode == "worst":
        x = worst_case_state(x, eps_ls, w, threshold)
    return float(w @ x)


def _full_table_vote(alpha, eps_se, kind):
    """The analytic boosted vote on one amplitude: Pr[1] >= 1/2 summed over
    its full outcome table."""
    return int(sign_est_prob_one(alpha, eps_se, kind) >= 0.5)


def _pricing_reference(scaled, variant):
    """The per-column loop: each column's own extended solution state, its
    worst-case rotation as a vector, and its full-table vote."""
    eps_ls, eps_se = PRICING_EPS
    threshold = sign_est_spec(eps_se, variant).alpha_boundary
    w = scaled.cost_vector_gadget
    marked = []
    for k in scaled.domain:
        x = np.append(scaled.direction(k), scaled.c[k])
        alpha = _vector_read(x / np.linalg.norm(x), eps_ls, w, threshold,
                             scaled.error_mode)
        if _full_table_vote(alpha, eps_se, variant) == 0:
            marked.append(k)
    return tuple(marked)


def _row_vote_reference(scaled, u, kind):
    """The per-row loop: one solver state and full-table vote per row; the
    rows voting 1."""
    eps_ls, eps_se = SWEEPS[kind]
    threshold = sign_est_spec(eps_se, kind).alpha_boundary
    m = u.size
    return tuple(h for h in range(m) if _full_table_vote(
        _vector_read(u / np.linalg.norm(u), eps_ls, np.eye(m)[h], threshold,
                     scaled.error_mode), eps_se, kind) == 1)


@pytest.mark.parametrize("error_mode", ["zero", "worst"])
@pytest.mark.parametrize("gen,m,seed,step", PINNED_BASES)
def test_batched_sweeps_match_per_entry_path(gen, m, seed, step, error_mode):
    # IsOptimal's and FindColumn's pricing sweeps, and CanEnter on each
    # column alone, against the per-column vector path on every column;
    # IsUnbounded's marked rows and FindRow's gate against the per-row loop
    # on the directions of up to 8 columns
    inst = ITERATION_GENERATORS[gen](m, 3 * m, seed=seed)
    scaled = ScaledBasis.build(inst, dantzig_basis(inst, step), error_mode=error_mode)
    for variant in ("nfp", "nfn"):
        marked, ok, _, _ = can_enter(scaled, 0.1, 15, variant)
        assert (marked, ok) == (_pricing_reference(scaled, variant), True), variant
        alone = [can_enter(scaled, 0.1, 15, variant, columns=[i])[0]
                 for i in range(len(scaled.domain))]
        assert marked == tuple(k for fired in alone for k in fired)
    for k in scaled.domain[::max(1, len(scaled.domain) // 8)]:
        u = scaled.direction(k)
        assert (is_unbounded(scaled, k, 0.1).marked_rows
                == _row_vote_reference(scaled, u, "nfn_plus")), k
        assert find_row(scaled, k, 0.1, 100.0).gated == _row_vote_reference(
            scaled, u, "nfp_plus"), k


@pytest.mark.parametrize("gen,m,seed,step", PINNED_BASES)
def test_find_row_worst_error_reads_match_vector_rotation(gen, m, seed, step):
    # FindRow's AE numerator and denominator of every gated row under worst
    # error: the h-th components of x/|x| and u/|u| rotated toward 0
    inst = ITERATION_GENERATORS[gen](m, 3 * m, seed=seed)
    scaled = ScaledBasis.build(inst, dantzig_basis(inst, step), error_mode="worst")
    delta, t = 0.1, 100.0
    eps_ls = delta / (16 * t)
    bits = math.ceil(math.log2(16 * math.pi * t / delta)) + 2
    x = scaled.basic_solution
    checked = 0
    for k in scaled.domain[::max(1, len(scaled.domain) // 8)]:
        u = scaled.direction(k)
        fr = find_row(scaled, k, delta, t)
        for h in fr.gated:
            e_h = np.eye(m)[h]
            num, den = (amplitude_estimation(
                worst_case_state(v / np.linalg.norm(v), eps_ls, e_h, 0.0)[h] ** 2,
                bits).amp_est for v in (x, u))
            assert fr.ratio_estimates[h] == (num / den if den > 0 else np.inf), (k, h)
            checked += 1
    assert checked > 0


def _planted_overlaps(spec, eps_ls, error_mode):
    """Overlaps alpha0 placed where a sweep decision is hardest: the gadget
    phase theta M within 1e-13 of the grid points around the threshold, a
    pair inside the interval whose two grid points straddle it (one nearer
    each end), and under worst error alpha0 at and next to the boundary,
    where the injection turns round, and at and next to +-1."""
    M = 2 ** spec.bits
    j = math.floor(spec.threshold * M)
    theta_ms = [g + d for g in range(j - 2, j + 4) for d in (-1e-13, 0.0, 1e-13)]
    theta_ms += [j + 0.1, j + 0.9]
    targets = []
    for theta_m in theta_ms:
        amp = math.sin(math.pi * theta_m / M)
        targets.append(1.0 - 2.0 * amp if spec.flipped else 2.0 * amp - 1.0)
    if error_mode == "zero":
        return targets
    # overlaps the injection moves onto each target: alpha0 = cos(beta) goes
    # to cos(beta - phi) below the boundary and to cos(beta + phi) above it
    phi = 2.0 * math.asin(eps_ls / 2.0)
    boundary = spec.alpha_boundary
    overlaps = []
    for target in targets:
        beta = math.acos(target)
        if beta + phi <= math.pi and math.cos(beta + phi) < boundary:
            overlaps.append(math.cos(beta + phi))
        if beta - phi >= 0.0 and math.cos(beta - phi) >= boundary:
            overlaps.append(math.cos(beta - phi))
    overlaps += [boundary + f * 1e-14 for f in (-1.0, -0.25, 0.0, 0.25, 1.0)]
    overlaps += [math.nextafter(boundary, -2.0), math.nextafter(boundary, 2.0)]
    overlaps += [-1.0, -1.0 + 1e-9, 1.0 - 1e-9, 1.0]
    return overlaps


@pytest.mark.parametrize("error_mode", ["zero", "worst"])
@pytest.mark.parametrize("kind", sorted(SWEEPS))
def test_batched_decisions_on_planted_boundary_entries(kind, error_mode):
    # the array rule decides every planted entry as the full table does on
    # the same amplitude, both sides of the grid points, the straddling pair
    # and the worst-error boundary included
    eps_ls, eps_se = SWEEPS[kind]
    spec = sign_est_spec(eps_se, kind)
    rng = np.random.default_rng(7)
    alpha0 = np.array(_planted_overlaps(spec, eps_ls, error_mode)
                      + list(rng.uniform(-1.0, 1.0, 50)))
    alpha = read_amplitudes(alpha0, eps_ls, error_mode, spec.alpha_boundary)
    values = _analytic_sign_values(alpha, spec)
    theta_ms = _gadget_phase(alpha, spec)[1] * 2 ** spec.bits
    straddling = 0
    for i, (a, theta_m) in enumerate(zip(alpha.tolist(), theta_ms.tolist())):
        assert values[i] == _full_table_vote(a, eps_se, kind), (i, alpha0[i])
        lo, hi = math.floor(theta_m), math.ceil(theta_m)
        straddling += spec.decide(lo / 2 ** spec.bits) != spec.decide(hi / 2 ** spec.bits)
    # the table sum is exercised: at least the planted straddling pair
    assert straddling >= 2


# sign-estimation precisions at which each kind runs on 9 and on 12 bits
TABLE_EPS = {(kind, bits): eps for kind in SIGN_EST_KINDS
             for eps in (0.45, 0.0778, 0.09, 0.008)
             for bits in [sign_est_spec(eps, kind).bits] if bits in (9, 12)}


@pytest.mark.parametrize("bits", [9, 12])
@pytest.mark.parametrize("kind", SIGN_EST_KINDS)
def test_vector_tables_match_one_row_tables(kind, bits):
    # the vector builder, and Pr[1] and the AE readouts taken from it, bit
    # for bit against one table per amplitude: random amplitudes, and
    # amplitudes near the threshold with theta M on, next to and halfway
    # between the grid points around it
    eps = TABLE_EPS[kind, bits]
    spec = sign_est_spec(eps, kind)
    assert spec.bits == bits
    M = 2 ** bits
    rng = np.random.default_rng(bits)
    planted = _planted_overlaps(spec, 0.0, "zero")
    j = math.floor(spec.threshold * M)
    for theta_m in [g + 0.5 for g in range(j - 2, j + 3)]:
        amp = math.sin(math.pi * theta_m / M)
        planted.append(1.0 - 2.0 * amp if spec.flipped else 2.0 * amp - 1.0)
    alpha = np.concatenate([rng.uniform(-1.0, 1.0, 40), planted,
                            spec.alpha_boundary + rng.uniform(-3e-3, 3e-3, 20)])
    a = _gadget_phase(alpha, spec)[0]
    y = np.arange(M)
    ones = spec.decide(np.minimum(y, M - y) / M)
    tables = ae_distribution(a, bits)
    prob_one = sign_est_prob_one(alpha, eps, kind)
    readouts = ae_readout(a, bits)
    ties = 0
    for i, (x, p) in enumerate(zip(alpha.tolist(), a.tolist())):
        theta = float(_phases(p))
        table = 0.5 * (pe_outcome_distribution(theta, bits)
                       + pe_outcome_distribution(-theta, bits))
        assert np.array_equal(ae_distribution(p, bits), table), i
        assert np.array_equal(tables[i], table), i
        assert prob_one[i] == table[ones].sum(), i
        assert prob_one[i] == sign_est_prob_one(x, eps, kind), i
        peak = int(np.argmax(table))
        assert readouts[i] == ae_readout(p, bits) == min(peak, M - peak), i
        lo, hi = math.floor(theta * M), math.ceil(theta * M)
        ties += lo < hi and math.isclose(table[lo], table[hi], rel_tol=1e-9)
    # at 12 bits the half-integer plants tie to 1e-9, so the readouts' table
    # fallback runs; at 9 bits the mirror kernel at -theta parts them more
    assert ties >= 1 or bits == 9


# ---------------------------------------------------------------------------
# norm estimation


def test_norm_estimate_identity_basis():
    inst = random_lp(3, 7, seed=4)
    basis = slack_identity_basis(inst)
    scaled = ScaledBasis.build(inst, basis, error_mode="zero")
    res = norm_estimate(scaled, eps=0.1, mode="analytic")
    assert res.rho == pytest.approx(res.exact, rel=0.1)


def test_norm_estimate_diagonal_example():
    A = np.hstack([np.diag([1.0, 0.5]), np.array([[0.3, 0.1], [0.2, 0.4]])])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [1.0, 1.0, 0.0, 0.0])
    scaled = ScaledBasis.build(inst, (0, 1), error_mode="zero")
    res = norm_estimate(scaled, eps=0.05, mode="analytic")
    AB = scaled.state.matrix_scale * inst.dense()[:, [0, 1]]
    AN = inst.dense()[:, [2, 3]]
    truth = np.linalg.norm(np.linalg.solve(AB, AN)) ** 2
    assert res.exact == pytest.approx(truth, rel=1e-9)
    assert res.rho == pytest.approx(truth, rel=0.05)


def test_norm_estimate_error_sweep():
    inst = random_lp(4, 9, seed=6)
    basis = slack_identity_basis(inst)
    scaled = ScaledBasis.build(inst, basis, error_mode="zero")
    for eps in (0.2, 0.1, 0.05):
        res = norm_estimate(scaled, eps=eps, mode="analytic")
        assert abs(res.rho - res.exact) <= eps * res.exact


# ---------------------------------------------------------------------------
# one iteration / full loop


def test_simplex_iter_optimal_basis():
    inst = random_bounded_lp(3, 7, seed=13)
    basis = slack_identity_basis(inst)
    sol = solve_classical(inst, basis, rule="dantzig")
    out = simplex_iter(inst, sol.basis, PrecisionParams(), mode="analytic")
    assert out.status == "optimal"


def test_simplex_iter_unbounded_instance():
    A = np.array([[1.0, 0.0, -0.7], [0.0, 1.0, -0.4]])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [0.0, 0.0, -1.0])
    out = simplex_iter(inst, (0, 1), PrecisionParams(), mode="analytic")
    assert out.status == "unbounded"


def test_simplex_iter_pivot_has_reasonable_row():
    inst = _module2_instance()
    A = np.hstack([inst.dense(), np.eye(2)])
    inst2 = LpInstance.from_dense(A, inst.b, np.concatenate([[0.5, 0.5, -1.0], [0, 0]]))
    out = simplex_iter(inst2, (3, 4), PrecisionParams(delta=0.05), mode="analytic")
    assert out.status == "pivot"
    assert out.entering in (0, 1, 2)
    assert out.leaving_row in (0, 1)


def test_solve_quantum_two_pivot_lp():
    # box LP: two pivots to optimality, final certificate holds
    A = np.hstack([np.eye(2), np.eye(2)])
    inst = LpInstance.from_dense(A, [1.0, 1.0], [-1.0, -1.0, 0.0, 0.0])
    res = solve_quantum(inst, (2, 3), PrecisionParams(eps=0.05), mode="analytic")
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0, abs=1e-9)
    cbar, norm = pricing_terms(inst, res.basis)
    assert np.all(cbar >= OPTIMAL_FACTOR * 0.05 * norm - 1e-9)


def test_solve_quantum_matches_classical_objective():
    inst = random_bounded_lp(4, 8, seed=31)
    basis = slack_identity_basis(inst)
    classical = solve_classical(inst, basis, rule="dantzig")
    res = solve_quantum(inst, basis, PrecisionParams(eps=0.05, delta=0.05),
                        mode="analytic")
    assert res.status == "optimal"
    assert res.objective == pytest.approx(classical.objective, abs=0.2)


def test_solve_quantum_stats_accumulate():
    inst = random_bounded_lp(3, 6, seed=3)
    basis = slack_identity_basis(inst)
    res = solve_quantum(inst, basis, PrecisionParams(), mode="analytic")
    assert res.stats.qlsa_invocations > 0
    assert res.stats.ae_repetitions > 0


def test_solve_quantum_deterministic_in_analytic_mode():
    inst = random_bounded_lp(3, 6, seed=17)
    basis = slack_identity_basis(inst)
    a = solve_quantum(inst, basis, PrecisionParams(), mode="analytic", seed=1)
    b = solve_quantum(inst, basis, PrecisionParams(), mode="analytic", seed=2)
    assert a.basis == b.basis
    assert a.stats.as_dict() == b.stats.as_dict()


def test_sign_est_nfn_rejects_three_eps_point():
    # alpha = -3 eps sits outside both the stated and certified windows at
    # these tolerances: rejection probability >= 3/4 on the exact kernel
    for eps in (0.05, 0.1):
        p1 = sign_est_prob_one(-3 * eps, eps, "nfn")
        assert 1 - p1 >= 0.75, (eps, p1)


def test_find_column_uniform_over_eligible():
    # with several strongly eligible columns, the returned index is
    # empirically uniform over them (QSearch property)
    from scipy.stats import chisquare

    rng0 = np.random.default_rng(42)
    G = rng0.uniform(-1.0, 1.0, size=(3, 4))
    A = np.hstack([G, np.eye(3)])
    c = np.concatenate([[-1.2, -1.0, -1.4, -0.9], np.zeros(3)])
    inst = LpInstance.from_dense(A, np.full(3, 1.5), c)
    basis = (4, 5, 6)
    cbar, norm = pricing_terms(inst, basis, range(4))
    eligible = np.flatnonzero(cbar < OPTIMAL_FACTOR * 0.05 * norm).tolist()
    assert len(eligible) >= 3
    counts = {k: 0 for k in eligible}
    for seed in range(400):
        rng = np.random.default_rng(seed)
        scaled = ScaledBasis.build(inst, basis, error_mode="zero", rng=rng)
        fc = find_column(scaled, eps=0.05, mode="sampling", rng=rng)
        if fc.column in counts:
            counts[fc.column] += 1
    observed = np.array([counts[k] for k in eligible])
    assert chisquare(observed).pvalue > 0.01, counts


def test_diagnostics_carry_scaled_and_unscaled_quantities():
    inst = random_bounded_lp(3, 7, seed=23)
    basis = slack_identity_basis(inst)
    out = simplex_iter(inst, basis, PrecisionParams(delta=0.05), mode="analytic")
    if out.status == "pivot":
        assert "reduced_cost_scaled_estimate" in out.diagnostics
        assert "ratio_estimate_unscaled" in out.diagnostics
        # unscaled estimate approximates the classical ratio r*
        hit = ratio_test(inst, basis, out.entering, 0.05)
        if hit is not None:
            assert out.diagnostics["ratio_estimate_unscaled"] == pytest.approx(
                hit[1], rel=0.2, abs=0.1)
