"""Phase estimation, amplitude estimation, QSearch, and minimum finding.

The analytic kernels are the package's central claim: every distribution
here is checked against a full statevector circuit simulation
(``oracles.pe_circuit_distribution``) or a closed-form reference before
the statistical behavior is exercised.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (empirical_distribution, grover_operator,
                     pe_circuit_distribution, tv_distance)
from qsimplex.primitives import (_AE_WINDOW, AEOutcome, AEQuantiles, AllInfinite,
                                 QueryStats, _charge_pe, _fejer, _kernel_gap_sums,
                                 _phases, ae_distribution, ae_readout,
                                 amplitude_estimation, extra_qubits,
                                 grover_count_exists, min_finding,
                                 pe_outcome_distribution, qsearch,
                                 qsearch_analytic)
from qsimplex.verify import pe_success_probability

# frozen from a one-off calibration run (mean iterations 6.2 over 200 seeds
# for 1 marked of 16); the bound below is deliberately loose against RNG drift
QSEARCH_MEAN_CONSTANT = 4.0


# ---------------------------------------------------------------------------
# phase estimation


def test_pe_distribution_on_grid_phase_is_point_mass():
    dist = pe_outcome_distribution(0.25, 4)
    assert dist[4] == pytest.approx(1.0)
    assert tv_distance(dist, np.eye(16)[4]) < 1e-12


def test_pe_distribution_sums_to_one():
    for phi in (0.0, 1 / 3, 0.71, 0.999):
        dist = pe_outcome_distribution(phi, 6)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist >= 0)


def test_pe_zero_phase():
    dist = pe_outcome_distribution(0.0, 3 + extra_qubits(0.25))
    assert dist[0] == pytest.approx(1.0)


def test_pe_prop_bound_for_one_third():
    # phi = 1/3, q = 3, eps_fail = 1/4: success probability >= 3/4
    assert pe_success_probability(1 / 3, 3, 0.25) >= 0.75


@given(st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_pe_prop_bound_random_phases(phi):
    assert pe_success_probability(phi, 3, 0.25) >= 0.75


def test_extra_qubits_formula():
    assert extra_qubits(0.25) == 2  # ceil(log2(2 + 2))
    assert extra_qubits(0.1) == 3


def test_pe_circuit_matches_kernel_on_eigenstate():
    phi = 0.3141
    U = np.diag([np.exp(2j * np.pi * phi), 1.0])
    psi = np.array([1.0, 0.0])
    for t in (3, 5):
        kernel = pe_outcome_distribution(phi, t)
        circuit = pe_circuit_distribution(U, psi, t)
        assert tv_distance(kernel, circuit) < 1e-12


def test_pe_non_eigenstate_falls_back_to_circuit():
    # on a superposition of eigenstates the circuit gives the mixture of
    # their kernels, weighted by the squared overlaps
    phi1, phi2 = 0.2, 0.45
    U = np.diag([np.exp(2j * np.pi * phi1), np.exp(2j * np.pi * phi2)])
    psi = np.array([0.6, 0.8])
    t = 3 + extra_qubits(0.25)
    expected = 0.36 * pe_outcome_distribution(phi1, t) \
        + 0.64 * pe_outcome_distribution(phi2, t)
    assert tv_distance(pe_circuit_distribution(U, psi, t), expected) < 1e-12


# ---------------------------------------------------------------------------
# amplitude estimation


def test_ae_point_mass_for_amplitude_one():
    dist = ae_distribution(1.0, 4)
    assert dist[8] == pytest.approx(1.0)  # theta = 1/2 on the grid


def test_ae_point_mass_on_grid_theta():
    theta = 1 / 8
    a = math.sin(math.pi * theta) ** 2
    dist = ae_distribution(a, 4)
    assert dist[2] == pytest.approx(0.5)
    assert dist[14] == pytest.approx(0.5)
    # both outcomes fold to the same estimate
    assert AEOutcome(4, theta, np.array([2, 14])).theta_est.tolist() == [theta, theta]


def test_ae_half_amplitude_concentration():
    # amplitude 1/2: theta = 1/6; with b bits the folded estimate is within
    # 2^-b of 1/6 with probability >= 8/pi^2
    b = 6
    dist = ae_distribution(0.25, b)
    folds = AEOutcome(b, 1 / 6, np.arange(2 ** b)).theta_est
    mass = sum(p for fold, p in zip(folds, dist) if abs(fold - 1 / 6) <= 2.0 ** (-b))
    assert mass >= 8 / math.pi ** 2


@given(st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_ae_matches_grover_circuit(a):
    # prepare a state with target probability a and compare the kernel
    # mixture with phase estimation on the true Grover operator
    v = np.array([math.sqrt(a), math.sqrt(1.0 - a)])
    if not np.any(v):
        return
    psi = v / np.linalg.norm(v)
    Q = grover_operator(psi, 0)
    for bits in (4, 5):
        assert tv_distance(ae_distribution(a, bits),
                           pe_circuit_distribution(Q, psi, bits)) < 1e-10


def test_grover_operator_eigenphases():
    v = np.array([0.3, -0.5, 0.6, 0.55])
    psi = v / np.linalg.norm(v)
    target = 2
    amp = abs(psi[target])
    eig = np.linalg.eigvals(grover_operator(psi, target))
    phases = np.sort(np.angle(eig) / (2 * np.pi) % 1.0)
    theta = float(_phases(amp ** 2))
    assert np.any(np.isclose(phases, theta, atol=1e-9))
    assert np.any(np.isclose(phases, 1 - theta, atol=1e-9))


def test_ae_analytic_vs_sampled_tv():
    # empirical distribution of 10^4 draws within 0.05 TV of the kernel
    rng = np.random.default_rng(17)
    a = 0.3
    bits = 5
    dist = ae_distribution(a, bits)
    draws = [int(amplitude_estimation(a, bits, "sampling", rng.random(1)).y)
             for _ in range(10_000)]
    assert tv_distance(dist, empirical_distribution(draws, 2 ** bits)) <= 0.05


@pytest.mark.parametrize("bits", range(1, 19))
def test_ae_readout_matches_table_argmax(bits):
    # the nearest-point readout folds like the argmax of the full table, on
    # random a, at a = 0 and 1, with theta M on the grid and with theta M at
    # a half-integer, where the two nearest points tie up to rounding
    M = 2 ** bits
    rng = np.random.default_rng(bits)
    halves = (0, M // 3, M // 2 - 1, *rng.integers(0, M // 2, 8))
    phases = [k / M for k in (1, M // 4, M // 2 - 1)] + [(k + 0.5) / M for k in halves]
    amps = [0.0, 1.0, *rng.uniform(0.0, 1.0, 8),
            *(math.sin(math.pi * theta) ** 2 for theta in phases)]
    for a in amps:
        y = int(np.argmax(ae_distribution(a, bits)))
        assert ae_readout(a, bits) == min(y, M - y), a


def test_analytic_ae_builds_no_table(monkeypatch):
    # an 18-bit analytic readout never evaluates the kernel table and reads
    # out the fold of the table's argmax
    import qsimplex.primitives as primitives

    a = 0.6 ** 2
    y = int(np.argmax(ae_distribution(a, 18)))
    monkeypatch.setattr(primitives, "ae_distribution", None)
    assert amplitude_estimation(a, 18).y == min(y, 2 ** 18 - y)


def sampling_amplitudes(bits: int, rng) -> list[float]:
    """Random a, a = 0 and 1, theta M on the grid and at half-integers, and
    theta within a few steps of 0 and of 1/2, where the windows around the
    two kernel peaks wrap past 0 and M or merge at M/2."""
    M = 2 ** bits
    steps = (1, 2.5, M // 3, M // 4 + 0.5, M // 2 - 1, M // 2 - 2.5,
             *rng.uniform(0, M // 2, 3))
    phases = [k / M for k in steps] + [1e-9, 0.5 - 1e-9]
    return [0.0, 1.0, *rng.uniform(0.0, 1.0, 4),
            *(math.sin(math.pi * theta) ** 2 for theta in phases)]


@pytest.mark.parametrize("bits", range(1, 21))
def test_ae_sample_matches_choice(bits):
    # the same index as rng.choice on the full table, and the same
    # generator state after it, one draw (as sampled amplitude estimation
    # makes it) or fifteen at a time, and for all amplitudes at once: one
    # table set, fifteen uniforms per row
    rng = np.random.default_rng(100 + bits)
    amps = sampling_amplitudes(bits, rng)
    for a in amps:
        dist = ae_distribution(a, bits)
        for size in (None, 15):
            seed = int(rng.integers(2 ** 32))
            drawn, expected = np.random.default_rng(seed), np.random.default_rng(seed)
            if size is None:
                got = int(amplitude_estimation(a, bits, "sampling", drawn.random(1)).y)
            else:
                got = AEQuantiles([a], bits)(drawn.random((1, size)))[0]
            want = expected.choice(2 ** bits, size=size, p=dist)
            assert np.array_equal(got, want), (a, size)
            assert drawn.random() == expected.random(), (a, size)
    seed = int(rng.integers(2 ** 32))
    drawn, expected = np.random.default_rng(seed), np.random.default_rng(seed)
    got = AEQuantiles(amps, bits)(drawn.random((len(amps), 15)))
    for a, row in zip(amps, got):
        want = expected.choice(2 ** bits, size=15, p=ae_distribution(a, bits))
        assert np.array_equal(row, want), a
    assert drawn.random() == expected.random()


@pytest.mark.parametrize("bits", [9, 18])
@pytest.mark.parametrize("mode", ["analytic", "sampling"])
def test_ae_array_matches_elementwise_calls(mode, bits):
    # a (rows x [numerator, denominator]) readout, as the ratio test makes
    # it, against one call per probability on the same uniforms: the same
    # readouts, folded phases, amplitudes and tolerance flags
    rng = np.random.default_rng(bits)
    a = np.concatenate([rng.uniform(0.0, 1.0, (12, 2)), [[0.0, 1.0]]])
    u = rng.random(a.shape) if mode == "sampling" else None
    tol = 0.25 * 2.0 ** -bits
    whole = amplitude_estimation(a, bits, mode, u)
    flags = whole.within(tol)
    assert whole.y.shape == flags.shape == a.shape
    assert 0 < flags.sum() < a.size
    for i, j in np.ndindex(a.shape):
        one = amplitude_estimation(a[i, j], bits, mode, None if u is None else u[i, j:j + 1])
        assert whole.y[i, j] == one.y, (i, j)
        assert whole.theta_est[i, j] == one.theta_est, (i, j)
        assert whole.amp_est[i, j] == one.amp_est, (i, j)
        assert flags[i, j] == one.within(tol), (i, j)


def assert_quantile_matches(a: float, bits: int, probes) -> None:
    """One-row ``AEQuantiles`` against the table's inverse-CDF map, one
    uniform at a time, so that each probe is decided on its own."""
    cdf = ae_distribution(a, bits).cumsum()
    cdf /= cdf[-1]
    tables = AEQuantiles([a], bits)
    for u in probes:
        got = tables(np.full((1, 1), u))[0, 0]
        assert got == int(cdf.searchsorted(u, side="right")), (a, u)


@pytest.mark.parametrize("bits", (5, 9, 10, 12, 14, 16))
def test_ae_quantile_on_cdf_boundaries(bits):
    # uniforms on the table's CDF values and one ulp either side, at grid
    # points next to both peaks, at the window ends next to the gaps and
    # inside the gaps: one at a time, and in one call for separate windows,
    # windows that wrap past 0 and that merge at M/2, a = 0 and a = 1,
    # beside a row of random uniforms
    M = 2 ** bits
    W = _AE_WINDOW
    rng = np.random.default_rng(bits)
    amps, rows = [0.0, 1.0], [rng.random(64), rng.random(64)]
    for theta in (rng.uniform(0.1, 0.4), 3.3 / M, 0.5 - 2.7 / M):
        a = math.sin(math.pi * theta) ** 2
        cdf = ae_distribution(a, bits).cumsum()
        cdf /= cdf[-1]
        c = round(theta * M)
        ks = {c + d for d in (-2, -1, 0, 1)} | {M - c + d for d in (-2, -1, 0, 1)}
        ks |= {c + d for d in (-W - 1, -W, W - 1, W, W + 1)}
        ks |= {M - c + d for d in (-W - 1, -W, W - 1, W, W + 1)}
        ks |= {M // 4, M // 2 - W // 2 - c // 2, 3 * M // 4}
        probes = []
        for k in sorted(k % M for k in ks):
            probes += [np.nextafter(cdf[k], 0.0), cdf[k], np.nextafter(cdf[k], 1.0)]
        probes = [u for u in probes if u < 1.0]
        assert_quantile_matches(a, bits, probes)
        amps += [a, a]
        rows += [np.resize(probes, 64), rng.random(64)]
    tables = AEQuantiles(amps, bits)
    got = tables(np.array(rows))
    for a, u, y in zip(amps, rows, got):
        cdf = ae_distribution(a, bits).cumsum()
        cdf /= cdf[-1]
        assert np.array_equal(y, cdf.searchsorted(u, side="right")), a
    # a subset of the rows, in another order
    order = np.arange(len(amps))[::-2]
    assert np.array_equal(tables(np.array(rows)[order], order), got[order])


def test_ae_gap_sums_match_table():
    # closed-form sums over the runs of grid points outside the windows
    # around both peaks, against direct sums of the kernel evaluated from
    # the exact grid offset, and against the table's own sums, whose values
    # carry the rounding of the table's phase offsets (at magnitude up to 1)
    rng = np.random.default_rng(5)
    for bits in (10, 14, 18):
        M = 2 ** bits
        y = np.arange(M)
        for theta in (*rng.uniform(0.0, 0.5, 4), 0.25, 2.5 / M, 0.5 - 1.5 / M):
            c = round(theta * M)
            near = np.zeros(M, dtype=bool)
            for center in (c, M - c):
                near[(center + np.arange(-_AE_WINDOW, _AE_WINDOW + 1)) % M] = True
            far = np.flatnonzero(~near)
            runs = np.split(far, np.flatnonzero(np.diff(far) > 1) + 1)
            starts = np.array([run[0] for run in runs])
            ends = np.array([run[-1] for run in runs])
            s2 = math.sin(math.pi * (theta * M - c)) ** 2
            sums = _kernel_gap_sums((theta * M, M - theta * M), starts, ends, M, s2)
            for row, phi in enumerate((theta, -theta)):
                offset = phi * M - y
                offset -= M * np.round(offset / M)
                with np.errstate(divide="ignore", invalid="ignore"):  # at the peaks
                    exact = s2 / (M * np.sin(np.pi * offset / M)) ** 2
                table = _fejer(phi, y, M)
                noise = M * 2.0 ** -52 / _AE_WINDOW
                for i, run in enumerate(runs):
                    assert abs(sums[row, i] - math.fsum(exact[run])) < 1e-15
                    assert abs(sums[row, i] - math.fsum(table[run])) < noise


def test_sampled_ae_far_from_boundaries_builds_no_table(monkeypatch):
    # an 18-bit sampled readout whose uniform lies inside a window, away
    # from every interval end, never evaluates the kernel table
    import qsimplex.primitives as primitives

    dist = ae_distribution(0.36, 18)
    cdf = dist.cumsum() / dist.sum()
    u = np.random.default_rng(3).random()
    y = int(cdf.searchsorted(u, side="right"))
    assert min(u - cdf[y - 1], cdf[y] - u) > 1e-6
    assert dist[y] > 1e-3  # next to a peak, so inside its window
    monkeypatch.setattr(primitives, "ae_distribution", None)
    out = amplitude_estimation(0.6 ** 2, 18, "sampling",
                               np.random.default_rng(3).random(1))
    assert out.y == y


def test_ae_charges_repetitions():
    stats = QueryStats()
    _charge_pe(stats, 5)
    assert stats.ae_repetitions == 32
    assert stats.u_calls == 64


# ---------------------------------------------------------------------------
# QSearch


def test_qsearch_all_marked_is_quick():
    rng = np.random.default_rng(0)
    stats = QueryStats()
    found = qsearch(range(8), set(range(8)), rng, stats)
    assert found in range(8)
    assert stats.grover_iterations <= 4


def test_qsearch_no_marked_returns_none():
    rng = np.random.default_rng(1)
    assert qsearch(range(16), set(), rng, QueryStats()) is None


def test_qsearch_one_of_sixteen():
    hits = 0
    iterations = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        stats = QueryStats()
        found = qsearch(range(16), {11}, rng, stats)
        iterations.append(stats.grover_iterations)
        hits += found == 11
    assert hits >= 150  # found w.p. >= 3/4
    assert np.mean(iterations) <= QSEARCH_MEAN_CONSTANT * math.sqrt(16)


def test_qsearch_uniform_over_marked():
    # chi-square over the returned marked items (p > 0.01)
    from scipy.stats import chisquare

    marked = (1, 5, 9, 13)
    counts = {k: 0 for k in marked}
    for seed in range(400):
        rng = np.random.default_rng(seed)
        found = qsearch(range(16), set(marked), rng, QueryStats())
        if found is not None:
            counts[found] += 1
    observed = np.array([counts[k] for k in marked])
    assert chisquare(observed).pvalue > 0.01


def test_qsearch_analytic_lowest_marked():
    stats = QueryStats()
    assert qsearch_analytic(range(10), {7, 3}, stats) == 3
    assert stats.grover_iterations > 0


def test_grover_count_exists():
    rng = np.random.default_rng(3)
    assert grover_count_exists(range(8), {2}, rng, mode="analytic")
    assert not grover_count_exists(range(8), set(), rng, mode="analytic")
    hits = sum(grover_count_exists(range(8), {5}, np.random.default_rng(s),
                                   QueryStats(), mode="sampling")
               for s in range(100))
    assert hits >= 75


# ---------------------------------------------------------------------------
# minimum finding


def test_min_finding_constant_values():
    rng = np.random.default_rng(2)
    idx = min_finding([2.0, 2.0, 2.0, 2.0], rng, QueryStats())
    assert idx in range(4)


def test_min_finding_known_minima():
    # values (3,1,4,1,5): either index 1 or 3 attains the minimum
    rng = np.random.default_rng(4)
    wins = {min_finding([3.0, 1.0, 4.0, 1.0, 5.0],
                        np.random.default_rng(s), QueryStats())
            for s in range(50)}
    assert wins <= {1, 3}


def test_min_finding_handles_infinities():
    rng = np.random.default_rng(5)
    vals = [np.inf, 2.0, np.inf, 1.0]
    assert min_finding(vals, rng, QueryStats()) == 3
    with pytest.raises(AllInfinite):
        min_finding([np.inf, np.inf], rng, QueryStats())


def test_min_finding_success_rate():
    rng_values = np.random.default_rng(77)
    values = rng_values.uniform(0, 1, size=16)
    truth = int(np.argmin(values))
    hits = sum(min_finding(values, np.random.default_rng(s), QueryStats()) == truth
               for s in range(200))
    assert hits >= 150


def test_min_finding_analytic_deterministic():
    stats = QueryStats()
    assert min_finding([3.0, 0.5, 2.0], stats=stats, mode="analytic") == 1
    assert stats.grover_iterations > 0


def test_query_stats_monotone_add():
    a = QueryStats(u_calls=1)
    b = QueryStats(u_calls=2, grover_iterations=3)
    a.add(b)
    assert a.u_calls == 3
    assert a.grover_iterations == 3
    assert a.scaled(2.0).u_calls == 6


def test_query_stats_arithmetic_is_per_field():
    # add and scaled work field by field, in field order, as plain float ops
    names = [f.name for f in dataclasses.fields(QueryStats)]
    x, y = np.random.default_rng(0).uniform(0.0, 1e6, (2, len(names))).tolist()
    a, b = QueryStats(*x), QueryStats(*y)
    a.add(b)
    assert list(a.as_dict()) == names
    assert [v.hex() for v in a.as_dict().values()] == [(p + q).hex() for p, q in zip(x, y)]
    assert [v.hex() for v in b.scaled(0.3).as_dict().values()] == [(q * 0.3).hex() for q in y]
    assert b.as_dict() == dict(zip(names, y))
