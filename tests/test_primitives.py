"""Phase estimation, amplitude estimation, QSearch, and minimum finding.

The analytic kernels are the package's central claim: every distribution
here is checked against a full statevector circuit simulation or a
closed-form reference before the statistical behavior is exercised.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import empirical_distribution, tv_distance
from qsimplex.primitives import (AllInfinite, QueryStats, ae_distribution,
                                 ae_readout, amplitude_estimation, extra_qubits,
                                 fold_phase, grover_count_exists,
                                 grover_operator, min_finding,
                                 pe_circuit_distribution,
                                 pe_outcome_distribution, phase_estimation,
                                 qsearch, qsearch_analytic, theta_of_amplitude)
from qsimplex.statevector import prepare_sparse_state
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
    res = phase_estimation(np.eye(2), np.array([1.0, 0.0]), 3, 0.25)
    assert res.distribution[0] == pytest.approx(1.0)


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
    phi1, phi2 = 0.2, 0.45
    U = np.diag([np.exp(2j * np.pi * phi1), np.exp(2j * np.pi * phi2)])
    psi = np.array([0.6, 0.8])
    res = phase_estimation(U, psi, 3, 0.25)
    expected = 0.36 * pe_outcome_distribution(phi1, res.bits) \
        + 0.64 * pe_outcome_distribution(phi2, res.bits)
    assert tv_distance(res.distribution, expected) < 1e-12


def test_pe_sampling_reproducible():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    U = np.diag([np.exp(2j * np.pi * 0.37), 1.0])
    psi = np.array([1.0, 0.0])
    a = phase_estimation(U, psi, 4, 0.25, mode="sampling", rng=rng1)
    b = phase_estimation(U, psi, 4, 0.25, mode="sampling", rng=rng2)
    assert a.y == b.y


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
    assert fold_phase(2, 16) == fold_phase(14, 16) == theta


def test_ae_half_amplitude_concentration():
    # amplitude 1/2: theta = 1/6; with b bits the folded estimate is within
    # 2^-b of 1/6 with probability >= 8/pi^2
    b = 6
    dist = ae_distribution(0.25, b)
    mass = sum(p for y, p in enumerate(dist)
               if abs(fold_phase(y, 2 ** b) - 1 / 6) <= 2.0 ** (-b))
    assert mass >= 8 / math.pi ** 2


@given(st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_ae_matches_grover_circuit(a):
    # build an actual preparation with target probability a and compare the
    # kernel mixture with phase estimation on the true Grover operator
    v = np.array([math.sqrt(a), math.sqrt(1.0 - a)])
    if not np.any(v):
        return
    prep = prepare_sparse_state(v)
    Q = grover_operator(prep, 0)
    for bits in (4, 5):
        assert tv_distance(ae_distribution(a, bits),
                           pe_circuit_distribution(Q, prep.state, bits)) < 1e-10


def test_grover_operator_eigenphases():
    prep = prepare_sparse_state(np.array([0.3, -0.5, 0.6, 0.55]))
    target = 2
    amp = abs(prep.state[target])
    eig = np.linalg.eigvals(grover_operator(prep, target))
    phases = np.sort(np.angle(eig) / (2 * np.pi) % 1.0)
    theta = theta_of_amplitude(amp ** 2)
    assert np.any(np.isclose(phases, theta, atol=1e-9))
    assert np.any(np.isclose(phases, 1 - theta, atol=1e-9))


def test_ae_analytic_vs_sampled_tv():
    # empirical distribution of 10^4 draws within 0.05 TV of the kernel
    rng = np.random.default_rng(17)
    a = 0.3
    bits = 5
    dist = ae_distribution(a, bits)
    draws = [amplitude_estimation(np.array([math.sqrt(a), math.sqrt(1 - a)]),
                                  0, bits, mode="sampling", rng=rng).y
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
    # an 18-bit analytic readout never evaluates the kernel table unless it
    # is asked to keep it, and reads out the fold of the table's argmax
    import qsimplex.primitives as primitives

    state = np.array([0.6, 0.8])
    table = ae_distribution(float(abs(state[0]) ** 2), 18)
    y = int(np.argmax(table))
    kept = amplitude_estimation(state, 0, 18, keep_distribution=True)
    monkeypatch.setattr(primitives, "pe_outcome_distribution", None)
    fast = amplitude_estimation(state, 0, 18)
    assert fast.distribution is None
    assert fast.y == kept.y == min(y, 2 ** 18 - y)
    assert np.array_equal(kept.distribution, table)


def test_ae_charges_repetitions():
    stats = QueryStats()
    amplitude_estimation(np.array([1.0, 0.0]), 0, 5, stats=stats)
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


def test_pe_analytic_vs_sampled_tv():
    # phase estimation, both modes: empirical distribution of 10^4 draws
    # within 0.05 TV of the exact kernel
    rng = np.random.default_rng(23)
    phi = 0.2731
    U = np.diag([np.exp(2j * np.pi * phi), 1.0])
    psi = np.array([1.0, 0.0])
    res = phase_estimation(U, psi, 4, 0.25)
    draws = [phase_estimation(U, psi, 4, 0.25, mode="sampling", rng=rng).y
             for _ in range(10_000)]
    assert tv_distance(res.distribution,
                       empirical_distribution(draws, res.distribution.size)) <= 0.05
