"""Unit checks for the verification-suite helpers."""

import math

import numpy as np
import pytest

from qsimplex.verify import (nfn_certified_window, pe_success_probability,
                             ratio_bound, scaling_suite, sign_estimation_check)

# phase-estimation repetitions charged per coarse sign estimation at
# eps = 0.2, 0.1, 0.05, 0.025 (2^bits with bits = ceil(log2(sqrt(3) pi/eps)) + 2)
AE_COUNTS = [128.0, 256.0, 512.0, 1024.0]


def test_pe_success_handles_wraparound_phase():
    # a phase just below 1 folds to estimates near 0; circular distance
    # keeps the accuracy bound intact
    assert pe_success_probability(0.999, 3, 0.25) >= 0.75
    assert pe_success_probability(1 / 3, 3, 0.25) >= 0.75


def test_ratio_bound_matches_hand_computation():
    x = np.array([1.0, 2.0, 3.0])
    u = np.array([0.5, 1.0, -0.2])
    delta = 0.1
    t = 10.0
    # thresholded set: u_h > 0.1 |u| = 0.11(4): rows 0, 1; min ratio = 2.0
    expected = 2.0 / 19.0 * np.linalg.norm(x) / np.linalg.norm(u) \
        + 21.0 / 19.0 * 2.0
    assert ratio_bound(x, u, delta, t) == pytest.approx(expected)


def test_ratio_bound_empty_set():
    assert ratio_bound(np.array([1.0]), np.array([-1.0]), 0.1, 10.0) is None


def test_certified_window_larger_than_stated():
    # the achievable rejection window is wider (more negative) than 2 eps
    # and close to 3 eps for small eps
    for eps in (0.05, 0.1, 0.2):
        w = nfn_certified_window(eps)
        assert w > 2 * eps
        assert w == pytest.approx(3 * eps, rel=0.15)


def test_sign_estimation_check_reports_worst_margins():
    res = sign_estimation_check(0.1, np.linspace(-0.5, 0.5, 41))
    assert set(res["checks"]) == {"nfn_accept", "nfn_reject",
                                  "nfp_reject", "nfp_accept"}
    assert all(res["checks"].values())
    assert all(0 <= v <= 1 for v in res["worst"].values())


def test_scaling_suite_ae_counts_pinned():
    res = scaling_suite(grover_runs=5)
    assert res.details["ae_counts"] == AE_COUNTS
    assert res.details["eps_values"] == [0.2, 0.1, 0.05, 0.025]
    # the Grover counts per size, one per run, that the exponent is fitted on
    assert [len(c) for c in res.details["grover_iterations"]] == [5] * len(res.details["sizes"])
