"""simplex_iter and solve_quantum on fixed bases of Dantzig paths.

Verdict, entering column, leaving row, ``ok`` flag and all eight
``QueryStats`` counters are pinned per case, so a refactor of the linear
algebra or of the cost charging shows up here.  Integer-valued counters
must match exactly; the formula-charged float counters may move by at
most 1e-12 relative, where a regrouped float sum rounds differently.  The
remaining tests check that an iteration makes one SVD and one solve and that
failures carry a named reason.
"""

import numpy as np
import pytest

from qsimplex.classical import pivot_report
from qsimplex.instances import random_bounded_lp, random_lp
from qsimplex.lp import LpInstance, slack_identity_basis
from qsimplex.primitives import QueryStats
from qsimplex.subroutines import (PrecisionParams, ScaledBasis, find_column,
                                  is_optimal, simplex_iter, solve_quantum)

GENERATORS = {"random_lp": random_lp, "random_bounded_lp": random_bounded_lp}
FLOAT_COUNTERS = ("p_ab_queries", "p_b_queries", "basic_gates")

# (generator, m, seed, Dantzig step, mode, error mode,
#  (status, entering, leaving row, ok), QueryStats counters in field order)
CASES = [
    ("random_lp", 8, 3, 0, "analytic", "zero",
     ("pivot", 1, 2, True),
     (7058432.0, 3529216.0, 7059186.0, 16950827582.326115,
      20712964.78472883, 195.0, 3529216.0, 9555480763653.348)),
    ("random_lp", 8, 3, 5, "analytic", "zero",
     ("pivot", 1, 0, True),
     (7058432.0, 3529216.0, 7059186.0, 2269814707661.749,
      203399163.25343278, 195.0, 3529216.0, 1970904725231963.5)),
    ("random_lp", 8, 3, 9, "analytic", "zero",
     ("unbounded", 5, None, True),
     (4838400.0, 2419200.0, 4839030.0, 6.552265911373858e+16,
      23755612233.80104, 41.0, 2419200.0, 7.866560541450677e+19)),
    ("random_lp", 12, 5, 0, "analytic", "worst",
     ("pivot", 0, 1, True),
     (9217024.0, 4608512.0, 9217842.0, 40152071234.84595,
      28678902.48143784, 233.0, 4608512.0, 25489670421859.71)),
    ("random_lp", 12, 5, 3, "analytic", "worst",
     ("pivot", 7, 5, True),
     (9217024.0, 4608512.0, 9217842.0, 5390925645568.586,
      285403462.43283594, 233.0, 4608512.0, 5398374000724735.0)),
    ("random_lp", 16, 7, 0, "sampling", "worst",
     ("pivot", 2, 12, False),
     (7954432.0, 3977216.0, 7954836.0, 86534436387.1052,
      28918822.014506873, 235.0, 3977216.0, 62947419813030.85)),
    ("random_lp", 16, 7, 6, "sampling", "worst",
     ("pivot", 13, 2, True),
     (5085184.0, 2542592.0, 5085537.0, 332822203546152.8,
      1130795239.2343888, 234.0, 2542592.0, 5.4992596111511104e+17)),
    ("random_lp", 16, 7, 12, "sampling", "worst",
     ("unbounded", 42, None, True),
     (5560320.0, 2780160.0, 5561130.0, 1720038824204074.5,
      3376186986.0219216, 49.0, 2780160.0, 1.272995037346191e+18)),
    ("random_lp", 10, 11, 0, "sampling", "random",
     ("pivot", 2, 4, True),
     (4624384.0, 2312192.0, 4624602.0, 27889321035.94723,
      16723322.5833495, 180.0, 2312192.0, 20223089545015.76)),
    ("random_lp", 10, 11, 1, "sampling", "random",
     ("pivot", 13, 5, True),
     (3325952.0, 1662976.0, 3326316.0, 192746545906.80057,
      36348664.892923236, 188.0, 1662976.0, 170539219399186.78)),
    ("random_bounded_lp", 12, 0, 18, "analytic", "worst",
     ("optimal", None, None, True),
     (1966080.0, 983040.0, 1966320.0, 45351067588265.13,
      399075915.1258262, 16.0, 983040.0, 2.763963887586132e+16)),
    ("random_bounded_lp", 8, 2, 9, "sampling", "random",
     ("optimal", None, None, True),
     (9461760.0, 4730880.0, 9462915.0, 18396751344886.1,
      786124506.774232, 58.0, 4730880.0, 8770655300773396.0)),
    ("random_lp", 64, 0, 24, "analytic", "zero",
     ("pivot", 1, 53, True),
     (23034880.0, 11517440.0, 23037390.0, 7102514701477301.0,
      6545876082.717612, 563.0, 11517440.0, 1.053123426792949e+19)),
    ("random_lp", 64, 0, 24, "analytic", "worst",
     ("pivot", 1, 53, True),
     (24083456.0, 12041728.0, 24085968.0, 7614887676786708.0,
      6881014246.612802, 563.0, 12041728.0, 1.1465268094322227e+19)),
]

# the generator's next draw after each sampling case, as float hex: a
# change in how many uniforms an iteration draws shows up here
NEXT_DRAWS = {
    ("random_lp", 7, 0, "worst"): "0x1.b3a778c39c940p-1",
    ("random_lp", 7, 6, "worst"): "0x1.481fc1c4d1b6ap-2",
    ("random_lp", 7, 12, "worst"): "0x1.acf50897c5efep-2",
    ("random_lp", 11, 0, "random"): "0x1.0bba0189e2aa2p-1",
    ("random_lp", 11, 1, "random"): "0x1.36dc7a1a1070ep-2",
    ("random_bounded_lp", 2, 9, "random"): "0x1.f53c7326b12d9p-1",
}

# pricing step (IsOptimal, then FindColumn) on Dantzig basis #5 of
# random_lp(128, 384, seed=0): error mode -> ((IsOptimal value, ok, number
# and sum of marked columns), (column, variant, ok, number and sum of marked
# columns), reduced_cost_scaled at the pick); the counters are the same in
# both error modes.  The basis holds 5 non-unit columns, so its solutions
# come from a 5 x 5 solve (ScaledBasis.build) and its kappa from a 10 x 10
# SVD (lp.normalize)
PRICING_CASES = {
    "zero": ((0, True, 82, 11114), (4, "nfp", True, 82, 11114), -0.09375880074742038),
    "worst": ((0, True, 83, 11120), (2, "nfp", True, 83, 11120), -0.06867627114269195),
}
PRICING_COUNTERS = (5360640.0, 2680320.0, 5361465.0, 1632662988805269.2,
                    1299733191.9812946, 54.0, 2680320.0, 1.0473711461648635e+18)


def dantzig_basis(instance, steps: int) -> tuple[int, ...]:
    """Basis after ``steps`` Dantzig pivots from the slack basis."""
    basis = list(slack_identity_basis(instance))
    for _ in range(steps):
        rep = pivot_report(instance, basis, rule="dantzig")
        basis[rep.leaving_row] = rep.entering
    return tuple(basis)


@pytest.mark.parametrize("gen,m,seed,step,mode,error_mode,verdict,counters", CASES)
def test_simplex_iter_pinned(gen, m, seed, step, mode, error_mode, verdict, counters):
    inst = GENERATORS[gen](m, 3 * m, seed=seed)
    rng = np.random.default_rng(step)
    out = simplex_iter(inst, dantzig_basis(inst, step), PrecisionParams(), mode,
                       error_mode, rng)
    assert (out.status, out.entering, out.leaving_row, bool(out.ok)) == verdict
    expected = QueryStats(*counters).as_dict()
    for name, value in out.stats.as_dict().items():
        if name in FLOAT_COUNTERS:
            assert value == pytest.approx(expected[name], rel=1e-12, abs=0), name
        else:
            assert value == expected[name], name
    if mode == "sampling":
        assert float(rng.random()).hex() == NEXT_DRAWS[gen, seed, step, error_mode]


@pytest.mark.parametrize("error_mode", sorted(PRICING_CASES))
def test_pricing_step_pinned(error_mode):
    # the pricing step iterbench's price-large workload runs, at its size
    inst = random_lp(128, 384, seed=0)
    scaled = ScaledBasis.build(inst, dantzig_basis(inst, 5), error_mode=error_mode)
    stats = QueryStats()
    opt = is_optimal(scaled, 0.1, 15, "analytic", None, stats)
    variant = "nfp" if opt.value == 1 else "nfn"
    fc = find_column(scaled, 0.1, 15, "analytic", None, stats, variant=variant,
                     recover_with_nfp=opt.value == 0)
    got = ((opt.value, opt.ok, len(opt.marked), sum(opt.marked)),
           (fc.column, fc.variant, fc.ok, len(fc.marked), sum(fc.marked)),
           fc.reduced_cost_scaled)
    assert got == PRICING_CASES[error_mode]
    assert tuple(stats.as_dict().values()) == PRICING_COUNTERS


@pytest.mark.parametrize("error_mode", ["zero", "worst"])
def test_analytic_pricing_runs_few_columns_alone(monkeypatch, error_mode):
    # the m=64 pivot pinned above decides its CanEnter sweeps and its row
    # sweeps in array passes: every boosted vote is a _sign_votes call
    # on a whole sweep (every nonbasic column or every row), none on an
    # entry of its own, and a sweep builds the sign-estimation tables of all
    # its entries whose bracketing grid points straddle the threshold in one
    # call, if any
    import qsimplex.primitives as primitives
    import qsimplex.subroutines as subroutines

    tables, sweeps, votes = [], [], []

    def counting(calls, function):
        def wrapped(*args, **kwargs):
            calls.append(args[0])
            return function(*args, **kwargs)
        return wrapped

    for module in (primitives, subroutines):
        monkeypatch.setattr(module, "ae_distribution",
                            counting(tables, module.ae_distribution))
    monkeypatch.setattr(subroutines, "_analytic_sign_values",
                        counting(sweeps, subroutines._analytic_sign_values))
    monkeypatch.setattr(subroutines, "_sign_votes",
                        counting(votes, subroutines._sign_votes))
    inst = random_lp(64, 192, seed=0)
    out = simplex_iter(inst, dantzig_basis(inst, 24), PrecisionParams(),
                       "analytic", error_mode, np.random.default_rng(24))
    assert (out.status, out.entering, out.leaving_row) == ("pivot", 1, 53)
    assert 1 <= len(tables) <= len(sweeps) == len(votes)
    # IsUnbounded's rows and FindRow's gate; IsOptimal's sweep, FindColumn's
    # and its "nfp" retry over the 128 nonbasic columns
    assert sorted(alpha.size for alpha in votes) == [64, 64, 128, 128, 128]


@pytest.mark.parametrize("mode", ["analytic", "sampling"])
def test_worst_error_never_prepares_a_state(monkeypatch, mode):
    # under worst error every read comes from the closed form; only random
    # error draws solver states
    from qsimplex import qlsa

    def no_state(*args, **kwargs):
        raise AssertionError("a solver state was prepared under worst error")

    monkeypatch.setattr(qlsa.IdealQlsa, "solve", no_state)
    monkeypatch.setattr(qlsa, "inject_error", no_state)
    inst = random_lp(16, 48, seed=7)
    out = simplex_iter(inst, dantzig_basis(inst, 6), PrecisionParams(), mode,
                       "worst", np.random.default_rng(6))
    assert out.status == "pivot"


def test_analytic_random_error_reads_each_sweep_at_once(monkeypatch):
    # the m=64 pivot pinned above, under random error: each sweep, and each
    # of FindRow's two AE components, draws its reads in one oracle call
    # (7 at most: IsOptimal, FindColumn and its nfp retry, IsUnbounded,
    # the FindRow gate, numerators and denominators)
    from qsimplex import qlsa

    calls = []
    solve = qlsa.IdealQlsa.solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qlsa.IdealQlsa, "solve", counting)
    inst = random_lp(64, 192, seed=0)
    out = simplex_iter(inst, dantzig_basis(inst, 24), PrecisionParams(),
                       "analytic", "random", np.random.default_rng(24))
    assert out.status == "pivot"
    assert len(calls) <= 7


@pytest.mark.parametrize("mode,error_mode", [("analytic", "worst"),
                                             ("sampling", "random")])
def test_simplex_iter_solves_once(monkeypatch, mode, error_mode):
    # one dense factorization per basis: normalize's SVD, then one solve of
    # the nonbasic columns and b on the k x k block of the k non-unit basic
    # columns; every exact solution an iteration reads comes from these
    inst = random_lp(8, 24, seed=3)
    basis = dantzig_basis(inst, 5)
    svds, solved, built = [], [], []
    svd, solve, build = np.linalg.svd, np.linalg.solve, ScaledBasis.build

    def counting_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    def counting_solve(a, b):
        solved.append(np.shape(b))
        return solve(a, b)

    def recording_build(cls, *args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(ScaledBasis, "build", classmethod(recording_build))
    out = simplex_iter(inst, basis, PrecisionParams(), mode, error_mode,
                       np.random.default_rng(0))
    assert out.status == "pivot"
    m, n = inst.m, inst.n
    assert len(svds) == 1
    k = int(np.count_nonzero(inst.unit_row[list(basis)] < 0))
    assert 0 < k < m
    assert solved == [(k, n - m + 1)]
    (scaled,) = built
    nonbasic = list(scaled.state.nonbasic)
    assert np.array_equal(scaled.solutions[:, list(basis)], np.eye(m))
    s = scaled.state.matrix_scale
    full = solve(s * inst.dense()[:, list(scaled.state.basis)],
                 s * np.column_stack([inst.dense(), inst.b]))
    assert np.allclose(scaled.solutions[:, nonbasic + [n]], full[:, nonbasic + [n]],
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode,error_mode",
                         [("analytic", "worst"), ("sampling", "worst"),
                          ("analytic", "random"), ("sampling", "random")],
                         ids=["analytic", "sampling", "analytic-random",
                              "sampling-random"])
def test_one_row_worst_error_pivots(mode, error_mode):
    # a one-row basis: every row read has alpha0 = +-1, where the worst-case
    # rotation has no plane of its own and a random one no direction to
    # turn in, so the read is cos(phi) alpha0
    A = np.array([[1.0, 2.0, 1.0]])
    inst = LpInstance.from_dense(A, [1.0], [0.0, -1.0, 0.0])
    out = simplex_iter(inst, (0,), PrecisionParams(), mode, error_mode,
                       np.random.default_rng(0))
    assert (out.status, out.entering, out.leaving_row) == ("pivot", 1, 0)


def test_analytic_pivot_builds_only_small_tables(monkeypatch):
    # the m=64 pivot pinned above: its 18-bit ratio-test readouts come from
    # the grid points next to the true phase, so the only kernel tables
    # built are sign-estimation tables of at most 12 bits for the entries
    # whose bracketing grid points straddle the threshold
    import qsimplex.primitives as primitives
    import qsimplex.subroutines as subroutines

    bits = []

    def recording(builder):
        def wrapped(a, n_bits):
            bits.append(n_bits)
            return builder(a, n_bits)
        return wrapped

    for module in (primitives, subroutines):
        monkeypatch.setattr(module, "ae_distribution", recording(module.ae_distribution))
    inst = random_lp(64, 192, seed=0)
    out = simplex_iter(inst, dantzig_basis(inst, 24), PrecisionParams(),
                       "analytic", "zero", np.random.default_rng(24))
    assert (out.status, out.entering, out.leaving_row) == ("pivot", 1, 53)
    assert bits and max(bits) <= 12


def test_sampling_pivot_builds_no_ratio_test_table(monkeypatch):
    # the pinned sampling/worst pivot of m=16: its 18-bit ratio-test draws
    # are decided near the kernel peaks, so no 2^18 table is built; the only
    # tables built are the sweeps' sign-estimation tables of at most 12 bits
    import qsimplex.primitives as primitives
    import qsimplex.subroutines as subroutines

    bits = []

    def recording(builder):
        def wrapped(a, n_bits):
            bits.append(n_bits)
            return builder(a, n_bits)
        return wrapped

    for module in (primitives, subroutines):
        monkeypatch.setattr(module, "ae_distribution", recording(module.ae_distribution))
    inst = random_lp(16, 48, seed=7)
    out = simplex_iter(inst, dantzig_basis(inst, 6), PrecisionParams(),
                       "sampling", "worst", np.random.default_rng(6))
    verdict = (out.status, out.entering, out.leaving_row, bool(out.ok))
    assert verdict == ("pivot", 13, 2, True)
    assert bits and max(bits) <= 12


def test_sampling_builds_tables_once_per_sweep(monkeypatch):
    # the pinned sampling/worst pivot of m=16: each sweep maps all its
    # entries through one set of quantile tables, FindRow builds at most
    # three (gate, numerators and denominators together, and one spare),
    # and FindColumn's confirmations draw through their sweep's tables; an
    # entry never builds a table of its own
    import qsimplex.subroutines as subroutines

    builds, sweeps, confirmations = [], [], []

    def counting(calls, function):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return function(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(subroutines, "AEQuantiles",
                        counting(builds, subroutines.AEQuantiles))
    monkeypatch.setattr(subroutines, "can_enter",
                        _counting_can_enter(sweeps, confirmations))
    inst = random_lp(16, 48, seed=7)
    out = simplex_iter(inst, dantzig_basis(inst, 6), PrecisionParams(),
                       "sampling", "worst", np.random.default_rng(6))
    assert (out.status, out.entering, out.leaving_row) == ("pivot", 13, 2)
    # pricing sweeps, IsUnbounded's rows, FindRow; the sampled QSearch
    # returns only a confirmed column, yet no confirmation read afresh
    assert sweeps and len(builds) <= len(sweeps) + 1 + 3
    assert not confirmations


def test_sampling_random_error_confirms_through_can_enter(monkeypatch):
    # the pinned sampling/random optimum of m=8: under random error each
    # FindColumn confirmation prepares fresh states, read and voted by
    # CanEnter on its one column, the same function as the sweeps
    import qsimplex.subroutines as subroutines

    sweeps, confirmations = [], []
    monkeypatch.setattr(subroutines, "can_enter",
                        _counting_can_enter(sweeps, confirmations))
    inst = random_bounded_lp(8, 24, seed=2)
    rng = np.random.default_rng(9)
    out = simplex_iter(inst, dantzig_basis(inst, 9), PrecisionParams(),
                       "sampling", "random", rng)
    assert (out.status, bool(out.ok)) == ("optimal", True)
    assert float(rng.random()).hex() == NEXT_DRAWS["random_bounded_lp", 2, 9, "random"]
    assert len(confirmations) == 19
    assert all(len(columns) == 1 for columns in confirmations)


def _counting_can_enter(sweeps, confirmations):
    """``subroutines.can_enter``, recording the columns of each call: a
    sweep's in ``sweeps``, a one-column confirmation's in ``confirmations``."""
    import qsimplex.subroutines as subroutines

    can_enter = subroutines.can_enter

    def wrapped(*args, columns=slice(None), **kwargs):
        (sweeps if isinstance(columns, slice) else confirmations).append(columns)
        return can_enter(*args, columns=columns, **kwargs)
    return wrapped


def test_find_row_failure_is_named():
    # the entering column's largest direction component sits between the
    # IsUnbounded and FindRow thresholds, so no row passes the FindRow gate
    inst = random_lp(64, 192, seed=0)
    out = simplex_iter(inst, dantzig_basis(inst, 52), PrecisionParams(),
                       "analytic", "zero", np.random.default_rng(0))
    assert out.status == "failure"
    assert out.diagnostics["failure"] == "no_positive_denominator"


def test_singular_start_basis_fails_with_reason():
    A = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]])  # columns 0 and 1 dependent
    inst = LpInstance.from_dense(A, [1.0, 1.0], [1.0, 1.0, 1.0])
    res = solve_quantum(inst, (0, 1), PrecisionParams())
    assert res.status == "failure"
    assert res.outcomes[0].diagnostics["failure"].startswith("BasisSingular(")


def test_programming_errors_propagate(monkeypatch):
    import qsimplex.subroutines as subroutines

    def broken(*args, **kwargs):
        raise TypeError("not a numerical dead end")

    monkeypatch.setattr(subroutines, "simplex_iter", broken)
    inst = random_bounded_lp(3, 6, seed=3)
    with pytest.raises(TypeError):
        solve_quantum(inst, slack_identity_basis(inst), PrecisionParams())
