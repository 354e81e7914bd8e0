"""Per-op checker: what each verdict must satisfy, computed with numpy from
the instance data alone.

The bounds are the ones the method states for each verdict, on the scaled
system the program decides on (costs times ``1/|c_B|``, or unscaled when
``c_B = 0``), with ``c_bar`` the scaled reduced cost and
``|.| = |(u_k, c_k/|c_B|)|``:

* pivot -- the entering column meets its variant's pricing certificate
  (``nfn``: ``c_bar_k < -eps |.|``; the ``nfp`` recovery:
  ``c_bar_k < (14/30) eps |.|``), and the leaving row has ``u_r > 0`` and
  ``x_r/u_r <= (2t+1)/(2t-1) min_{u_h > delta|u|} x_h/u_h
  + 2/(2t-1) |x|/|u|``;
* optimal -- every nonbasic column has ``c_bar_j >= -2.2 eps |.|``;
* unbounded -- the entering column meets its certificate and every
  ``u_h < delta |u|``;
* failure -- never correct.

A wrong answer is put down to one of two known faults of FindRow when it
has that fault's signature; every other wrong answer is unexpected.  Both
faults come from FindRow's denominator gate, which decides wrongly on
components between ``BAND[0] |u|`` and ``BAND[1] |u|``:

* ``GAP`` -- a failure verdict whose direction has no component above
  ``BAND[1] |u|`` (IsUnbounded saw one above its threshold, the gate let
  none through);
* ``GATE`` -- a leaving row above the ratio bound that has
  ``u_r >= BAND[0] |u|`` and meets the bound once the rows in the band are
  left out of the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRICING_FACTOR = {"nfn": -1.0, "nfp": 14.0 / 30.0}
OPTIMAL_FACTOR = -2.2
BAND = (0.05, 0.16)
GAP = "IsUnbounded/FindRow gap: failure no_positive_denominator"
GATE = "FindRow gate at delta/2: leaving row above the ratio bound"


@dataclass(frozen=True)
class Verdict:
    status: str                # "pivot" | "optimal" | "unbounded" | "failure" | "price"
    entering: int | None = None
    leaving_row: int | None = None
    variant: str = "nfn"       # pricing variant that chose ``entering``
    is_optimal: int | None = None  # IsOptimal's answer, for a pricing step


@dataclass(frozen=True)
class Finding:
    problem: str = ""          # empty when the verdict holds
    fault: str = ""            # GAP or GATE when the problem has its signature

    @property
    def unexpected(self) -> bool:
        return bool(self.problem) and not self.fault


class Reference:
    """Exact basis quantities of one op: ``x_B``, scaled reduced costs,
    every nonbasic direction ``u_j = A_B^-1 A_j`` and the pricing norms."""

    def __init__(self, A, b, c, basis):
        self.basis = tuple(basis)
        n = A.shape[1]
        self.nonbasic = np.array([j for j in range(n) if j not in set(self.basis)])
        B = A[:, list(self.basis)]
        self.x = np.linalg.solve(B, b)
        c_B_norm = float(np.linalg.norm(c[list(self.basis)]))
        cs = c / c_B_norm if c_B_norm > 0 else c
        y = np.linalg.solve(B.T, cs[list(self.basis)])
        self.cbar = cs - y @ A
        self.U = np.zeros_like(A)
        self.U[:, self.nonbasic] = np.linalg.solve(B, A[:, self.nonbasic])
        self.norm = np.hypot(np.linalg.norm(self.U, axis=0), cs)

    def pricing_ok(self, k: int, variant: str, eps: float) -> bool:
        return bool(k in self.nonbasic
                    and self.cbar[k] < PRICING_FACTOR[variant] * eps * self.norm[k])

    def optimal_ok(self, eps: float) -> bool:
        j = self.nonbasic
        return bool(np.all(self.cbar[j] >= OPTIMAL_FACTOR * eps * self.norm[j]))

    def ratio_bound(self, k: int, delta: float, t: float) -> float:
        u, x = self.U[:, k], self.x
        mask = u > delta * np.linalg.norm(u)
        best = float((x[mask] / u[mask]).min()) if mask.any() else np.inf
        return ((2 * t + 1) / (2 * t - 1) * best
                + 2.0 / (2 * t - 1) * np.linalg.norm(x) / np.linalg.norm(u))

    def row_ok(self, k: int, r: int, delta: float, t: float) -> bool:
        u_r = self.U[r, k]
        return bool(u_r > 0 and self.x[r] / u_r <= self.ratio_bound(k, delta, t) + 1e-9)

    def unbounded_ok(self, k: int, delta: float) -> bool:
        u = self.U[:, k]
        return bool(np.all(u < delta * np.linalg.norm(u)))

    def largest_share(self, k: int) -> float:
        """The largest component of ``u_k`` over ``|u_k|``."""
        u = self.U[:, k]
        return float(u.max() / np.linalg.norm(u))

    def check(self, v: Verdict, eps: float, delta: float, t: float) -> Finding:
        if v.status == "optimal":
            return Finding() if self.optimal_ok(eps) else \
                Finding("optimal with a column below -2.2 eps")
        if v.status not in ("pivot", "unbounded", "failure"):
            return Finding(f"unknown status {v.status!r}")
        if not self.pricing_ok(v.entering, v.variant, eps):
            return Finding(f"entering column {v.entering} fails the {v.variant} certificate")
        k = v.entering
        if v.status == "failure":
            return Finding("failure verdict", GAP if self.largest_share(k) <= BAND[1] else "")
        if v.status == "unbounded":
            return Finding() if self.unbounded_ok(k, delta) else \
                Finding("unbounded with a component above delta |u|")
        if self.row_ok(k, v.leaving_row, delta, t):
            return Finding()
        problem = f"leaving row {v.leaving_row} above the ratio bound"
        u_r = self.U[v.leaving_row, k]
        in_band = (u_r >= BAND[0] * np.linalg.norm(self.U[:, k])
                   and self.x[v.leaving_row] / u_r <= self.ratio_bound(k, BAND[1], t) + 1e-9)
        return Finding(problem, GATE if in_band else "")

    def check_pricing(self, is_optimal: int, column: int | None, variant: str,
                      eps: float) -> Finding:
        """A pricing step: the returned column meets its certificate, and an
        IsOptimal verdict of 1 or an empty search needs the -2.2 eps one."""
        if column is not None and not self.pricing_ok(column, variant, eps):
            return Finding(f"column {column} fails the {variant} certificate")
        if (is_optimal == 1 or column is None) and not self.optimal_ok(eps):
            return Finding("optimal with a column below -2.2 eps")
        return Finding()


def self_test(A, b, c, basis, eps: float, delta: float, t: float) -> list[str]:
    """Plant wrong answers on one basis.  Returns the planted answers the
    checker accepted or put down to a known fault they do not have, and the
    kinds of wrong answer the basis could not supply; an empty list means
    every kind was planted and judged as it should be."""
    ref = Reference(A, b, c, basis)
    nb = [int(k) for k in ref.nonbasic]
    priced = [k for k in nb if ref.pricing_ok(k, "nfn", eps)]
    x, U = ref.x, ref.U

    def priced_wrong(variant):   # columns the variant's certificate rules out
        bar = max(PRICING_FACTOR[variant], 0.0) * eps
        return [k for k in nb if ref.cbar[k] >= bar * ref.norm[k]]

    def above_bound(k, r, threshold):
        return U[r, k] > 0 and x[r] / U[r, k] > ref.ratio_bound(k, threshold, t) + 1e-6

    planted = {   # kind -> [(verdict, fault the checker must name)]
        "entering column with c_bar >= 0": [
            (Verdict("pivot", k, 0, variant), "") for variant in ("nfn", "nfp")
            for k in priced_wrong(variant)],
        "leaving row above the ratio bound, outside the band": [
            (Verdict("pivot", k, r, "nfn"), "") for k in priced for r in range(len(x))
            if above_bound(k, r, BAND[1])],
        "leaving row with u_r <= 0": [
            (Verdict("pivot", k, r, "nfn"), "") for k in priced for r in range(len(x))
            if U[r, k] <= 0],
        "unbounded with a component above delta |u|": [
            (Verdict("unbounded", k), "") for k in priced if not ref.unbounded_ok(k, delta)],
        "failure with a component above the band": [
            (Verdict("failure", k), "") for k in priced
            if U[:, k].max() > BAND[1] * np.linalg.norm(U[:, k])],
        "optimal with a column below -2.2 eps": (
            [] if ref.optimal_ok(eps) else [(Verdict("optimal"), "")]),
    }
    wrong_pricing = {
        "priced column with c_bar >= 0": [
            (1, k, "nfp") for k in priced_wrong("nfp")] + [
            (0, k, "nfn") for k in priced_wrong("nfn")],
        "priced step ending optimal with a column below -2.2 eps": (
            [] if ref.optimal_ok(eps) else [(1, None, "nfp"), (0, None, "nfn")]),
    }
    problems = [f"no {kind} to plant" for kind, wrong in {**planted, **wrong_pricing}.items()
                if not wrong]
    for wrong in planted.values():
        for v, fault in wrong:
            found = ref.check(v, eps, delta, t)
            if not found.problem or found.fault != fault:
                problems.append(f"{v!r} judged {found!r}")
    for wrong in wrong_pricing.values():
        for answer in wrong:
            if not ref.check_pricing(*answer, eps).problem:
                problems.append(f"pricing {answer!r} accepted")
    return problems
