"""Evaluation of the tracked complexity formulas, with unit constants.

Asymptotic expressions are turned into numbers by setting every hidden
constant to 1, every suppressed polylog factor to 1, and o(1) exponent
terms to 0; explicit logarithms are base 2 and clamped below at 1 so the
formulas stay positive for degenerate tiny arguments (``kappa/eps = 2``
gives a log term of exactly 1).  Reports always carry the symbolic
formula next to the numeric value to avoid implying false precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class ThresholdViolation(ValueError):
    """Column splitting requested below the n/m threshold."""


def _log2c(x: float) -> float:
    """Base-2 log clamped to >= 1 (evaluating polylog-free formulas)."""
    return max(math.log2(x), 1.0) if x > 0 else 1.0


def qlsa_query_counts(d: int, kappa: float, eps: float, m: int) -> dict:
    """Query/gate counts of the sparse QLSA: ``d k^2 log^2.5(k/eps)``
    queries to the matrix oracle, ``k sqrt(log(k/eps))`` queries to the
    right-hand-side oracle, and the stated additional gate term."""
    ell = _log2c(kappa / eps)
    p_ab = d * kappa ** 2 * ell ** 2.5
    p_b = kappa * math.sqrt(ell)
    gates = p_ab * (_log2c(m) + ell ** 2.5)
    return {"p_ab_queries": p_ab, "p_b_queries": p_b, "gates": gates}


def qlsa_qram_cost(mu_ab: float, kappa: float) -> float:
    """Block-encoding QLSA from quantum storage: ``mu(A_B) k^2``."""
    return mu_ab * kappa ** 2


def classical_pricing_cost(m: int, n: int, d_c: int) -> float:
    """Worst-case classical pricing ``d_c^0.7 m^1.9 + m^2 + d_c n``
    (fast sparse factorization plus the reduced-cost pass)."""
    if min(m, n, d_c) < 1:
        raise ValueError("inputs must be positive")
    return d_c ** 0.7 * m ** 1.9 + m ** 2 + d_c * n


def split_threshold(m: int, n: int, d_c: int, d: int, kappa: float) -> bool:
    """True when ``n/m >= 2 kappa d^2 / d_c`` (splitting admissible)."""
    return n / m >= 2.0 * kappa * d ** 2 / d_c


def column_split(n: int, m: int, d_c: int, d: int, kappa: float) -> int | None:
    """Optimal number of column blocks ``h = n d_c / (kappa d^2 m)``,
    floored; None when the threshold condition fails (h would fall
    below 2, a degenerate split)."""
    if min(n, m, d_c, d) < 1 or kappa < 1:
        raise ValueError("inputs must be >= 1")
    if not split_threshold(m, n, d_c, d, kappa):
        return None
    return int(math.floor(n * d_c / (kappa * d ** 2 * m)))


def quantum_pricing_cost(m: int, n: int, d_c: int, d: int, kappa: float,
                         eps: float, qram: bool = False,
                         split: bool = False) -> float:
    """Gate cost of one pricing pass (FindColumn / IsOptimal).

    Without splitting: ``(1/eps) sqrt(n) (k d_c n + k^2 d^2 m)``; with
    splitting into h blocks the Grover pass runs per block on ``n/h``
    columns; with qRAM: ``(1/eps) k^2 sqrt(mn)``.
    """
    if qram:
        return kappa ** 2 * math.sqrt(m * n) / eps
    if split:
        h = column_split(n, m, d_c, d, kappa)
        if h is None:
            raise ThresholdViolation(
                f"n/m = {n / m:.3g} below split threshold {2 * kappa * d ** 2 / d_c:.3g}")
        nb = n / h
        return h * math.sqrt(nb) * (kappa * d_c * nb + kappa ** 2 * d ** 2 * m) / eps
    return math.sqrt(n) * (kappa * d_c * n + kappa ** 2 * d ** 2 * m) / eps


def quantum_ratio_test_cost(m: int, d: int, kappa: float, delta: float,
                            t: float, qram: bool = False,
                            unbounded_variant: bool = False) -> float:
    """Gate cost of FindRow ``(t/delta) k^2 d^2 m^1.5`` (the IsUnbounded
    variant drops the factor t); with qRAM the m exponent drops to 1."""
    t_factor = 1.0 if unbounded_variant else t
    if qram:
        return t_factor / delta * kappa ** 2 * m
    return t_factor / delta * kappa ** 2 * d ** 2 * m ** 1.5


def s_p(matrix, p: float) -> float:
    """``max_i sum_j |A_ij|^p`` over stored nonzeros (rows of A)."""
    A = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    absA = np.abs(A)
    powA = np.where(absA > 0, absA ** p, 0.0)
    return float(powA.sum(axis=1).max())


def mu(matrix, p: float) -> float:
    """Block-encoding normalization ``min(|A|_F, sqrt(s_2p(A) s_2(1-p)(A')))``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    A = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    fro = float(np.linalg.norm(A))
    cand = math.sqrt(s_p(A, 2 * p) * s_p(A.T, 2 * (1 - p)))
    return min(fro, cand)


def mu_opt(matrix) -> float:
    """mu minimized over the p-grid {0, 0.1, ..., 1}."""
    return min(mu(matrix, i / 10) for i in range(11))


@dataclass
class CostReport:
    """Instance statistics plus every predicted cost formula, alongside
    measured query counters when a trace is supplied."""

    m: int
    n: int
    d_c: int
    d: int
    kappa: float
    mu_ab: float
    frobenius_an: float
    eps: float
    delta: float
    t: float
    split_h: int | None
    entries: list[dict] = field(default_factory=list)
    measured: dict | None = None
    mu_bound_ok: bool = True

    def as_dict(self) -> dict:
        return {
            "schema_version": 1,
            "instance": {"m": self.m, "n": self.n, "d_c": self.d_c, "d": self.d,
                         "kappa": self.kappa, "mu_ab": self.mu_ab,
                         "frobenius_an": self.frobenius_an},
            "params": {"eps": self.eps, "delta": self.delta, "t": self.t},
            "split_h": self.split_h,
            "mu_bound_ok": self.mu_bound_ok,
            "formulas": self.entries,
            "measured": self.measured,
        }

    def render_text(self) -> str:
        rows = [("formula", "symbolic", "value")]
        rows += [(e["name"], e["symbolic"], f"{e['value']:.6g}") for e in self.entries]
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = ["  ".join(r[i].ljust(widths[i]) for i in range(3)) for r in rows]
        header = (f"m={self.m} n={self.n} d_c={self.d_c} d={self.d} "
                  f"kappa={self.kappa:.4g} mu(A_B)={self.mu_ab:.4g} "
                  f"|A_N|_F={self.frobenius_an:.4g} split_h={self.split_h}")
        return "\n".join([header, *lines])


COST_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "instance", "params", "formulas"],
    "properties": {
        "schema_version": {"const": 1},
        "instance": {
            "type": "object",
            "required": ["m", "n", "d_c", "d", "kappa", "mu_ab", "frobenius_an"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
                "d_c": {"type": "integer", "minimum": 1},
                "d": {"type": "integer", "minimum": 1},
                "kappa": {"type": "number", "minimum": 1},
                "mu_ab": {"type": "number"},
                "frobenius_an": {"type": "number"},
            },
        },
        "params": {"type": "object"},
        "split_h": {"type": ["integer", "null"]},
        "mu_bound_ok": {"type": "boolean"},
        "formulas": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "symbolic", "value"],
                "properties": {
                    "name": {"type": "string"},
                    "symbolic": {"type": "string"},
                    "value": {"type": "number"},
                },
            },
        },
        "measured": {"type": ["object", "null"]},
    },
}


def build_cost_report(instance, state, eps: float = 0.1, delta: float = 0.1,
                      t: float = 100.0, measured: dict | None = None) -> CostReport:
    """Evaluate every cost formula for one (instance, basis) pair."""
    AB = state.matrix_scale * instance.dense()[:, list(state.basis)]
    m, n = instance.m, instance.n
    d_c, d, kappa = instance.col_nnz_max, state.sparsity, state.kappa
    mu_ab = mu_opt(AB)
    AN = instance.A[:, list(state.nonbasic)]
    fro = float(np.sqrt((AN.multiply(AN)).sum())) if state.nonbasic else 0.0
    h = column_split(n, m, d_c, d, kappa)

    entries = [
        {"name": "classical_pricing",
         "symbolic": "d_c^0.7 m^1.9 + m^2 + d_c n",
         "value": classical_pricing_cost(m, n, d_c)},
        {"name": "quantum_pricing",
         "symbolic": "(1/eps) sqrt(n) (k d_c n + k^2 d^2 m)",
         "value": quantum_pricing_cost(m, n, d_c, d, kappa, eps)},
        {"name": "quantum_pricing_qram",
         "symbolic": "(1/eps) k^2 sqrt(mn)",
         "value": quantum_pricing_cost(m, n, d_c, d, kappa, eps, qram=True)},
        {"name": "classical_ratio_test", "symbolic": "m^2", "value": float(m * m)},
        {"name": "quantum_ratio_test",
         "symbolic": "(t/delta) k^2 d^2 m^1.5",
         "value": quantum_ratio_test_cost(m, d, kappa, delta, t)},
        {"name": "quantum_ratio_test_qram",
         "symbolic": "(t/delta) k^2 m",
         "value": quantum_ratio_test_cost(m, d, kappa, delta, t, qram=True)},
        {"name": "is_unbounded",
         "symbolic": "(1/delta) k^2 d^2 m^1.5",
         "value": quantum_ratio_test_cost(m, d, kappa, delta, t, unbounded_variant=True)},
        {"name": "qlsa_p_ab", "symbolic": "d k^2 log^2.5(k/eps)",
         "value": qlsa_query_counts(d, kappa, eps, m)["p_ab_queries"]},
        {"name": "qlsa_p_b", "symbolic": "k sqrt(log(k/eps))",
         "value": qlsa_query_counts(d, kappa, eps, m)["p_b_queries"]},
        {"name": "qlsa_qram", "symbolic": "mu(A_B) k^2",
         "value": qlsa_qram_cost(mu_ab, kappa)},
        {"name": "qram_prepare", "symbolic": "d_c n", "value": float(d_c * n)},
        {"name": "qram_update", "symbolic": "m", "value": float(m)},
    ]
    if h is not None:
        entries.insert(2, {
            "name": "quantum_pricing_split",
            "symbolic": "(1/eps) h sqrt(n/h) (k d_c n/h + k^2 d^2 m)",
            "value": quantum_pricing_cost(m, n, d_c, d, kappa, eps, split=True)})

    return CostReport(m=m, n=n, d_c=d_c, d=d, kappa=kappa, mu_ab=mu_ab,
                      frobenius_an=fro, eps=eps, delta=delta, t=t, split_h=h,
                      entries=entries, measured=measured,
                      mu_bound_ok=mu_ab <= math.sqrt(m) + 1e-9)
