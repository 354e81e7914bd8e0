#!/usr/bin/env python3
"""Measure query-count scaling of the estimation and search primitives.

Produces the two scaling fits the acceptance battery checks (amplitude-
estimation repetitions vs 1/eps, Grover iterations vs domain size) plus a
sweep of sign-estimation acceptance curves, as JSON for plotting.

    python scripts/scaling_study.py --out scaling.json
"""

import argparse
import json

import numpy as np

from qsimplex.primitives import QueryStats, _charge_pe, qsearch
from qsimplex.subroutines import sign_est_prob_one, sign_est_spec


def ae_repetitions_vs_eps(eps_values):
    rows = []
    for eps in eps_values:
        stats = QueryStats()
        _charge_pe(stats, sign_est_spec(float(eps), "nfn").bits)
        rows.append({"eps": float(eps), "ae_repetitions": stats.ae_repetitions})
    slope = np.polyfit(np.log([r["eps"] for r in rows]),
                       np.log([r["ae_repetitions"] for r in rows]), 1)[0]
    return {"rows": rows, "loglog_slope": float(slope)}


def grover_iterations_vs_n(sizes, runs, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        totals = []
        for _ in range(runs):
            stats = QueryStats()
            qsearch(range(n), {0}, rng, stats)
            totals.append(stats.grover_iterations)
        rows.append({"n": int(n), "mean_iterations": float(np.mean(totals)),
                     "std": float(np.std(totals))})
    expo = np.polyfit(np.log([r["n"] for r in rows]),
                      np.log([r["mean_iterations"] for r in rows]), 1)[0]
    return {"rows": rows, "fitted_exponent": float(expo)}


def acceptance_curves(eps_values, grid_points):
    grid = np.linspace(-1.0, 1.0, grid_points)
    curves = {}
    for eps in eps_values:
        curves[str(eps)] = {
            kind: sign_est_prob_one(grid, float(eps), kind).tolist()
            for kind in ("nfn", "nfp", "nfn_plus", "nfp_plus")}
    return {"alpha_grid": grid.tolist(), "curves": curves}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None)
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    doc = {
        "ae_vs_eps": ae_repetitions_vs_eps([0.2, 0.1, 0.05, 0.025]),
        "grover_vs_n": grover_iterations_vs_n([8, 16, 32, 64],
                                              args.runs, args.seed),
        "sign_est_curves": acceptance_curves([0.05, 0.1, 0.2], 81),
    }
    print(f"AE repetitions log-log slope vs eps: "
          f"{doc['ae_vs_eps']['loglog_slope']:.3f} (target -1)")
    print(f"Grover iterations exponent vs n:     "
          f"{doc['grover_vs_n']['fitted_exponent']:.3f} (target 0.5)")
    for row in doc["grover_vs_n"]["rows"]:
        print(f"  n={row['n']:>3}  mean iterations {row['mean_iterations']:.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
