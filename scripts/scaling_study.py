#!/usr/bin/env python3
"""Measure query-count scaling of the estimation and search primitives.

Produces the two scaling fits the acceptance battery checks (amplitude-
estimation repetitions vs 1/eps, Grover iterations vs domain size), both
from ``qsimplex.verify.scaling_suite``, plus a sweep of sign-estimation
acceptance curves, as JSON for plotting.

    python scripts/scaling_study.py --out scaling.json
"""

import argparse
import json

import numpy as np

from qsimplex.subroutines import sign_est_prob_one
from qsimplex.verify import scaling_suite


def scaling_fits(runs, seed):
    """The suite's two fits, with the per-size mean and spread of the
    Grover iteration counts."""
    d = scaling_suite(seed=seed, grover_runs=runs).details
    return {
        "ae_vs_eps": {
            "rows": [{"eps": eps, "ae_repetitions": count}
                     for eps, count in zip(d["eps_values"], d["ae_counts"])],
            "loglog_slope": d["slope"]},
        "grover_vs_n": {
            "rows": [{"n": n, "mean_iterations": float(np.mean(counts)),
                      "std": float(np.std(counts))}
                     for n, counts in zip(d["sizes"], d["grover_iterations"])],
            "fitted_exponent": d["exponent"]},
    }


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

    doc = {**scaling_fits(args.runs, args.seed),
           "sign_est_curves": acceptance_curves([0.05, 0.1, 0.2], 81)}
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
