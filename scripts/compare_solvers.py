#!/usr/bin/env python3
"""Head-to-head: classical simplex vs the quantum-simulated loop over a
batch of seeded instances, reporting objectives, certificates, and the
predicted quantum-vs-classical pricing costs.

    python scripts/compare_solvers.py --count 10 --m 4 --n 10
"""

import argparse

import numpy as np

from qsimplex.classical import OPTIMAL_FACTOR, pricing_terms, solve_classical
from qsimplex.costmodel import classical_pricing_cost, quantum_pricing_cost
from qsimplex.instances import random_bounded_lp
from qsimplex.lp import normalize, slack_identity_basis
from qsimplex.subroutines import PrecisionParams, solve_quantum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--mode", default="sampling",
                        choices=("analytic", "sampling"))
    parser.add_argument("--qlsa-error", default="zero",
                        choices=("zero", "worst", "random"))
    args = parser.parse_args()

    params = PrecisionParams(eps=args.epsilon, delta=args.delta)
    print(f"{'seed':>5} {'classical':>12} {'quantum':>12} {'gap':>9} "
          f"{'iters':>5} {'certified':>9}")
    gaps = []
    for i in range(args.count):
        inst = random_bounded_lp(args.m, args.n, seed=args.seed + i)
        basis = slack_identity_basis(inst)
        classical = solve_classical(inst, basis, rule="dantzig")
        quantum = solve_quantum(inst, basis, params, mode=args.mode,
                                error_mode=args.qlsa_error, seed=args.seed + i)
        if quantum.status != "optimal":
            print(f"{args.seed + i:>5} {classical.objective:>12.6f} "
                  f"{quantum.status:>12} {'-':>9} {quantum.iterations:>5}")
            continue
        cbar, norm = pricing_terms(inst, quantum.basis)
        certified = bool(np.all(cbar >= OPTIMAL_FACTOR * params.eps * norm - 1e-9))
        gap = quantum.objective - classical.objective
        gaps.append(gap)
        print(f"{args.seed + i:>5} {classical.objective:>12.6f} "
              f"{quantum.objective:>12.6f} {gap:>9.2e} "
              f"{quantum.iterations:>5} {str(certified):>9}")

    if gaps:
        print(f"\nmax objective gap: {max(np.abs(gaps)):.3e} over {len(gaps)} runs")
    inst = random_bounded_lp(args.m, args.n, seed=args.seed)
    state = normalize(inst, slack_identity_basis(inst))
    print(f"predicted pricing cost (one iteration, unit constants): "
          f"classical {classical_pricing_cost(inst.m, inst.n, inst.col_nnz_max):.3g}, "
          f"quantum {quantum_pricing_cost(inst.m, inst.n, inst.col_nnz_max, state.sparsity, state.kappa, args.epsilon):.3g}")


if __name__ == "__main__":
    main()
