"""qsimplex: desk-scale simulation of quantum simplex subroutines.

A classical simplex reference oracle plus faithful simulations of the
quantum pricing, optimality, unboundedness, and ratio-test routines, with
exact outcome distributions for every estimation primitive and query/gate
accounting against the stated complexity formulas.
"""

from .classical import (ClassicalPivotReport, ClassicalSolution, ratio_test,
                        reduced_costs, solve_classical)
from .costmodel import (CostReport, ThresholdViolation, build_cost_report,
                        classical_pricing_cost, column_split, mu, mu_opt,
                        qlsa_query_counts, quantum_pricing_cost,
                        quantum_ratio_test_cost)
from .io import read_instance, read_lp_json, read_mps, write_lp_json
from .lp import (BasisSingular, BasisState, LpInstance, ZeroColumn,
                 normalize, slack_identity_basis)
from .primitives import (AllInfinite, QueryStats, amplitude_estimation,
                         min_finding, qsearch)
from .qlsa import IdealQlsa
from .subroutines import (IterationOutcome, PrecisionParams, ScaledBasis,
                          can_enter, find_column, find_row, is_optimal,
                          is_unbounded, norm_estimate, simplex_iter,
                          solve_quantum)

__version__ = "0.1.0"

__all__ = [
    "AllInfinite", "BasisSingular", "BasisState", "ClassicalPivotReport",
    "ClassicalSolution", "CostReport", "IdealQlsa", "IterationOutcome",
    "LpInstance", "PrecisionParams", "QueryStats", "ScaledBasis",
    "ThresholdViolation", "ZeroColumn", "amplitude_estimation",
    "build_cost_report", "can_enter", "classical_pricing_cost", "column_split",
    "find_column", "find_row", "is_optimal", "is_unbounded", "min_finding",
    "mu", "mu_opt", "norm_estimate", "normalize", "qlsa_query_counts",
    "qsearch", "quantum_pricing_cost", "quantum_ratio_test_cost", "ratio_test",
    "read_instance", "read_lp_json", "read_mps", "reduced_costs",
    "simplex_iter", "slack_identity_basis", "solve_classical",
    "solve_quantum", "write_lp_json",
]
