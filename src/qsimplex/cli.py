"""Command-line interface: solve / classical / analyze / verify.

Trace files are CSV with a fixed, documented column set (see TRACE_COLUMNS
and CLASSICAL_TRACE_COLUMNS); summaries and cost reports are schema-
versioned JSON.  All randomness flows from the single configured seed
(flag ``--seed``, falling back to the ``QSIMPLEX_SEED`` environment
variable), so a sampling-mode run with the same configuration and seed
produces a byte-identical trace.  Wall-clock timings are therefore only
written when ``--timings`` is passed.

Exit codes: 0 on an optimal/unbounded outcome (and on passing verify
suites), 1 on a failure outcome, iteration cap, or failing suite, 2 on
usage, parse, or infeasible-start errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .classical import (PRICING_FACTOR, basic_solution, pricing_terms,
                        ratio_test, solve_classical)
from .costmodel import COST_REPORT_SCHEMA, build_cost_report
from .io import InstanceFormatError, read_instance
from .lp import BasisSingular, LpInstance, normalize, slack_identity_basis
from .primitives import QueryStats
from .subroutines import PrecisionParams, solve_quantum
from .verify import run_all

# the query counters, in QueryStats field order
COUNTER_COLUMNS = [f.name for f in fields(QueryStats)]

TRACE_COLUMNS = [
    "iteration", "status", "entering", "leaving_row", "leaving_var", "kappa",
    "objective_before", "is_optimal", "variant", "ratio_estimate",
    "classical_cbar_entering", "classical_pricing_norm", "pricing_check_ok",
    "classical_ratio_row", *COUNTER_COLUMNS, "elapsed_ms",
]

CLASSICAL_TRACE_COLUMNS = [
    "iteration", "entering", "leaving_row", "leaving_var", "ratio_min",
    "objective", "eligible_count", "reduced_cost_entering",
]

SUMMARY_SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Everything one run depends on; the seed fully determines
    sampling-mode outputs."""

    instance: str = ""
    eps: float = 0.1
    delta: float = 0.1
    t: float = 100.0
    eps_prime: float = 1e-4
    reps: int = 15
    mode: str = "analytic"
    qlsa_error: str = "zero"
    seed: int = 0
    max_iters: int | None = None
    out_trace: str | None = None
    out_summary: str | None = None
    start_basis: tuple[int, ...] | None = None
    timings: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def params(self) -> PrecisionParams:
        return PrecisionParams(eps=self.eps, delta=self.delta, t=self.t,
                               reps=self.reps)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _env_seed() -> int:
    return int(os.environ.get("QSIMPLEX_SEED", "0"))


def _load(config: RunConfig) -> tuple[LpInstance, list[int]]:
    instance = read_instance(config.instance)
    if config.start_basis is not None:
        basis = list(config.start_basis)
    else:
        found = slack_identity_basis(instance)
        if found is None:
            raise InstanceFormatError(
                "no feasible identity/slack start basis found; supply one "
                "with --start-basis")
        basis = list(found)
    if np.any(basic_solution(instance, basis) < -1e-9):
        raise InstanceFormatError("start basis is infeasible")
    return instance, basis


def cmd_solve(config: RunConfig) -> int:
    instance, basis = _load(config)
    result = solve_quantum(instance, basis, config.params, mode=config.mode,
                           error_mode=config.qlsa_error, seed=config.seed,
                           max_iters=config.max_iters,
                           eps_prime=config.eps_prime)

    rows = []
    cur = list(basis)
    for i, out in enumerate(result.outcomes):
        x = basic_solution(instance, cur)
        objective = float(instance.c[list(cur)] @ x)
        row = {
            "iteration": i,
            "status": out.status,
            "entering": out.entering,
            "leaving_row": out.leaving_row,
            "leaving_var": cur[out.leaving_row] if out.leaving_row is not None else None,
            "kappa": out.kappa,
            "objective_before": objective,
            "is_optimal": out.diagnostics.get("is_optimal"),
            "variant": out.diagnostics.get("entering_variant"),
            "ratio_estimate": out.diagnostics.get("ratio_estimate"),
        }
        if out.entering is not None:
            (cbar,), (norm,) = pricing_terms(instance, cur, [out.entering])
            hit = ratio_test(instance, cur, out.entering, config.delta)
            factor = PRICING_FACTOR[out.diagnostics["entering_variant"]]
            row.update(classical_cbar_entering=cbar,
                       classical_pricing_norm=norm,
                       pricing_check_ok=int(cbar < factor * config.eps * norm),
                       classical_ratio_row=hit[0] if hit else None)
        row.update({k: v for k, v in out.stats.as_dict().items()})
        row["elapsed_ms"] = out.diagnostics.get("elapsed_ms") if config.timings else None
        rows.append(row)
        if out.status == "pivot":
            cur[out.leaving_row] = out.entering

    if config.out_trace:
        with open(config.out_trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) for col in TRACE_COLUMNS])

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "command": "solve",
        "instance": config.instance,
        "m": instance.m, "n": instance.n,
        "params": {"eps": config.eps, "delta": config.delta, "t": config.t,
                   "eps_prime": config.eps_prime, "reps": config.reps},
        "mode": config.mode, "qlsa_error": config.qlsa_error,
        "seed": config.seed,
        "status": result.status,
        "failure": result.failure,
        "iterations": result.iterations,
        "objective": result.objective,
        "basis": list(result.basis),
        "stats": result.stats.as_dict(),
    }
    if config.out_summary:
        with open(config.out_summary, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"status: {result.status}  iterations: {result.iterations}"
          + (f"  objective: {result.objective:.12g}"
             if result.objective is not None else "")
          + (f"  failure: {result.failure}" if result.failure is not None else ""))
    return 0 if result.status in ("optimal", "unbounded") else 1


def cmd_classical(config: RunConfig) -> int:
    instance, basis = _load(config)
    sol = solve_classical(instance, basis, rule="random", seed=config.seed,
                          max_iters=config.max_iters, keep_reports=True)
    rows = []
    cur = list(basis)
    for i, rep in enumerate(sol.reports):
        leaving_var = cur[rep.leaving_row] if rep.leaving_row is not None else None
        rows.append({
            "iteration": i,
            "entering": rep.entering,
            "leaving_row": rep.leaving_row,
            "leaving_var": leaving_var,
            "ratio_min": rep.ratio_min,
            "objective": rep.objective,
            "eligible_count": len(rep.eligible),
            "reduced_cost_entering": (
                float(rep.reduced_costs[rep.nonbasic.index(rep.entering)])
                if rep.entering is not None else None),
        })
        if rep.entering is not None and rep.leaving_row is not None:
            cur[rep.leaving_row] = rep.entering
    if config.out_trace:
        with open(config.out_trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CLASSICAL_TRACE_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) for col in CLASSICAL_TRACE_COLUMNS])
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "command": "classical",
        "instance": config.instance,
        "status": sol.status,
        "pivots": sol.pivots,
        "objective": sol.objective,
        "basis": list(sol.basis),
        "seed": config.seed,
    }
    if config.out_summary:
        with open(config.out_summary, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if sol.objective is not None:
        print(f"status: {sol.status}  pivots: {sol.pivots}  "
              f"objective: {sol.objective:.12g}")
    else:
        print(f"status: {sol.status}  pivots: {sol.pivots}")
    return 0 if sol.status in ("optimal", "unbounded") else 1


def cmd_analyze(config: RunConfig) -> int:
    import jsonschema

    instance, basis = _load(config)
    state = normalize(instance, basis, config.eps_prime)
    measured = None
    trace_path = config.extra.get("trace")
    if trace_path:
        with open(trace_path) as fh:
            reader = csv.DictReader(fh)
            totals: dict[str, float] = {}
            for row in reader:
                for key in COUNTER_COLUMNS:
                    if row.get(key):
                        totals[key] = totals.get(key, 0.0) + float(row[key])
            measured = totals or None
    report = build_cost_report(instance, state, eps=config.eps,
                               delta=config.delta, t=config.t,
                               measured=measured)
    doc = report.as_dict()
    jsonschema.validate(doc, COST_REPORT_SCHEMA)
    if config.out_summary:
        with open(config.out_summary, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(report.render_text())
    if not report.mu_bound_ok:
        print("warning: mu(A_B) exceeded sqrt(m) after scaling", file=sys.stderr)
        return 1
    return 0


def cmd_verify(config: RunConfig) -> int:
    suites = run_all(error_mode=config.qlsa_error,
                     quick=bool(config.extra.get("quick")), seed=config.seed)
    all_ok = True
    for suite in suites:
        print(f"== {suite.name}: {'PASS' if suite.passed else 'FAIL'}")
        for line in suite.lines:
            print("  " + line)
        all_ok = all_ok and suite.passed
    if config.out_summary:
        doc = {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "command": "verify",
            "qlsa_error": config.qlsa_error,
            "seed": config.seed,
            "suites": [{"name": s.name, "passed": bool(s.passed),
                        "lines": s.lines} for s in suites],
        }
        with open(config.out_summary, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_ok else 1


def _basis(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


# every option, under the RunConfig field it sets (``extra`` for the rest);
# a help that differs per subcommand is a dict keyed by the subcommand
OPTIONS = {
    "--instance": dict(required=True, help="LP JSON (or .mps) instance path"),
    "--start-basis": dict(type=_basis,
                          help="comma-separated column indices of a feasible basis"),
    "--epsilon": dict(dest="eps", type=float, default=0.1,
                      help="pricing tolerance (default 0.1)"),
    "--delta": dict(type=float, default=0.1,
                    help="ratio-test feasibility tolerance (default 0.1)"),
    "--t": dict(type=float, default=100.0,
                help="ratio-test precision multiplier (default 100)"),
    "--eps-prime": dict(type=float, default=1e-4,
                        help="spectral-norm margin: bases are scaled to "
                             "|A_B| = 1 - eps' (default 1e-4)"),
    "--reps": dict(type=int, default=15,
                   help="majority-vote repetitions (odd, default 15)"),
    "--seed": dict(type=int, help="RNG seed (default: QSIMPLEX_SEED or 0)"),
    "--mode": dict(choices=("analytic", "sampling"), default="analytic"),
    "--qlsa-error": dict(choices=("zero", "worst", "random"), default="zero"),
    "--max-iters": dict(type=int, help={
        "solve": "iteration cap N (default 50 (m + n))",
        "classical": "iterations N after which the pivot rule switches to "
                     "Bland's; the run stops with status cap after 2N + 1 "
                     "(default N = 50 (m + n))"}),
    "--out-trace": dict(),
    "--out-summary": dict(),
    "--timings": dict(action="store_true",
                      help="include wall-clock timings in the trace "
                           "(breaks byte-for-byte reproducibility)"),
    "--trace": dict(help="solve trace CSV for measured-vs-predicted comparison"),
    "--quick": dict(action="store_true",
                    help="reduced suite sizes for a fast sanity pass"),
}

# subcommand -> (help, the options it reads)
COMMANDS = {
    "solve": ("run the quantum-simulated loop",
              ("--instance", "--start-basis", "--epsilon", "--delta", "--t",
               "--eps-prime", "--reps", "--seed", "--mode", "--qlsa-error",
               "--max-iters", "--out-trace", "--out-summary", "--timings")),
    "classical": ("run the classical reference solver",
                  ("--instance", "--start-basis", "--seed", "--max-iters",
                   "--out-trace", "--out-summary")),
    "analyze": ("evaluate the cost formulas",
                ("--instance", "--start-basis", "--epsilon", "--delta", "--t",
                 "--eps-prime", "--out-summary", "--trace")),
    "verify": ("run the proposition suites",
               ("--qlsa-error", "--seed", "--out-summary", "--quick")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsimplex",
        description="Quantum simplex subroutine simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in options:
            kwargs = dict(OPTIONS[flag])
            if isinstance(kwargs.get("help"), dict):
                kwargs["help"] = kwargs["help"][command]
            p.add_argument(flag, **kwargs)
    # verify runs under worst-case solver error unless told otherwise
    sub.choices["verify"].set_defaults(qlsa_error="worst")
    return parser


def _config_from_args(args) -> RunConfig:
    given = {k: v for k, v in vars(args).items() if k != "command"}
    if "seed" in given and given["seed"] is None:
        given["seed"] = _env_seed()
    names = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in given.items() if k in names},
                     extra={k: v for k, v in given.items() if k not in names})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        config.params  # validate tolerance ranges up front
        handler = {"solve": cmd_solve, "classical": cmd_classical,
                   "analyze": cmd_analyze, "verify": cmd_verify}[args.command]
        return handler(config)
    except (InstanceFormatError, FileNotFoundError, BasisSingular,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
