"""Per-iteration benchmark of qsimplex.

One op is either a full ``simplex_iter`` or a pricing step (``normalize``,
``ScaledBasis.build``, ``is_optimal``, ``find_column``), run on a basis of
the classical Dantzig path of an instance.  Each workload has a fixed op
list; ``--seed`` sets the order in which every pass visits it.  Every op is
checked against ``check.Reference``, computed with numpy from the instance
data.

Usage:
    python3 iterbench/run.py --workload iter-sampling --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

import os

# one BLAS/OpenMP thread; this has to precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from check import Finding, Reference, Verdict, self_test  # noqa: E402
from inputs import Op, dantzig_path, make_lp, op_list, write_lps  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "iterbench"

EPS, DELTA, T, REPS = 0.1, 0.1, 100.0, 15   # the PrecisionParams defaults
SETUP_PROBES = 3
MIN_OPS = 40            # op_ms_tail has TAIL_OPS ops beyond it
TAIL_OPS = 10


@dataclass(frozen=True)
class Workload:
    kind: str            # "iter" | "price"
    m: int
    n: int
    mode: str
    error_mode: str
    instances: int       # alternating nonnegative / mixed G
    fractions: tuple     # where on each instance's Dantzig path its ops start
    salt: int            # seeds the instances and the ops
    named: tuple = ()    # (random_lp seed, path index, op seed) ops that show known faults
    terminal_only: int = 0  # further instances that contribute only their terminal basis


WORKLOADS = {
    "iter-sampling": Workload("iter", 16, 48, "sampling", "worst", 17, (0, 0.2, 1), 11,
                              ((1000, 19, 1), (159, 16, 0))),
    "iter-analytic": Workload("iter", 64, 192, "analytic", "zero", 15, (0.1, 1), 12,
                              ((0, 52, 0), (0, 24, 0)), terminal_only=18),
    "price-large": Workload("price", 128, 384, "analytic", "zero", 11, (0, 1 / 3, 2 / 3, 1), 13),
}


def load_qsimplex():
    """Import qsimplex from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qsimplex" / "__init__.py").is_file():
        sys.exit(f"iterbench: no qsimplex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsimplex
    if Path(qsimplex.__file__).resolve().parent != SRC / "qsimplex":
        sys.exit(f"iterbench: imported qsimplex from {qsimplex.__file__}, not {SRC}")


def run_checker_self_test() -> None:
    """Plant wrong answers on a basis with a nonzero ``c_B``, so that cost
    scaling is in play."""
    A, b, c = make_lp(16, 48, 5, nonneg=False)
    problems = self_test(A, b, c, dantzig_path(A, b, c)[0][3], EPS, DELTA, T)
    if problems:
        sys.exit(f"iterbench: checker self-test failed: {problems}")


class Runner:
    """Runs one op of a workload and checks it."""

    def __init__(self, wl: Workload, lps: dict, instances: dict):
        from qsimplex import subroutines
        from qsimplex.primitives import QueryStats
        self.wl = wl
        self.sub = subroutines
        self.QueryStats = QueryStats
        self.params = subroutines.PrecisionParams(EPS, DELTA, T, REPS)
        self.lps = lps
        self.instances = instances
        self.refs: dict = {}

    def execute(self, op: Op):
        """The timed call into the program; returns (verdict, ok, stats, seconds)."""
        inst = self.instances[op.lp]
        rng = np.random.default_rng(op.seed)
        start = time.perf_counter()
        try:
            if self.wl.kind == "iter":
                out = self.sub.simplex_iter(inst, op.basis, self.params, self.wl.mode,
                                            self.wl.error_mode, rng)
                took = time.perf_counter() - start
                verdict = Verdict(out.status, out.entering, out.leaving_row,
                                  out.diagnostics.get("entering_variant", "nfn"))
                return verdict, bool(out.ok), out.stats.as_dict(), took
            stats = self.QueryStats()
            state = self.sub.normalize(inst, op.basis)
            scaled = self.sub.ScaledBasis.build(inst, state, error_mode=self.wl.error_mode,
                                                rng=rng)
            opt = self.sub.is_optimal(scaled, EPS, REPS, self.wl.mode, rng, stats)
            if opt.value == 1:
                fc = self.sub.find_column(scaled, EPS, REPS, self.wl.mode, rng, stats,
                                          variant="nfp", recover_with_nfp=False)
            else:
                fc = self.sub.find_column(scaled, EPS, REPS, self.wl.mode, rng, stats)
            took = time.perf_counter() - start
            verdict = Verdict("price", fc.column, None, fc.variant, opt.value)
            ok = opt.ok and (fc.ok if fc.column is not None else fc.decisions_ok)
            return verdict, bool(ok), stats.as_dict(), took
        except ValueError as exc:  # the program's numerical errors all derive from it
            return Verdict(f"error: {exc!r}"), True, {}, time.perf_counter() - start

    def check(self, op: Op, verdict: Verdict, ok: bool) -> Finding:
        """What is wrong with the op's output, if anything.  A failure is
        never correct; other verdicts of sampling ops whose success flags
        are down carry no certificate and are not checked."""
        if verdict.status.startswith("error"):
            return Finding(verdict.status)
        if self.wl.mode == "sampling" and not ok and verdict.status != "failure":
            return Finding()
        if op not in self.refs:
            lp = self.lps[op.lp]
            self.refs[op] = Reference(lp.A, lp.b, lp.c, op.basis)
        ref = self.refs[op]
        if verdict.status == "price":
            return ref.check_pricing(verdict.is_optimal, verdict.entering,
                                     verdict.variant, EPS)
        return ref.check(verdict, EPS, DELTA, T)


def measure_setup(paths) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + [str(p) for p in paths]
    return [float(subprocess.run(probe, check=True, capture_output=True, text=True,
                                 timeout=120).stdout) for _ in range(SETUP_PROBES)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    load_qsimplex()
    from qsimplex import io as qio
    from spans import Tracer

    run_checker_self_test()
    lps, ops = op_list(wl.salt, wl.m, wl.n, wl.instances, wl.fractions, wl.named,
                       wl.terminal_only)
    assert len(ops) >= MIN_OPS, f"{args.workload} has {len(ops)} ops, fewer than {MIN_OPS}"
    order = [ops[i] for i in np.random.default_rng(args.seed).permutation(len(ops))]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        paths = write_lps(lps, workdir)
        setup = [] if args.trace else measure_setup(paths)
        tracer = Tracer()
        with tracer.installed() if args.trace else contextlib.nullcontext():
            instances = {lp.name: qio.read_instance(p) for lp, p in zip(lps, paths)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runner = Runner(wl, {lp.name: lp for lp in lps}, instances)
    runner.execute(order[0])  # warm-up: lazy imports and first-call costs
    tally = Tally()

    def run_op(op: Op) -> None:
        verdict, ok, stats, took = runner.execute(op)
        tally.record(op, False, (verdict, ok, stats), took, runner.check(op, verdict, ok))
        if args.trace:  # the same op again, traced, so that the two pair up
            with tracer.installed():
                verdict, ok, stats, took = tracer.call("op", runner.execute, op)
            tally.record(op, True, (verdict, ok, stats), took, runner.check(op, verdict, ok))

    # whole passes over the op list, as many as come nearest to --seconds
    started = time.perf_counter()
    passes = 0
    while True:
        for op in order:
            run_op(op)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes / 2 > args.seconds:
            break

    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops, {passes} passes, "
          f"ok-down ops {tally.ok_down // passes}, verdicts {tally.verdicts()}, "
          f"failed ops {tally.faults()}")
    if args.trace:
        metrics = layer_metrics(tracer, tally, len(lps))
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.as_json(), indent=1))
    else:
        metrics = end_to_end_metrics(tally.per_op[False], setup)
    result = {"correct": tally.unexpected == 0 and tally.mismatched == 0,
              "attempted": len(tally.stats[False]) + len(tally.stats[True]),
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


class Tally:
    """Op samples of one run and what their checks found."""

    def __init__(self):
        self.per_op = {False: {}, True: {}}      # traced? -> op -> [seconds]
        self.stats = {False: [], True: []}       # traced? -> QueryStats dicts
        self.first_seen: dict = {}               # op -> (verdict, ok, stats, finding)
        self.failed = self.unexpected = self.mismatched = self.ok_down = 0

    def record(self, op: Op, traced: bool, output: tuple, took: float,
               found: Finding) -> None:
        # every pass must repeat the first one exactly, counters included
        output += (found,)
        self.mismatched += self.first_seen.setdefault(op, output) != output
        self.per_op[traced].setdefault(op, []).append(took)
        self.stats[traced].append(output[2])
        self.ok_down += not output[1] and not traced
        self.failed += bool(found.problem)
        self.unexpected += found.unexpected

    def executions(self, traced: bool) -> list[float]:
        return [t for times in self.per_op[traced].values() for t in times]

    def verdicts(self) -> dict:
        counts: dict[str, int] = {}
        for verdict, _, _, _ in self.first_seen.values():
            counts[verdict.status] = counts.get(verdict.status, 0) + 1
        return counts

    def faults(self) -> dict:
        counts: dict[str, int] = {}
        for _, _, _, found in self.first_seen.values():
            if found.problem:
                key = found.fault or f"UNEXPECTED: {found.problem}"
                counts[key] = counts.get(key, 0) + 1
        return counts


def end_to_end_metrics(per_op: dict, setup: list[float]) -> dict:
    """Each op's median time over the run's passes, then statistics over the
    fixed op list."""
    ms = np.array([statistics.median(times) for times in per_op.values()]) * 1e3
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": 1e3 * len(ms) / ms.sum(), "unit": "1/s"},
        "op_ms_p50": {"value": float(np.median(ms)), "unit": "ms"},
        # the highest percentile with TAIL_OPS ops beyond it
        "op_ms_tail": {"value": float(np.percentile(ms, 100 * (1 - TAIL_OPS / len(ms)))),
                       "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


QUERY_KEYS = ("u_calls", "controlled_u_calls", "qlsa_invocations", "p_ab_queries",
              "p_b_queries", "grover_iterations", "ae_repetitions", "basic_gates")


def layer_metrics(tracer, tally: Tally, reads: int) -> dict:
    traced, plain = tally.executions(True), tally.executions(False)
    ops = len(traced)
    traced_ms = sum(traced) * 1e3 / ops
    # each traced execution follows an untraced one of the same op
    plain_ms = sum(plain) * 1e3 / len(plain)

    def per_op(value, unit):
        return {"value": value / ops, "unit": unit}

    def ms(name):
        return per_op(tracer.outer_s.get(name, 0.0) * 1e3, "ms")

    covered = sum(tracer.self_s(p) for p in ("lp.", "qlsa.", "primitives.", "subroutines."))
    return {
        "lp.normalize.ms": ms("lp.normalize"),
        "lp.column.calls": per_op(tracer.calls("lp.column"), "count"),
        "lp.column.ms": ms("lp.column"),
        "qlsa.solve.calls": per_op(tracer.calls("qlsa.solve"), "count"),
        "qlsa.solve.ms": ms("qlsa.solve"),
        "qlsa.inject_error.ms": ms("qlsa.inject_error"),
        "primitives.ae_distribution.calls": per_op(tracer.calls("primitives.ae_distribution"),
                                                   "count"),
        "primitives.ae_distribution.ms": ms("primitives.ae_distribution"),
        "primitives.pe_points": per_op(tracer.pe_points, "count"),
        "primitives.amplitude_estimation.calls": per_op(
            tracer.calls("primitives.amplitude_estimation"), "count"),
        "primitives.amplitude_estimation.ms": ms("primitives.amplitude_estimation"),
        "primitives.search.ms": ms("primitives.search"),
        **{f"subroutines.{f}.ms": ms(f"subroutines.{f}")
           for f in ("is_optimal", "find_column", "is_unbounded", "find_row")},
        "subroutines.self_ms": per_op(tracer.self_s("subroutines.") * 1e3, "ms"),
        "io.read_instance.ms": {"value": tracer.outer_s["io.read_instance"] * 1e3 / reads,
                                "unit": "ms"},
        # fsum: exactly rounded, so the totals do not depend on the op order
        **{f"queries.{k}": per_op(math.fsum(s.get(k, 0.0) for s in tally.stats[True]), "count")
           for k in QUERY_KEYS},
        "trace.op_ms": {"value": traced_ms, "unit": "ms"},
        "trace.overhead_ms": {"value": traced_ms - plain_ms, "unit": "ms"},
        "trace.layer_share": {"value": 100.0 * covered / tracer.outer_s["op"], "unit": "%"},
    }


if __name__ == "__main__":
    sys.exit(main())
