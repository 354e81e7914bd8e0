#!/usr/bin/env python3
"""Dump, or check against a dump, what every benchmark op returns.

Each workload of ``iterbench/run.py`` has a fixed op list.  This script
runs every op once through the benchmark's own ``Runner.execute`` and
``Runner.check`` and records, per op, the verdict, the ``ok`` flag, the
eight ``QueryStats`` counters as float hex and the checker's finding.

    python scripts/bench_identity.py --out dump.json
    python scripts/bench_identity.py --check tests/data/bench_identity.json

``--check`` applies the pinning policy of ``tests/test_iteration.py``:
verdict, ``ok``, finding and the integer-valued counters must match
exactly; ``p_ab_queries``, ``p_b_queries`` and ``basic_gates`` may move
by at most 1e-12 relative.  It exits 1 and names each op that differs;
its last line also counts the float counters that moved within that
tolerance, so a regrouped float sum shows.  To compare two dumps exactly,
write both with ``--out`` and diff them.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "iterbench"))

import run  # noqa: E402  (sets the one-BLAS-thread environment before numpy)
from inputs import op_list  # noqa: E402

FLOAT_COUNTERS = ("p_ab_queries", "p_b_queries", "basic_gates")
REL_TOL = 1e-12


def dump() -> dict:
    run.load_qsimplex()
    from qsimplex.io import instance_from_dict

    doc = {}
    for name, wl in run.WORKLOADS.items():
        lps, ops = op_list(wl.salt, wl.m, wl.n, wl.instances, wl.fractions, wl.named,
                           wl.terminal_only)
        runner = run.Runner(wl, {lp.name: lp for lp in lps},
                            {lp.name: instance_from_dict(lp.to_json()) for lp in lps})
        rows = []
        for op in ops:
            verdict, ok, stats, _ = runner.execute(op)
            rows.append({"lp": op.lp, "seed": op.seed, "verdict": asdict(verdict),
                         "ok": ok, "counters": {k: float(v).hex() for k, v in stats.items()},
                         "finding": asdict(runner.check(op, verdict, ok))})
        doc[name] = rows
    return doc


def differences(expected: dict, actual: dict) -> tuple[list[str], int]:
    """A line per difference the policy forbids, and the number of float
    counters that differ within the tolerance."""
    problems, moved = [], 0
    for name in expected.keys() | actual.keys():
        want, got = expected.get(name, []), actual.get(name, [])
        if len(want) != len(got):
            problems.append(f"{name}: {len(got)} ops, expected {len(want)}")
            continue
        for i, (a, b) in enumerate(zip(want, got)):
            where = f"{name} op {i} ({b['lp']}, seed {b['seed']})"
            for key in ("lp", "seed", "verdict", "ok", "finding"):
                if a[key] != b[key]:
                    problems.append(f"{where}: {key} {b[key]!r}, expected {a[key]!r}")
            if a["counters"].keys() != b["counters"].keys():
                problems.append(f"{where}: counters {sorted(b['counters'])}, "
                                f"expected {sorted(a['counters'])}")
                continue
            for key, text in a["counters"].items():
                x, y = float.fromhex(text), float.fromhex(b["counters"][key])
                if x == y:
                    continue
                if key in FLOAT_COUNTERS and math.isclose(x, y, rel_tol=0,
                                                          abs_tol=REL_TOL * abs(x)):
                    moved += 1
                else:
                    problems.append(f"{where}: {key} {y!r}, expected {x!r}")
    return problems, moved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the dump to this JSON file")
    group.add_argument("--check", help="compare against this JSON dump")
    args = parser.parse_args()
    doc = dump()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {sum(map(len, doc.values()))} ops to {args.out}")
        return 0
    with open(args.check) as fh:
        problems, moved = differences(json.load(fh), doc)
    for line in problems:
        print(line)
    print(f"{sum(map(len, doc.values()))} ops, {len(problems)} differences, "
          f"{moved} float counters moved within {REL_TOL:g}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
