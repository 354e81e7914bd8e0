"""Traced run: spans around the public functions of each qsimplex layer.

The wrappers are installed from outside, under the names the callers look
up at call time (a module global such as ``subroutines.ae_distribution``
or a class attribute such as ``IdealQlsa.solve``), and removed again after
each traced op.  Spans are aggregated in memory by
``(parent, name)``: call count, total time and self time (total minus
the time of the wrapped calls made inside).
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

from qsimplex import io as qio
from qsimplex import lp, primitives, qlsa, subroutines

SUBROUTINES = ("is_optimal", "find_column", "is_unbounded", "find_row")

# (owner, attribute, span name); several attributes may share one span name
TARGETS = (
    [(subroutines, "normalize", "lp.normalize"),
     (lp.LpInstance, "column", "lp.column"),
     (qlsa.IdealQlsa, "solve", "qlsa.solve"),
     (qlsa, "inject_error", "qlsa.inject_error"),
     (subroutines, "ae_distribution", "primitives.ae_distribution"),
     (primitives, "ae_distribution", "primitives.ae_distribution"),
     (subroutines, "amplitude_estimation", "primitives.amplitude_estimation"),
     (qio, "read_instance", "io.read_instance")]
    + [(subroutines, f, "primitives.search")
       for f in ("qsearch", "qsearch_analytic", "grover_count_exists", "min_finding")]
    + [(primitives, "qsearch", "primitives.search")]
    + [(subroutines, f, f"subroutines.{f}") for f in SUBROUTINES]
)


class Tracer:
    def __init__(self):
        self.edges: dict[tuple[str, str], list[float]] = {}  # -> [calls, total_s, self_s]
        self.outer_s: dict[str, float] = {}   # time of calls not nested in the same name
        self.queries: dict[str, dict[str, float]] = {}  # subroutine -> QueryStats deltas
        self.pe_points = 0
        self._stack: list[list] = []           # [name, child seconds]
        self._depth: dict[str, int] = {}       # open spans per name

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = [name, 0.0]
        parent = self._stack[-1][0] if self._stack else ""
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            self._stack.pop()
            self._depth[name] = depth
            if self._stack:
                self._stack[-1][1] += took
            rec = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += took
            rec[2] += took - frame[1]
            if depth == 0:
                self.outer_s[name] = self.outer_s.get(name, 0.0) + took

    def wrap(self, fn, name: str):
        if name == "primitives.ae_distribution":   # ae_distribution(a, bits)
            def wrapper(*args, **kwargs):
                self.pe_points += 2 * 2 ** int(args[1] if len(args) > 1 else kwargs["bits"])
                return self.call(name, fn, *args, **kwargs)
        elif name.startswith("subroutines."):
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                stats = sig.bind(*args, **kwargs).arguments.get("stats")
                if stats is None or self._depth.get(name, 0):
                    return self.call(name, fn, *args, **kwargs)
                before = stats.as_dict()
                result = self.call(name, fn, *args, **kwargs)
                acc = self.queries.setdefault(name, {})
                for key, value in stats.as_dict().items():
                    acc[key] = acc.get(key, 0.0) + value - before[key]
                return result
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    @contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self.wrap(owner.__dict__[attr], name))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_s(self, prefix: str) -> float:
        return sum(rec[2] for (_, name), rec in self.edges.items()
                   if name.startswith(prefix))

    def calls(self, name: str) -> int:
        return sum(rec[0] for (_, n), rec in self.edges.items() if n == name)

    def as_json(self) -> dict:
        return {
            "spans": [{"parent": p, "name": n, "calls": rec[0], "total_ms": rec[1] * 1e3,
                       "self_ms": rec[2] * 1e3}
                      for (p, n), rec in sorted(self.edges.items())],
            "queries_by_subroutine": self.queries,
            "pe_points": self.pe_points,
        }
