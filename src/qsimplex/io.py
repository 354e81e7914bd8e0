"""Instance ingestion: LP JSON format and a fixed-MPS subset reader.

JSON layout::

    {"m": 2, "n": 3,
     "A": {"cols": [[[0, 1.0]], [[1, 2.0]], [[0, 1.0], [1, 1.0]]]},
     "b": [1.0, 2.0],
     "c": [0.0, -1.0, 0.5]}

``m`` and ``n`` are positive integers and ``A.cols`` a list of n columns;
``A.cols[j]`` lists ``[row, value]`` pairs for column j: finite numbers,
with an integral row in ``[0, m)``, each row at most once per column;
anything else raises ``InstanceFormatError`` naming the field or the
column.  The MPS reader accepts the NAME/ROWS/COLUMNS/RHS/ENDATA sections
with equality rows and one objective row only (whitespace-delimited
fields); a line it cannot read -- a ROWS entry without a name, a repeated
row name, a column naming a row twice, a value that is not a finite number
-- raises ``InstanceFormatError`` naming the line.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import scipy.sparse as sp

from .lp import LpInstance


class InstanceFormatError(ValueError):
    """Malformed instance file (or solve trace, for ``analyze``); carries a
    human-readable location."""


def instance_to_dict(instance: LpInstance) -> dict:
    A = instance.A
    cols = []
    for j in range(instance.n):
        start, end = A.indptr[j], A.indptr[j + 1]
        cols.append([[int(i), float(v)] for i, v in zip(A.indices[start:end], A.data[start:end])])
    return {
        "m": instance.m,
        "n": instance.n,
        "A": {"cols": cols},
        "b": [float(x) for x in instance.b],
        "c": [float(x) for x in instance.c],
    }


def instance_from_dict(doc: dict) -> LpInstance:
    try:
        m, n = doc["m"], doc["n"]
        cols = doc["A"]["cols"]
        b, c = doc["b"], doc["c"]
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"missing or malformed field: {exc}") from exc
    for name, size in (("m", m), ("n", n)):
        if type(size) is not int or size < 1:
            raise InstanceFormatError(f"{name} must be a positive integer, got {size!r}")
    if not isinstance(cols, list):
        raise InstanceFormatError(f"A.cols must be a list of columns, got {cols!r}")
    if len(cols) != n:
        raise InstanceFormatError(f"A.cols has {len(cols)} columns, expected n={n}")
    # all entries in one array pass; only a malformed file walks them one by
    # one, to name the column at fault
    try:
        counts = [len(entries) for entries in cols]
        flat = list(itertools.chain.from_iterable(cols))
        pairs = np.fromiter(itertools.chain.from_iterable(flat), float, 2 * len(flat))
        well_formed = set(map(len, flat)) <= {2} and bool(np.isfinite(pairs).all())
    except (TypeError, ValueError):
        well_formed = False
    if not well_formed:
        raise InstanceFormatError(_malformed_entry(cols))
    rows, vals = pairs[0::2], pairs[1::2]
    cols_idx = np.repeat(np.arange(n), counts)
    bad = np.flatnonzero((rows != np.floor(rows)) | (rows < 0) | (rows >= m))
    if bad.size:
        i = rows[bad[0]]
        why = "is not an integer" if i != math.floor(i) else f"out of range [0, {m})"
        raise InstanceFormatError(f"row index {i:g} {why} in column {cols_idx[bad[0]]}")
    try:
        b, c = np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"b and c must be lists of numbers: {exc}") from exc
    A = sp.csc_matrix((vals, (rows.astype(np.int64), cols_idx)), shape=(m, n))
    if A.nnz < vals.size:  # the conversion summed a repeated entry
        keys = np.sort(cols_idx * m + rows.astype(np.int64))
        j, i = divmod(int(keys[1:][keys[1:] == keys[:-1]][0]), m)
        raise InstanceFormatError(f"row {i} appears twice in column {j}")
    return LpInstance(A, b, c)


def _malformed_entry(cols) -> str:
    """Where and how ``A.cols`` breaks the layout of ``[row, value]`` pairs
    of finite numbers."""
    for j, entries in enumerate(cols):
        if not isinstance(entries, (list, tuple)):
            return f"column {j} is not a list of [row, value] pairs"
        for entry in entries:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                return f"entry {entry!r} in column {j} is not a [row, value] pair"
            try:
                finite = all(math.isfinite(float(x)) for x in entry)
            except (TypeError, ValueError):
                finite = False
            if not finite:
                return f"entry {entry!r} in column {j} is not a pair of finite numbers"
    return "A.cols is not a list of columns of [row, value] pairs"


def write_lp_json(instance: LpInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=1)
        fh.write("\n")


def read_lp_json(path) -> LpInstance:
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return instance_from_dict(doc)


def read_mps(path) -> LpInstance:
    """Fixed-MPS subset: NAME / ROWS (N + E only) / COLUMNS / RHS / ENDATA."""
    with open(path) as fh:
        lines = fh.readlines()

    section = None
    objective_row = None
    row_order: list[str] = []
    row_index: dict[str, int] = {}
    col_order: list[str] = []
    col_entries: dict[str, dict[str, float]] = {}  # objective row included
    rhs: dict[str, float] = {}

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        if not line[0].isspace():
            head = line.split()[0].upper()
            if head in ("NAME", "ROWS", "COLUMNS", "RHS", "ENDATA"):
                section = head
                if head == "ENDATA":
                    break
                continue
            raise InstanceFormatError(f"line {lineno}: unsupported section {head!r} "
                                      "(reader handles NAME/ROWS/COLUMNS/RHS/ENDATA)")
        fields = line.split()
        if section == "ROWS":
            if len(fields) != 2:
                raise InstanceFormatError(f"line {lineno}: a ROWS entry is a row type "
                                          "and a row name")
            kind, name = fields[0].upper(), fields[1]
            if name in row_index or name == objective_row:
                raise InstanceFormatError(f"line {lineno}: duplicate row {name!r}")
            if kind == "N":
                if objective_row is not None:
                    raise InstanceFormatError(f"line {lineno}: multiple objective rows")
                objective_row = name
            elif kind == "E":
                row_index[name] = len(row_order)
                row_order.append(name)
            else:
                raise InstanceFormatError(f"line {lineno}: row type {kind!r} unsupported "
                                          "(equality rows only)")
        elif section == "COLUMNS":
            col, pairs = fields[0], fields[1:]
            if len(pairs) % 2:
                raise InstanceFormatError(f"line {lineno}: odd row/value field count")
            if col not in col_entries:
                col_entries[col] = {}
                col_order.append(col)
            for row_name, value in zip(pairs[::2], pairs[1::2]):
                v = finite_number(value, f"line {lineno}")
                if row_name != objective_row and row_name not in row_index:
                    raise InstanceFormatError(f"line {lineno}: unknown row {row_name!r}")
                if row_name in col_entries[col]:
                    raise InstanceFormatError(f"line {lineno}: column {col!r} names "
                                              f"row {row_name!r} twice")
                col_entries[col][row_name] = v
        elif section == "RHS":
            pairs = fields[1:]
            if len(pairs) % 2:
                raise InstanceFormatError(f"line {lineno}: odd row/value field count")
            for row_name, value in zip(pairs[::2], pairs[1::2]):
                if row_name not in row_index:
                    raise InstanceFormatError(f"line {lineno}: unknown RHS row {row_name!r}")
                rhs[row_name] = finite_number(value, f"line {lineno}")
        elif section in ("NAME", None):
            continue

    if objective_row is None:
        raise InstanceFormatError("no objective (N) row found")
    m, n = len(row_order), len(col_order)
    if m == 0 or n == 0:
        raise InstanceFormatError("empty ROWS or COLUMNS section")
    rows_idx, cols_idx, vals = [], [], []
    for j, col in enumerate(col_order):
        for row_name, v in col_entries[col].items():
            if row_name != objective_row:
                rows_idx.append(row_index[row_name])
                cols_idx.append(j)
                vals.append(v)
    A = sp.csc_matrix((vals, (rows_idx, cols_idx)), shape=(m, n))
    b = np.array([rhs.get(name, 0.0) for name in row_order])
    c = np.array([col_entries[col].get(objective_row, 0.0) for col in col_order])
    return LpInstance(A, b, c)


def finite_number(text: str, where: str) -> float:
    """``text`` as a finite float, else an ``InstanceFormatError`` naming
    ``where``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InstanceFormatError(f"{where}: value {text!r} is not a finite number")
    return value


def read_instance(path) -> LpInstance:
    """Dispatch on file extension: .mps -> MPS reader, else LP JSON."""
    if str(path).lower().endswith(".mps"):
        return read_mps(path)
    return read_lp_json(path)
