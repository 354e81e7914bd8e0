"""Instance ingestion: LP JSON round trips and the MPS subset reader."""

import numpy as np
import pytest

from qsimplex.cli import main
from qsimplex.io import (InstanceFormatError, instance_from_dict,
                         instance_to_dict, read_lp_json, read_mps,
                         write_lp_json)
from qsimplex.lp import LpInstance

MPS_TEXT = """\
NAME          tiny
ROWS
 N  COST
 E  R1
 E  R2
COLUMNS
    X1  COST  -1.0  R1  1.0
    X2  COST  -1.0  R2  1.0
    S1  R1    1.0
    S2  R2    1.0
RHS
    RHS  R1  1.0  R2  2.0
ENDATA
"""


def test_json_round_trip(tmp_path):
    A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -2.0]])
    inst = LpInstance.from_dense(A, [1.0, 2.0], [0.0, -1.0, 0.25])
    path = tmp_path / "inst.json"
    write_lp_json(inst, path)
    back = read_lp_json(path)
    assert np.allclose(back.dense(), inst.dense())
    assert np.allclose(back.b, inst.b)
    assert np.allclose(back.c, inst.c)


def test_json_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 1,\n "n": }')
    with pytest.raises(InstanceFormatError, match=r"line 2, column"):
        read_lp_json(path)


def test_dict_validation():
    with pytest.raises(InstanceFormatError, match="missing"):
        instance_from_dict({"m": 1})
    doc = {"m": 1, "n": 1, "A": {"cols": [[[3, 1.0]]]}, "b": [1.0], "c": [0.0]}
    with pytest.raises(InstanceFormatError, match="out of range"):
        instance_from_dict(doc)


def test_column_count_mismatch():
    doc = {"m": 1, "n": 2, "A": {"cols": [[[0, 1.0]]]}, "b": [1.0], "c": [0, 0]}
    with pytest.raises(InstanceFormatError, match="columns"):
        instance_from_dict(doc)


def test_round_trip_preserves_sparsity():
    A = np.zeros((3, 4))
    A[0, 0] = 2.0
    A[2, 3] = -1.5
    A[1, 1] = 1.0
    A[0, 2] = 1.0
    inst = LpInstance.from_dense(A, [1, 1, 1], [0, 0, 0, 0])
    back = instance_from_dict(instance_to_dict(inst))
    assert back.A.nnz == inst.A.nnz
    assert back.col_nnz_max == inst.col_nnz_max


def test_mps_reader(tmp_path):
    path = tmp_path / "tiny.mps"
    path.write_text(MPS_TEXT)
    inst = read_mps(path)
    assert (inst.m, inst.n) == (2, 4)
    assert np.allclose(inst.b, [1.0, 2.0])
    assert np.allclose(inst.c, [-1.0, -1.0, 0.0, 0.0])
    assert np.allclose(inst.dense(),
                       [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def test_mps_rejects_inequality_rows(tmp_path):
    path = tmp_path / "bad.mps"
    path.write_text("NAME x\nROWS\n N COST\n L R1\nENDATA\n")
    with pytest.raises(InstanceFormatError, match="equality rows only"):
        read_mps(path)


def test_mps_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad2.mps"
    path.write_text("NAME x\nROWS\n N COST\n E R1\nRANGES\nENDATA\n")
    with pytest.raises(InstanceFormatError, match="unsupported section"):
        read_mps(path)


def _one_column(entries, m=2):
    return {"m": m, "n": 2, "A": {"cols": [[[0, 1.0]], entries]},
            "b": [1.0] * m, "c": [0.0, 0.0]}


@pytest.mark.parametrize("entries,message", [
    ([[1.5, 2.0]], r"row index 1.5 is not an integer in column 1"),
    ([[-1, 2.0]], r"row index -1 out of range \[0, 2\) in column 1"),
    ([[float("nan"), 2.0]], r"in column 1 is not a pair of finite numbers"),
    ([[1]], r"entry \[1\] in column 1 is not a \[row, value\] pair"),
    ([[0, 1.0, 2.0]], r"in column 1 is not a \[row, value\] pair"),
    ([[1, "x"]], r"entry \[1, 'x'\] in column 1 is not a pair of finite numbers"),
    ([[1, None]], r"in column 1 is not a pair of finite numbers"),
    ([[1, [2.0]]], r"in column 1 is not a pair of finite numbers"),
    ([[1, float("inf")]], r"in column 1 is not a pair of finite numbers"),
    (7, r"column 1 is not a list of \[row, value\] pairs"),
])
def test_dict_rejects_malformed_entries(entries, message):
    # every malformed entry names its column; none is truncated or coerced
    with pytest.raises(InstanceFormatError, match=message):
        instance_from_dict(_one_column(entries))


@pytest.mark.parametrize("field,value,message", [
    ("m", 2.5, r"m must be a positive integer, got 2\.5"),
    ("m", True, r"m must be a positive integer, got True"),
    ("m", -1, r"m must be a positive integer, got -1"),
    ("m", 0, r"m must be a positive integer, got 0"),
    ("n", "2", r"n must be a positive integer, got '2'"),
    ("A", {"cols": 5}, r"A\.cols must be a list of columns, got 5"),
])
def test_dict_rejects_malformed_sizes(field, value, message):
    # a size is neither truncated nor coerced, and no malformed size or
    # column list escapes as a bare numpy or len() error
    doc = _one_column([[1, 2.0]])
    doc[field] = value
    with pytest.raises(InstanceFormatError, match=message):
        instance_from_dict(doc)


def test_dict_rejects_non_numeric_rhs():
    doc = _one_column([[1, 2.0]])
    doc["b"] = [1.0, "x"]
    with pytest.raises(InstanceFormatError, match="lists of numbers"):
        instance_from_dict(doc)


def test_dict_builds_the_same_matrix_as_the_entries():
    # integer and float entries, an empty column, unsorted rows; a row
    # repeated in one column is an error, not a sum
    doc = {"m": 3, "n": 3,
           "A": {"cols": [[[2, 1], [0, 0.5]], [], [[1, -1.0], [0, 2.0]]]},
           "b": [1, 2, 3], "c": [0, 1, 0]}
    inst = instance_from_dict(doc)
    assert np.array_equal(inst.dense(), [[0.5, 0.0, 2.0],
                                         [0.0, 0.0, -1.0],
                                         [1.0, 0.0, 0.0]])
    assert inst.col_nnz_max == 2
    doc["A"]["cols"][2] = [[1, -2.0], [0, 2.0], [1, 1.0]]
    with pytest.raises(InstanceFormatError, match="row 1 appears twice in column 2"):
        instance_from_dict(doc)


@pytest.mark.parametrize("text,message", [
    # a ROWS entry without a row name
    ("NAME x\nROWS\n N COST\n E\nENDATA\n", r"line 4: a ROWS entry"),
    # a repeated row would otherwise be left as an empty row of A
    ("NAME x\nROWS\n N COST\n E R1\n E R1\nCOLUMNS\n X1 R1 1.0\nENDATA\n",
     r"line 5: duplicate row 'R1'"),
    ("NAME x\nROWS\n N COST\n E R1\nCOLUMNS\n X1 R1 abc\nENDATA\n",
     r"line 6: value 'abc' is not a finite number"),
    ("NAME x\nROWS\n N COST\n E R1\nCOLUMNS\n X1 R1 1.0\nRHS\n RHS R1 nan\nENDATA\n",
     r"line 8: value 'nan' is not a finite number"),
    # a repeated entry of A or of the objective would otherwise be summed
    ("NAME x\nROWS\n N COST\n E R1\nCOLUMNS\n X1 R1 1.0\n X1 COST 1.0 R1 2.0\nENDATA\n",
     r"line 7: column 'X1' names row 'R1' twice"),
    ("NAME x\nROWS\n N COST\n E R1\nCOLUMNS\n X1 COST 1.0 R1 1.0\n X1 COST 2.0\nENDATA\n",
     r"line 7: column 'X1' names row 'COST' twice"),
], ids=["rows-entry-without-name", "duplicate-row", "non-numeric-value", "non-finite-rhs",
        "repeated-entry", "repeated-objective-entry"])
def test_mps_malformed_line_names_it(tmp_path, text, message, capsys):
    path = tmp_path / "bad.mps"
    path.write_text(text)
    with pytest.raises(InstanceFormatError, match=message):
        read_mps(path)
    assert main(["classical", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line ")
