import math

import numpy as np
import pytest

from urbanmix.metrics import AggregateMetrics
from urbanmix.stats import UNTESTABLE
from urbanmix.stats import TestResult as TResult
from urbanmix.tabular import (fmt, metric_row, significance_cells, write_csv)


def test_fmt_none_and_nan_empty():
    assert fmt(None) == ""
    assert fmt(float("nan")) == ""


def test_fmt_bool():
    assert fmt(True) == "true"
    assert fmt(False) == "false"


def test_fmt_float_round_trips_exactly():
    for v in (0.1, 1 / 3, 52.5, -2.03005, 1e-17, 123456789.123456789):
        assert float(fmt(v)) == v


def test_fmt_int_and_str():
    assert fmt(42) == "42"
    assert fmt("mixed") == "mixed"


def test_fmt_numpy_float():
    assert fmt(np.float64(1.5)) == "1.5"
    assert fmt(np.float64(0.1)) == repr(0.1)
    assert fmt(np.float32(0.1)) == repr(float(np.float32(0.1)))
    assert fmt(np.float64("nan")) == ""


def test_fmt_numpy_bool():
    assert fmt(np.bool_(True)) == "true"
    assert fmt(np.bool_(False)) == "false"


def test_fmt_numpy_int():
    assert fmt(np.int64(42)) == "42"
    assert fmt(np.uint8(7)) == "7"


def test_write_csv_numpy_scalars_match_python_values(tmp_path):
    header = ("f", "b", "i", "n")
    numpy_row = (np.float64(0.1), np.bool_(False), np.int64(-3), np.float64("nan"))
    python_row = (0.1, False, -3, float("nan"))
    a = write_csv(tmp_path / "numpy.csv", header, [numpy_row]).read_text()
    b = write_csv(tmp_path / "python.csv", header, [python_row]).read_text()
    assert a == b == "f,b,i,n\n0.1,false,-3,\n"


def test_write_csv_layout(tmp_path):
    path = write_csv(tmp_path / "sub" / "t.csv", ("a", "b"),
                     [(1, 2.5), (None, True)])
    text = path.read_text()
    assert text == "a,b\n1,2.5\n,true\n"


def join_oracle(header, rows) -> bytes:
    """The file as written by joining the whole table into one string."""
    lines = [",".join(header)] + [",".join(fmt(cell) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_write_csv_streams_the_joined_bytes(tmp_path):
    header = ("f", "i", "s", "b", "x")
    rows = [(0.1, 1, "mixed", True, None),
            (float("nan"), -3, "", False, 1e-300),
            (-0.0, 0, "résumé", None, float("inf")),
            (np.float64(2.5), np.int64(7), np.bool_(True), np.float32(0.1),
             np.float64("nan")),
            (1 / 3, 10**20, "a b", False, np.uint8(255))]
    path = write_csv(tmp_path / "t.csv", header, rows)
    assert path.read_bytes() == join_oracle(header, rows)
    assert write_csv(tmp_path / "h.csv", header, []).read_bytes() == join_oracle(header, [])


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="row width"):
        write_csv(tmp_path / "t.csv", ("a", "b"), [(1, 2, 3)])
    # the good first row is not written either: no file is left behind
    with pytest.raises(ValueError, match="row width 1 != header width 2"):
        write_csv(tmp_path / "u.csv", ("a", "b"), [(1, 2), (1,)])
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "u.csv").exists()


def test_metric_row_none_self_consumption():
    agg = AggregateMetrics(pos_mismatch=0.0, neg_mismatch=-5.0,
                           utilisation=0.0, generation=0.0)
    row = metric_row(52.5, 0.0, "mixed", agg)
    assert row == (52.5, 0.0, "mixed", 0.0, -5.0, 0.0, None)


def test_significance_cells():
    res = TResult(t_stat=2.5, dof=30.0, p_value=0.018, reject=True)
    assert significance_cells(res) == (2.5, 30.0, 0.018, True)
    cells = significance_cells(UNTESTABLE)
    assert cells[0] is None
    assert cells[1] is None
    assert cells[2] == 1.0
    assert cells[3] is False
    assert not math.isnan(cells[2])
