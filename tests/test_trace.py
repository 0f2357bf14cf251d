import csv

import numpy as np
import pytest

from tikmor.trace import SolveTrace, format_cell, write_csv


@pytest.mark.parametrize(
    "value, text",
    [
        (None, ""),
        (3, "3"),
        (True, "1"),
        (np.int64(-7), "-7"),
        (0.1, "0.1"),
        (np.float64(1e-300), "1e-300"),
        (np.float64(2.5), "2.5"),
        (float("inf"), "inf"),
        (float("nan"), "nan"),
        ("not finite, alpha = 0", "not finite, alpha = 0"),
    ],
)
def test_format_cell(value, text):
    assert format_cell(value) == text


def test_write_csv_quotes_string_fields(tmp_path):
    # an error message may hold commas, quotes and line breaks; numbers stay bare
    message = '||b|| = inf, eps = 0.1: "not finite"\nat step 0'
    write_csv(tmp_path / "t.csv", ("alpha", "error"), [(0.5, message), (1, "ok")])
    text = (tmp_path / "t.csv").read_text()
    assert text.startswith('alpha,error\n0.5,"||b|| = inf, eps = 0.1: ""not finite""')
    assert text.endswith("\n1,ok\n")
    with open(tmp_path / "t.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["alpha", "error"], ["0.5", message], ["1", "ok"]]


def test_solve_trace_rejects_a_wrong_row_or_column():
    trace = SolveTrace(columns=("iter", "alpha"))
    trace.append(0, None)
    with pytest.raises(ValueError, match="expected 2 values, got 3"):
        trace.append(1, 0.5, 0.1)
    with pytest.raises(KeyError, match="gamma"):
        trace.column("gamma")
    assert len(trace) == 1 and np.isnan(trace.column("alpha")[0])
