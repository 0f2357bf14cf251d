import numpy as np
import pytest

from tikmor.trace import format_cell


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
