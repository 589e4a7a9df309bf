"""Property: the plain-decimal path reads each written double as float reads it, bit for bit."""

import numpy as np
import pytest

import tlscond as tc
from conftest import refuse_line_by_line

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# each keeps 17 significant digits or more, so float reads back the double written
FORMATS = {
    "%.17g": lambda x: "%.17g" % x,
    "%.16e": lambda x: "%.16e" % x,
    "repr": repr,
    "zero-padded %.17g": lambda x: "%032.17g" % x,
    "zero-padded %.16e": lambda x: "%030.16e" % x,
    "25 digits": lambda x: "%.24e" % x,
    "40 digits": lambda x: "%.40g" % x,
}


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    # hypothesis's finite doubles take in subnormals, +-0.0 and +-max
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=40),
    fmt=st.sampled_from(sorted(FORMATS)),
    matrix_market=st.booleans(),
)
def test_the_plain_decimal_path_reads_what_float_reads(tmp_path_factory, values, fmt, matrix_market):
    rows = len(values) // 2
    aug = np.array(values[: 2 * rows]).reshape(rows, 2)
    cells = [[FORMATS[fmt](x) for x in row] for row in aug.tolist()]
    assert np.array([[float(c) for c in row] for row in cells]).tobytes() == aug.tobytes()
    path = tmp_path_factory.mktemp("plain") / ("p.mtx" if matrix_market else "p.csv")
    if matrix_market:  # column by column, one entry a line
        entries = "".join(row[j] + "\n" for j in (0, 1) for row in cells)
        path.write_text(f"%%MatrixMarket matrix array real general\n{rows} 2\n{entries}")
    else:
        path.write_text("".join(",".join(row) + "\n" for row in cells))
    with pytest.MonkeyPatch.context() as monkeypatch:
        refuse_line_by_line(monkeypatch)
        assert tc.load_problem(path).augmented().tobytes() == aug.tobytes()
