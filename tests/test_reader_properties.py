"""Property: the plain-decimal path reads each written double as float reads it, bit for bit."""

import numpy as np
import pytest

import tlscond as tc
from conftest import refuse_line_by_line
from tlscond import problem as problem_io

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


@st.composite
def augmented_arrays(draw):
    """An m x (n+1) [A b] of finite doubles, m > n >= 1."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n + 1, 12))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(floats, min_size=m * (n + 1), max_size=m * (n + 1)))).reshape(m, n + 1)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(aug=augmented_arrays())
def test_written_problems_read_back_bit_for_bit(tmp_path_factory, aug):
    # a small _CHUNK writes a CSV in pieces of one or two rows
    problem = tc.TlsProblem(aug[:, :-1], aug[:, -1])
    directory = tmp_path_factory.mktemp("written")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(problem_io, "_CHUNK", 100)
        for name, read_lines in (("p.csv", problem_io._read_csv_lines),
                                 ("p.mtx", problem_io._read_mm_lines)):
            path = directory / name
            tc.save_problem(problem, path)
            assert read_lines(path).tobytes() == aug.tobytes()
        refuse_line_by_line(monkeypatch)
        for name in ("p.csv", "p.mtx"):
            assert tc.load_problem(directory / name).augmented().tobytes() == aug.tobytes()
