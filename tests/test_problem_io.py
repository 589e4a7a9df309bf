import numpy as np
import pytest

import tlscond as tc
from tlscond.errors import ParseError, ShapeError


def test_csv_load_splits_last_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("2,0\n0,1\n")
    problem = tc.load_problem(path, "csv")
    assert problem.m == 2 and problem.n == 1
    np.testing.assert_array_equal(problem.a_matrix, [[2.0], [0.0]])
    np.testing.assert_array_equal(problem.b_vector, [0.0, 1.0])


def test_csv_rejects_wide_short_block(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(",".join("1" for _ in range(5)) for _ in range(3)))
    with pytest.raises(ShapeError):
        tc.load_problem(path, "csv")


def test_csv_parse_errors(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError):
        tc.load_problem(path, "csv")
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError):
        tc.load_problem(path, "csv")
    path.write_text("")
    with pytest.raises(ParseError):
        tc.load_problem(path, "csv")


def test_matrixmarket_wrong_entry_count(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n4\n5\n")
    with pytest.raises(ParseError):
        tc.load_problem(path, "matrixmarket-dense")


def test_matrixmarket_negative_size(tmp_path):
    # (-2) x (-3) matches the 6 entries, but no array has a negative size
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n-2 -3\n1\n2\n3\n4\n5\n6\n")
    with pytest.raises(ParseError):
        tc.load_problem(path)


def test_matrixmarket_bad_banner(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 2 6\n")
    with pytest.raises(ParseError):
        tc.load_problem(path)


def test_matrixmarket_column_major_order(tmp_path):
    path = tmp_path / "p.mtx"
    # column-major storage of [[1,4],[2,5],[3,6]]
    path.write_text(
        "%%MatrixMarket matrix array real general\n% comment\n3 2\n1\n2\n3\n4\n5\n6\n"
    )
    problem = tc.load_problem(path)
    np.testing.assert_array_equal(problem.a_matrix, [[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(problem.b_vector, [4.0, 5.0, 6.0])


def test_matrixmarket_bad_token_deep_in_a_large_file(tmp_path):
    path = tmp_path / "p.mtx"
    rng = np.random.default_rng(1)
    tc.save_problem(tc.TlsProblem(rng.standard_normal((1000, 50)), rng.standard_normal(1000)), path)
    lines = path.read_text().splitlines()
    lines[40_000] = "0.5e+-3"  # entry 39_999 of 51_000
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"bad entry '0\.5e\+-3'"):
        tc.load_problem(path)


def test_matrixmarket_comment_lines_among_entries(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n3 2\n1\n% note\n2 3\n\n4\n  %\n5\n6\n"
    )
    problem = tc.load_problem(path)
    np.testing.assert_array_equal(problem.a_matrix, [[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(problem.b_vector, [4.0, 5.0, 6.0])


@pytest.mark.parametrize("fmt", ["csv", "matrixmarket-dense"])
def test_problem_round_trip_exact(tmp_path, fmt):
    rng = np.random.default_rng(3)
    problem = tc.TlsProblem(rng.standard_normal((7, 3)), rng.standard_normal(7))
    path = tmp_path / ("p.mtx" if fmt != "csv" else "p.csv")
    tc.save_problem(problem, path, fmt)
    back = tc.load_problem(path, fmt)
    np.testing.assert_array_equal(back.a_matrix, problem.a_matrix)
    np.testing.assert_array_equal(back.b_vector, problem.b_vector)


def test_problem_invariants():
    with pytest.raises(ShapeError):
        tc.TlsProblem([[1.0, 2.0]], [1.0])  # m = 1 <= n = 2
    with pytest.raises(ShapeError):
        tc.TlsProblem([[1.0], [np.nan]], [1.0, 2.0])
    with pytest.raises(ShapeError):
        tc.TlsProblem([[1.0], [2.0]], [1.0, np.inf])
    problem = tc.TlsProblem([[1.0], [2.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        problem.a_matrix[0, 0] = 5.0  # frozen storage


def _sample_report():
    return tc.ReportDocument(
        columns=("label", "value", "bound"),
        rows=(
            {"label": "r1", "value": 1.25, "bound": None},
            {"label": "r2", "value": np.pi * 1e8, "bound": 3e-17},
            {"label": "r3", "value": -7.0, "bound": 2.0 / 3.0},
        ),
        metadata={"seed": 11, "kind": "unit-test"},
    )


def test_report_single_row_csv(tmp_path):
    report = tc.ReportDocument(("label", "v"), ({"label": "only", "v": 2.0},), {})
    path = tmp_path / "r.csv"
    tc.save_report(report, path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    assert lines[0] == "label,v"
    assert len(lines) == 2


def test_report_none_becomes_json_null(tmp_path):
    path = tmp_path / "r.json"
    tc.save_report(_sample_report(), path)
    assert '"bound": null' in path.read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_round_trip_identical(tmp_path, fmt):
    report = _sample_report()
    path = tmp_path / f"r.{fmt}"
    tc.save_report(report, path)
    back = tc.load_report(path)
    assert back.columns == report.columns
    assert back.metadata == report.metadata
    for got, expected in zip(back.rows, report.rows):
        assert got == expected  # binary-exact floats, None preserved


def test_report_rejects_bad_rows():
    with pytest.raises(ValueError):
        tc.ReportDocument(("a",), ({"a": np.inf},))
    with pytest.raises(ValueError):
        tc.ReportDocument(("a",), ({"b": 1.0},))
    report = tc.ReportDocument(("a",), (), {})
    with pytest.raises(ValueError):
        tc.save_report(report, "/tmp/never-written.csv")
