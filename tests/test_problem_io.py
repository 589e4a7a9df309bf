import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tlscond as tc
from tlscond import problem as problem_io
from tlscond.errors import ParseError, ShapeError

BANNER = "%%MatrixMarket matrix array real general\n"


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


def _outcome(load, path):
    """What a load gives: the [A b] bits, or the exception type and message."""
    try:
        problem = load(path)
    except Exception as exc:  # the two readers are compared on any outcome
        return type(exc), str(exc)
    return problem.augmented().tobytes(), problem.augmented().shape


def _reference_load(fmt):
    read = problem_io._read_mm_lines if fmt == "mm" else problem_io._read_csv_lines
    return lambda path: problem_io._problem_from_array(read(path), label=path.stem)


MM_BODY = "3 2\n1\n2\n3\n4\n5\n6\n"
READER_CORPUS = {
    # CSV
    "csv plain": ("p.csv", "1,2\n3,4\n5,6\n"),
    "csv crlf": ("p.csv", "1,2\r\n3,4\r\n5,6\r\n"),
    "csv blank lines": ("p.csv", "\n1,2\n\n3,4\n5,6\n\n"),
    "csv whitespace-only line": ("p.csv", "1,2\n  \t\n3,4\n5,6\n"),
    "csv blanks around cells": ("p.csv", " 1 , 2\n3,\t4 \n5,6\n"),
    "csv empty cell": ("p.csv", "1,,2\n3,4,5\n6,7,8\n9,1,2\n"),
    "csv trailing comma": ("p.csv", "1,2,\n3,4,\n5,6,\n"),
    "csv underscore": ("p.csv", "1_0,2\n3,4\n5,6\n"),
    "csv nan": ("p.csv", "nan,2\n3,4\n5,6\n"),
    "csv overflow": ("p.csv", "1e400,2\n3,4\n5,6\n"),
    "csv hex float": ("p.csv", "0x1p3,2\n3,4\n5,6\n"),
    "csv bad exponent": ("p.csv", "0.5e+-3,2\n3,4\n5,6\n"),
    "csv number then text": ("p.csv", "1 x,2\n3,4\n5,6\n"),
    "csv hash line": ("p.csv", "# note\n1,2\n3,4\n5,6\n"),
    "csv semicolons": ("p.csv", "1;2\n3;4\n5;6\n"),
    "csv leading bom": ("p.csv", "\ufeff1,2\n3,4\n5,6\n"),
    "csv no final newline": ("p.csv", "1,2\n3,4\n5,6"),
    "csv ragged": ("p.csv", "1,2\n3\n5,6\n"),
    "csv form feed in a row": ("p.csv", "1\f,2\n3,4\n5,6\n"),
    "csv form feed ends a row": ("p.csv", "1,2\f\n3,4\n5,6\n"),
    "csv next-line in a row": ("p.csv", "1\x85,2\n3,4\n5,6\n"),
    "csv line separator between rows": ("p.csv", "1,2\u20283,4\n5,6\n"),
    "csv empty": ("p.csv", ""),
    "csv one column": ("p.csv", "1\n2\n3\n"),
    "csv named .gz": ("p.csv.gz", "1,2\n3,4\n5,6\n"),
    # MatrixMarket
    "mm plain": ("p.mtx", BANNER + MM_BODY),
    "mm crlf": ("p.mtx", (BANNER + MM_BODY).replace("\n", "\r\n")),
    "mm no final newline": ("p.mtx", BANNER + MM_BODY.rstrip("\n")),
    "mm comments and blanks before size": ("p.mtx", BANNER + "%\n\n  \n% note\n" + MM_BODY),
    "mm blank and whitespace-only entries": ("p.mtx", BANNER + "3 2\n1\n\n2\n \t\n3\n4\n5\n6\n"),
    "mm inline percent": ("p.mtx", BANNER + "3 2\n1\n2\n3\n4\n5\n6 % note\n"),
    "mm leading percent": ("p.mtx", BANNER + "3 2\n1\n%2\n3\n4\n5\n6\n"),
    "mm trailing percent": ("p.mtx", BANNER + MM_BODY + "%\n"),
    "mm two per line": ("p.mtx", BANNER + "3 2\n1 2\n3 4\n5 6\n"),
    "mm two on one line": ("p.mtx", BANNER + "3 2\n1\n2 3\n4\n5\n6\n"),
    "mm form feed between entries": ("p.mtx", BANNER + "3 2\n1\f2\n3\n4\n5\n6\n"),
    "mm too few": ("p.mtx", BANNER + "3 2\n1\n2\n3\n4\n5\n"),
    "mm too many": ("p.mtx", BANNER + MM_BODY + "7\n"),
    "mm zero size": ("p.mtx", BANNER + "0 0\n"),
    "mm banner only": ("p.mtx", BANNER),
    "mm underscore": ("p.mtx", BANNER + "3 2\n1_0\n2\n3\n4\n5\n6\n"),
    "mm nan": ("p.mtx", BANNER + "3 2\nnan\n2\n3\n4\n5\n6\n"),
    "mm overflow": ("p.mtx", BANNER + "3 2\n1e400\n2\n3\n4\n5\n6\n"),
    "mm hex float": ("p.mtx", BANNER + "3 2\n0x1p3\n2\n3\n4\n5\n6\n"),
    "mm leading bom": ("p.mtx", "\ufeff" + BANNER + MM_BODY),
    "mm symmetric banner": ("p.mtx", BANNER.replace("general", "symmetric") + MM_BODY),
    "mm named .gz": ("p.mtx.gz", BANNER + MM_BODY),
}


@pytest.mark.parametrize("case", sorted(READER_CORPUS))
def test_reader_matches_line_by_line_reference(tmp_path, case):
    name, text = READER_CORPUS[case]
    fmt = "mm" if case.startswith("mm") else "csv"
    path = tmp_path / name
    path.write_bytes(text.encode())
    expected = _outcome(_reference_load(fmt), path)
    assert _outcome(lambda p: tc.load_problem(p, fmt), path) == expected


@pytest.mark.parametrize("name", ["p.csv", "p.mtx"])
def test_well_formed_files_skip_the_line_by_line_readers(tmp_path, monkeypatch, name):
    rng = np.random.default_rng(5)
    problem = tc.TlsProblem(rng.standard_normal((30, 4)), rng.standard_normal(30))
    path = tmp_path / name
    tc.save_problem(problem, path)

    def refuse(path):
        raise AssertionError("the line-by-line reader ran on a well-formed file")

    monkeypatch.setattr(problem_io, "_read_csv_lines", refuse)
    monkeypatch.setattr(problem_io, "_read_mm_lines", refuse)
    np.testing.assert_array_equal(tc.load_problem(path).augmented(), problem.augmented())


def _special_values_problem():
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max,
                -np.finfo(float).max, 0.1, 1 / 3, float(2**53 + 1), float(2**53 + 2)]
    rng = np.random.default_rng(7)
    scaled = rng.standard_normal(62) * 10.0 ** rng.integers(-300, 301, 62)
    aug = np.concatenate([specials, scaled, rng.permutation(specials)]).reshape(-1, 4)
    return tc.TlsProblem(aug[:, :-1], aug[:, -1])


@pytest.mark.parametrize("fmt", ["csv", "mm"])
def test_special_values_round_trip_bit_exactly(tmp_path, fmt):
    problem = _special_values_problem()
    path = tmp_path / ("p.mtx" if fmt == "mm" else "p.csv")
    tc.save_problem(problem, path)
    for load in (tc.load_problem, _reference_load(fmt)):
        back = load(path).augmented()
        assert back.tobytes() == problem.augmented().tobytes()  # signbit of -0.0 too


def test_csv_cells_are_percent_17g(tmp_path):
    problem = _special_values_problem()
    path = tmp_path / "p.csv"
    tc.save_problem(problem, path)
    rows = (",".join(format(v, ".17g") for v in row) for row in problem.augmented())
    assert path.read_text() == "\n".join(rows) + "\n"


def test_matrixmarket_with_one_value_per_line_at_17g_loads_bit_exactly(tmp_path):
    problem = _special_values_problem()
    aug = problem.augmented()
    path = tmp_path / "p.mtx"
    cells = "\n".join(format(v, ".17g") for v in aug.T.ravel())
    path.write_text(f"{BANNER}{aug.shape[0]} {aug.shape[1]}\n{cells}\n")
    assert tc.load_problem(path).augmented().tobytes() == aug.tobytes()


def test_matrixmarket_symmetric_square_block_is_written_general(tmp_path):
    rng = np.random.default_rng(9)
    half = rng.standard_normal((5, 5))
    sym = half + half.T  # [A b] with m = n + 1 that equals its transpose
    problem = tc.TlsProblem(sym[:, :-1], sym[:, -1])
    path = tmp_path / "p.mtx"
    tc.save_problem(problem, path)
    assert path.read_text().splitlines()[0].split()[-1] == "general"
    assert tc.load_problem(path).augmented().tobytes() == sym.tobytes()


@pytest.mark.parametrize("name", ["p.csv", "p.mtx"])
def test_save_problem_raises_when_it_cannot_write(tmp_path, name):
    problem = tc.TlsProblem([[1.0], [2.0]], [1.0, 3.0])
    with pytest.raises(OSError):
        tc.save_problem(problem, tmp_path / "missing" / name)
    directory = tmp_path / name
    directory.mkdir()
    with pytest.raises(OSError):
        tc.save_problem(problem, directory)


def test_import_leaves_scipy_io_unloaded():
    # save_problem imports scipy.io itself; at module level it costs every run ~3 MiB
    src = str(Path(tc.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import tlscond; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

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
    with pytest.raises(ValueError, match="duplicate column"):
        tc.ReportDocument(("a", "a"), ({"a": 1.0},))  # save_report would write "a,a"
    report = tc.ReportDocument(("a",), (), {})
    with pytest.raises(ValueError):
        tc.save_report(report, "/tmp/never-written.csv")


@pytest.mark.parametrize(
    "text, line",
    [
        ("label,v\nr1,1.0,extra\n", 2),
        ("label,label\nr1,r2\n", 1),
        ("label,v\nr1\n", 2),
        ("label,v\nr1,inf\n", 2),
        ('# metadata: {"seed": 1}\nlabel,v\n\nr1,1.0\nr2,nan\n', 5),
    ],
    ids=["extra cell", "duplicate column", "short row", "inf cell", "nan after metadata"],
)
def test_load_report_refuses_malformed_csv(tmp_path, text, line):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=rf"r\.csv:{line}: "):
        tc.load_report(path)


def test_load_report_refuses_a_non_finite_json_value(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"metadata": {}, "rows": [{"label": "r1", "v": Infinity}]}')
    with pytest.raises(ParseError, match="non-finite"):
        tc.load_report(path)
