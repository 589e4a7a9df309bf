import inspect
import itertools
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tlscond as tc
from conftest import refuse_line_by_line
from tlscond import problem as problem_io
from tlscond.errors import ParseError, ShapeError

BANNER = "%%MatrixMarket matrix array real general\n"


def test_csv_load_splits_last_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("2,0\n0,1\n")
    problem = tc.load_problem(path)
    assert problem.m == 2 and problem.n == 1
    np.testing.assert_array_equal(problem.a_matrix, [[2.0], [0.0]])
    np.testing.assert_array_equal(problem.b_vector, [0.0, 1.0])


def test_csv_rejects_wide_short_block(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(",".join("1" for _ in range(5)) for _ in range(3)))
    with pytest.raises(ShapeError):
        tc.load_problem(path)


def test_csv_parse_errors(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError):
        tc.load_problem(path)
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError):
        tc.load_problem(path)
    path.write_text("")
    with pytest.raises(ParseError):
        tc.load_problem(path)


def test_matrixmarket_wrong_entry_count(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n4\n5\n")
    with pytest.raises(ParseError):
        tc.load_problem(path)


def test_matrixmarket_negative_size(tmp_path):
    # (-2) x (-3) matches the 6 entries, but no array has a negative size
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n-2 -3\n1\n2\n3\n4\n5\n6\n")
    with pytest.raises(ParseError):
        tc.load_problem(path)


@pytest.mark.parametrize("size", ["6", "3 two"], ids=["one token", "not an integer"])
def test_matrixmarket_bad_size_line(tmp_path, size):
    path = tmp_path / "p.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{size}\n1\n2\n3\n4\n5\n6\n")
    with pytest.raises(ParseError, match=f"bad size line '{size}'"):
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
    tc.save_problem(problem, path)
    back = tc.load_problem(path)
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
    # more entries than the file can hold: refused by count, with nothing allocated
    "mm size beyond the file": ("p.mtx", BANNER + "100000 100000\n" + MM_BODY[4:]),
    "mm banner only": ("p.mtx", BANNER),
    "mm underscore": ("p.mtx", BANNER + "3 2\n1_0\n2\n3\n4\n5\n6\n"),
    "mm nan": ("p.mtx", BANNER + "3 2\nnan\n2\n3\n4\n5\n6\n"),
    "mm overflow": ("p.mtx", BANNER + "3 2\n1e400\n2\n3\n4\n5\n6\n"),
    "mm hex float": ("p.mtx", BANNER + "3 2\n0x1p3\n2\n3\n4\n5\n6\n"),
    "mm leading bom": ("p.mtx", "\ufeff" + BANNER + MM_BODY),
    "mm symmetric banner": ("p.mtx", BANNER.replace("general", "symmetric") + MM_BODY),
    "mm named .gz": ("p.mtx.gz", BANNER + MM_BODY),
    "csv byte 0xff": ("p.csv", b"1,2\n3,\xff\n5,6\n"),
    "mm byte 0xff": ("p.mtx", BANNER.encode() + b"3 2\n1\n2\n\xff\n4\n5\n6\n"),
    "mm byte 0xff in a comment": ("p.mtx", BANNER.encode() + b"%\xff\n" + MM_BODY.encode()),
}
# one value among plain ones: values the byte check refuses (float reads "1."
# and "1.e5", the check does not), values it passes, and "-0", which mmread
# reads as +0.0
for token in ["1.2.3", "1e5e3", "1e5.3", "-.e5", ".", "-", "1e+", "+1", "-0", "1-2",
              "1.", "1.e5", ".5", "-.5e-3"]:
    READER_CORPUS[f"csv token {token}"] = ("p.csv", f"{token},2\n3,4\n5,6\n")
    READER_CORPUS[f"mm token {token}"] = ("p.mtx", f"{BANNER}3 2\n{token}\n2\n3\n4\n5\n6\n")


def _straddling(line: str, token: str) -> str:
    """Copies of ``line``, then ``token`` across byte _CHUNK, then an even number of lines."""
    copies = (problem_io._CHUNK - 3) // len(line)
    pad = "0" * (problem_io._CHUNK - 3 - copies * len(line))
    text = pad + line * copies + token + "\n" + line * 2
    return text + line * (text.count("\n") % 2)


def _mm_text(body: str, k: int) -> str:
    """A MatrixMarket file of ``k`` columns whose entries, one a line, are ``body``;
    its pieces start after the size line."""
    return f"{BANNER}{len(body.splitlines()) // k} {k}\n{body}"


# entries only the line-by-line reader takes, read by float's rules
FLOAT_TOKENS = ("1_0", "Infinity", "+1", "1.", "-0", "\u0661\u0662")
READER_CORPUS.update({
    "mm float tokens": ("p.mtx", f"{BANNER}3 2\n" + "\n".join(FLOAT_TOKENS) + "\n"),
    "mm float tokens and a comment": (
        "p.mtx", BANNER + "3 2\n1_0 Infinity +1\n% note\n1. -0 \u0661\u0662\n"),
    "csv token across a piece": ("p.csv", _straddling("1.5,2.25\n", "-123.5e-7,8")),
    "mm token across a piece": ("p.mtx", _mm_text(_straddling("1.25\n", "-123.5e-7"), 2)),
    "csv negative zeros in pieces": ("p.csv", "-0,-0.0e+00,-1e-400\n" * (problem_io._CHUNK // 6)),
    "mm negative zeros in pieces": (
        "p.mtx", _mm_text("-0.0000000000000000e+00\n-1e-400\n" * (problem_io._CHUNK // 8), 2)),
})


@pytest.mark.parametrize("case", sorted(READER_CORPUS))
def test_reader_matches_line_by_line_reference(tmp_path, case):
    name, text = READER_CORPUS[case]
    # load_problem's rule: the suffix names the format, so "p.mtx.gz" is CSV
    fmt = "mm" if Path(name).suffix in (".mtx", ".mm") else "csv"
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    expected = _outcome(_reference_load(fmt), path)
    assert _outcome(tc.load_problem, path) == expected


@pytest.mark.parametrize("case", ["mm float tokens", "mm float tokens and a comment"])
def test_matrixmarket_entries_are_read_as_float_reads_them(tmp_path, case):
    name, text = READER_CORPUS[case]
    path = tmp_path / name
    path.write_bytes(text.encode())
    expected = np.array([float(token) for token in FLOAT_TOKENS]).reshape(2, 3).T
    assert problem_io._read_mm_lines(path).tobytes() == expected.tobytes()
    for token in ("0x10", "1__0", "_1"):  # float refuses these, so the reader does
        path.write_bytes(text.replace(FLOAT_TOKENS[0], token).encode())
        with pytest.raises(ParseError, match=f"bad entry '{token}'"):
            problem_io._read_mm_lines(path)


def _special_values_problem():
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max,
                -np.finfo(float).max, 0.1, 1 / 3, float(2**53 + 1), float(2**53 + 2)]
    rng = np.random.default_rng(7)
    scaled = rng.standard_normal(62) * 10.0 ** rng.integers(-300, 301, 62)
    aug = np.concatenate([specials, scaled, rng.permutation(specials)]).reshape(-1, 4)
    return tc.TlsProblem(aug[:, :-1], aug[:, -1])


@pytest.mark.parametrize("name", ["p.csv", "p.mtx"])
def test_well_formed_files_skip_the_line_by_line_readers(tmp_path, monkeypatch, name):
    refuse_line_by_line(monkeypatch)
    rng = np.random.default_rng(5)
    drawn = tc.TlsProblem(rng.standard_normal((30, 4)), rng.standard_normal(30))
    for problem in (drawn, _special_values_problem()):  # -0.0 among the specials
        path = tmp_path / name
        tc.save_problem(problem, path)
        assert tc.load_problem(path).augmented().tobytes() == problem.augmented().tobytes()


@pytest.mark.parametrize("case", ["csv token across a piece", "mm token across a piece",
                                  "csv negative zeros in pieces", "mm negative zeros in pieces",
                                  "csv crlf", "mm crlf", "csv no final newline"])
def test_plain_files_skip_the_line_by_line_readers(tmp_path, monkeypatch, case):
    name, text = READER_CORPUS[case]
    path = tmp_path / name
    path.write_text(text, newline="")
    expected = _reference_load(case.split()[0])(path).augmented()
    refuse_line_by_line(monkeypatch)
    assert tc.load_problem(path).augmented().tobytes() == expected.tobytes()


PLAIN_DECIMAL = re.compile(rb"[+-]?(\d+(\.\d+)?|\.\d+)([eE][+-]?\d+)?")


@pytest.mark.parametrize("fmt", ["csv", "mm"])
def test_byte_check_accepts_exactly_the_plain_decimals(fmt):
    # every line of up to five bytes over digits, signs, points, exponents,
    # commas, a blank and a letter: the check passes it iff each of its values
    # (parted by commas in a CSV) is a plain decimal; "1." and "1.e5" are not
    # plain, and go to the line-by-line reader
    classes = problem_io._CSV_CLASSES if fmt == "csv" else problem_io._MM_CLASSES
    for size in range(1, 6):
        for line in map(bytes, itertools.product(b"1-+.eE, x", repeat=size)):
            plain = all(PLAIN_DECIMAL.fullmatch(value)
                        for value in (line.split(b",") if fmt == "csv" else [line]))
            seps = problem_io._plain_separators(line + b"\n", classes)
            assert (seps is not None) == plain, line
            if plain:
                assert seps == b"," * line.count(b",") + b"\n"


@pytest.mark.parametrize("fmt", ["csv", "mm"])
def test_special_values_round_trip_bit_exactly(tmp_path, fmt):
    problem = _special_values_problem()
    path = tmp_path / ("p.mtx" if fmt == "mm" else "p.csv")
    tc.save_problem(problem, path)
    for load in (tc.load_problem, _reference_load(fmt)):
        back = load(path).augmented()
        assert back.tobytes() == problem.augmented().tobytes()  # signbit of -0.0 too


def test_csv_cells_are_the_matrixmarket_entries(tmp_path):
    # both writers give a double the same text: the CSV, read row by row, holds
    # exactly the .mtx value lines, which are column-major
    rng = np.random.default_rng(5)
    drawn = tc.TlsProblem(rng.standard_normal((30, 4)), rng.standard_normal(30))
    for problem in (_special_values_problem(), drawn):
        m, k = problem.augmented().shape
        tc.save_problem(problem, tmp_path / "p.csv")
        tc.save_problem(problem, tmp_path / "p.mtx")
        lines = (tmp_path / "p.mtx").read_text().splitlines()
        size = next(i for i, line in enumerate(lines) if not line.startswith("%"))
        assert lines[size] == f"{m} {k}"
        entries = lines[size + 1:]
        assert len(entries) == m * k
        rows = (",".join(entries[j * m + i] for j in range(k)) for i in range(m))
        assert (tmp_path / "p.csv").read_text() == "\n".join(rows) + "\n"


def test_csv_pieces_meet_without_a_seam(tmp_path, monkeypatch):
    rng = np.random.default_rng(13)
    problem = tc.TlsProblem(rng.standard_normal((2000, 100)), rng.standard_normal(2000))
    tc.save_problem(problem, tmp_path / "pieces.csv")
    # room for all 2000 rows in one piece
    monkeypatch.setattr(problem_io, "_CHUNK", 2000 * 101 * problem_io._CELL_BYTES)
    tc.save_problem(problem, tmp_path / "whole.csv")
    assert (tmp_path / "pieces.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


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


NOT_UTF8 = {
    "csv": ("p.csv", b"1,2\n3,\xff\n5,6\n"),
    "mm entry": ("p.mtx", BANNER.encode() + b"3 2\n1\n2\n\xff\n4\n5\n6\n"),
    # past the 8 KiB that the header's text reader decodes: the body's read fails
    "mm entry past 8 KiB": ("p.mtx", BANNER.encode() + b"3000 2\n"
                            + b"1\n" * 5000 + b"\xff\n" + b"1\n" * 999),
    "mm banner": ("p.mtx", BANNER.encode().replace(b"general", b"general \xff") + MM_BODY.encode()),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, case):
    name, data = NOT_UTF8[case]
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
        tc.load_problem(path)


@pytest.mark.parametrize("name", ["p.csv", "p.mtx"])
def test_load_problem_reads_in_bounded_memory(tmp_path, name):
    # MiB above the 1.6 MB array of a 2000x101 file (4.1 MB of CSV, 4.7 MB of
    # MatrixMarket). A MatrixMarket piece is written into A and b as it is
    # parsed, so only the piece's byte check adds to the array: its three
    # 512 KiB buffers, 1.55 MiB. A CSV keeps its pieces' values until its row
    # count is known, 1.54 MiB. Both peaked 1.81 MiB above when the pieces were
    # joined and TlsProblem copied A out of the result, and 11-13 MB above when
    # a file was read whole.
    rng = np.random.default_rng(11)
    problem = tc.TlsProblem(rng.standard_normal((2000, 100)), rng.standard_normal(2000))
    path = tmp_path / name
    tc.save_problem(problem, path)
    tc.load_problem(path)  # scipy.io is imported outside the measurement
    tracemalloc.start()
    try:
        back = tc.load_problem(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.augmented().tobytes() == problem.augmented().tobytes()
    assert peak - problem.augmented().nbytes < 1.75 * 2**20


def test_pieces_are_parsed_on_one_thread(tmp_path, monkeypatch):
    # mmread starts a thread per CPU on each call; a 512 KiB piece is parsed on one
    import scipy.io
    from scipy.io import _fast_matrix_market as fmm

    rng = np.random.default_rng(17)
    problem = tc.TlsProblem(rng.standard_normal((2000, 100)), rng.standard_normal(2000))
    for name in ("p.csv", "p.mtx"):
        tc.save_problem(problem, tmp_path / name)
    whole = scipy.io.mmread(tmp_path / "p.mtx")
    cursor, parallelisms = fmm._get_read_cursor, []

    def counted(*args, **kwargs):
        bound = inspect.signature(cursor).bind(*args, **kwargs)
        parallelisms.append(bound.arguments.get("parallelism"))
        return cursor(*args, **kwargs)

    monkeypatch.setattr(fmm, "_get_read_cursor", counted)
    loads = [tc.load_problem(tmp_path / name) for name in ("p.csv", "p.mtx")]
    assert len(parallelisms) > 2 and set(parallelisms) == {1}  # several pieces per file
    for load in loads:
        assert load.a_matrix.flags.c_contiguous
        assert load.augmented().tobytes() == whole.tobytes()
    assert np.array_equal(loads[0].augmented(), loads[1].augmented())


def test_csv_header_is_cut_at_the_size_line(tmp_path, monkeypatch):
    # another scipy may write another header; the CSV starts after the size line
    import scipy.io

    problem = _special_values_problem()
    tc.save_problem(problem, tmp_path / "plain.csv")
    mmwrite = scipy.io.mmwrite
    monkeypatch.setattr(scipy.io, "mmwrite", lambda *args, **kwargs: mmwrite(
        *args, comment="a note\nover\n\nfour lines", **kwargs))
    tc.save_problem(problem, tmp_path / "commented.csv")
    assert (tmp_path / "commented.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_save_problem_writes_csv_in_bounded_memory(tmp_path):
    # a 2000x101 CSV written in pieces of at most 512 KiB peaked 1.2 MB above
    # its 1.6 MB array; written whole by one mmwrite into memory, 10.2 MB
    rng = np.random.default_rng(11)
    problem = tc.TlsProblem(rng.standard_normal((2000, 100)), rng.standard_normal(2000))
    path = tmp_path / "p.csv"
    tc.save_problem(problem, path)  # scipy.io is imported outside the measurement
    tracemalloc.start()
    try:
        tc.save_problem(problem, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tc.load_problem(path).augmented().tobytes() == problem.augmented().tobytes()
    assert peak - problem.augmented().nbytes < 3 * 2**20


def test_import_leaves_scipy_io_unloaded():
    # save_problem imports scipy.io itself; at module level it costs every run ~3 MiB
    src = str(Path(tc.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import tlscond; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_the_public_constructor_copies():
    # the caller's arrays are neither aliased nor made read-only
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((6, 2)), rng.standard_normal(6)
    problem = tc.TlsProblem(a, b)
    before = problem.augmented().tobytes()
    a[0, 0], b[0] = 7.0, 7.0
    assert problem.augmented().tobytes() == before
    assert a.flags.writeable and b.flags.writeable
    assert not (problem.a_matrix.flags.writeable or problem.b_vector.flags.writeable)


def test_problem_invariants():
    with pytest.raises(ShapeError, match="A must be a matrix and b a vector"):
        tc.TlsProblem([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ShapeError, match="b has length 3, expected 2"):
        tc.TlsProblem([[1.0], [2.0]], [1.0, 2.0, 3.0])
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_labels_stay_strings(tmp_path, fmt):
    """Labels that read as numbers ("1e3", "nan") come back as the same strings."""
    report = tc.ReportDocument(
        ("label", "v"), ({"label": "1e3", "v": 2.0}, {"label": "nan", "v": 3.0})
    )
    path = tmp_path / f"r.{fmt}"
    tc.save_report(report, path)
    assert tc.load_report(path).rows == report.rows


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
        ("label,kappa\nx,abc\n", 2),
        ('# metadata: {"seed": 1}\nlabel,v\n\nr1,1.0\nr2,nan\n', 5),
    ],
    ids=["extra cell", "duplicate column", "short row", "inf cell", "text cell",
         "nan after metadata"],
)
def test_load_report_refuses_malformed_csv(tmp_path, text, line):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=rf"r\.csv:{line}: "):
        tc.load_report(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# metadata: {seed: 1}\nlabel,v\nr1,1.0\n", "bad metadata line"),
        ('# metadata: {"seed": 1}\n', "empty report"),
        ("", "empty report"),
    ],
    ids=["metadata not json", "metadata only", "empty file"],
)
def test_load_report_refuses_a_csv_without_a_report(tmp_path, text, message):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        tc.load_report(path)


def test_a_report_refuses_text_in_a_numeric_column(tmp_path):
    # only the label column holds text
    with pytest.raises(ValueError, match="text 'abc' in the numeric column 'kappa'"):
        tc.ReportDocument(("label", "kappa"), ({"label": "x", "kappa": "abc"},))
    path = tmp_path / "r.json"
    path.write_text('{"metadata": {}, "rows": [{"label": "x", "kappa": "abc"}]}')
    with pytest.raises(ParseError, match="text 'abc' in the numeric column 'kappa'"):
        tc.load_report(path)


@pytest.mark.parametrize("value", ["true", "false", "[1, 2]", "{}"])
def test_a_json_report_refuses_a_non_number_in_a_numeric_column(tmp_path, value):
    path = tmp_path / "r.json"
    path.write_text(f'{{"metadata": {{}}, "rows": [{{"label": "x", "kappa": {value}}}]}}')
    with pytest.raises(ParseError, match="is not a number in the numeric column 'kappa'"):
        tc.load_report(path)


@pytest.mark.parametrize("value, loaded", [("1", 1), ("1.5", 1.5), ("null", None)])
def test_a_json_report_loads_numbers_and_null(tmp_path, value, loaded):
    path = tmp_path / "r.json"
    path.write_text(f'{{"metadata": {{}}, "rows": [{{"label": "x", "kappa": {value}}}]}}')
    assert tc.load_report(path).rows == ({"label": "x", "kappa": loaded},)


def test_load_report_refuses_a_non_finite_json_value(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"metadata": {}, "rows": [{"label": "r1", "v": Infinity}]}')
    with pytest.raises(ParseError, match="non-finite"):
        tc.load_report(path)
