"""Problem and report containers plus file IO.

Storage convention: one m x (n+1) array holds [A b]; the last column is b.
The file name decides the format. A problem file ending in .mtx or .mm is a
MatrixMarket dense array, and any other is headerless CSV. A report file
ending in .json is JSON with schema ``{"metadata": {...}, "rows": [{...}]}``,
and any other is CSV (header line first). A problem's numbers are written
with the fewest significant digits that read back as the same double (0.1 as
``1E-1``, -0.0 as ``-0``), a report's with 17 (``%.17g``); either reloads the
binary doubles exactly.

Problem files go through compiled text kernels in both directions:

- Reads take one of two paths, with the same outcome. The plain-decimal path
  reads the file as bytes, in whole lines about 512 KiB at a time, and parses
  each piece with ``scipy.io.mmread``'s compiled reader (fast_matrix_market)
  as a one-column MatrixMarket array, a CSV comma read as a line end. Each
  piece is parsed on one thread: ``mmread`` itself starts a thread per CPU on
  every call, which costs a piece this size more than it saves.
  ``mmread`` reads a plain decimal, ``[+-]?(D+(.D+)?|.D+)([eE][+-]?D+)?``,
  as ``float`` does, bit for bit, but drops the sign of a zero, which is put
  back. On anything else it is lax: it reads ``0.5e+-3`` as 0.5, ``1 x`` as
  1, ``0x1p3`` as 0 and ``1_0`` as 1, and keeps the first of two values on a
  line. So a byte check first proves each value plain and, for a CSV, each
  line as long as the first. What it refuses (any byte but digits, signs,
  points, ``e``, ``E``, line ends and a CSV's commas; a blank line, a ragged
  row, ``1.``) and what ``mmread`` refuses (a leading ``+``) go to the
  line-by-line reader, which reads the file as UTF-8 text and decides: it
  names the faulty line or entry, or accepts what ``float`` accepts.
  A MatrixMarket size line gives A's and b's shapes, so each piece, a run of
  the column-major order, is written into them as it is parsed: the array
  is held once. A CSV's row count is known only at its end, so its pieces'
  values are kept until then and copied into A and b, with no joined copy
  between. Either way the loaded problem adopts A and b (TlsProblem._adopt).
- Both formats are written by ``scipy.io.mmwrite`` (fast_matrix_market's
  compiled writer) with its default round-trip formatting. A CSV is written
  in whole rows, about 512 KiB at a time: ``mmwrite`` writes a piece's
  transpose into memory, one value a line, the header is cut at the size
  line, and every line end but each (n+1)-th becomes a comma. So each CSV
  cell is the text of the matching MatrixMarket entry. ``mmwrite`` is given
  a handle that Python opened, never a path: given a path it cannot open, it
  returns without writing anything or raising.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError

_MM_SUFFIXES = (".mtx", ".mm")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@dataclass(frozen=True)
class TlsProblem:
    """An overdetermined pair (A, b) with A of shape (m, n), m > n >= 1.

    The constructor copies A (C-ordered) and b, and makes the copies
    read-only; the package's own readers and generators hand over arrays
    they have just made through _adopt, which does not copy.
    """

    a_matrix: np.ndarray
    b_vector: np.ndarray
    label: str = ""

    def __post_init__(self):
        # private copies in one memory order, so the same doubles from any
        # source round alike and a caller's arrays are never made read-only
        self._own(np.array(self.a_matrix, dtype=float, order="C"),
                  np.array(self.b_vector, dtype=float))

    @classmethod
    def _adopt(cls, a: np.ndarray, b: np.ndarray, label: str = "") -> TlsProblem:
        """A problem that takes ownership of a C-contiguous float A and a float
        b that the package has just made and that nothing else references: no
        copy is made, and the arrays are made read-only."""
        problem = object.__new__(cls)
        object.__setattr__(problem, "label", label)
        problem._own(a, b)
        return problem

    def _own(self, a: np.ndarray, b: np.ndarray) -> None:
        """Check a and b, make them read-only and hold them."""
        if a.ndim != 2 or b.ndim != 1:
            raise ShapeError("A must be a matrix and b a vector")
        m, n = a.shape
        if b.shape[0] != m:
            raise ShapeError(f"b has length {b.shape[0]}, expected {m}")
        if n < 1 or m <= n:
            raise ShapeError(f"need m > n >= 1, got m={m}, n={n}")
        # a NaN or an infinity reaches the minimum or the maximum, and no
        # m x n mask is allocated
        if not np.isfinite([a.min(), a.max(), b.min(), b.max()]).all():
            raise ShapeError("entries must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_vector", b)

    @property
    def m(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.a_matrix.shape[1]

    def augmented(self) -> np.ndarray:
        """The m x (n+1) array [A b]."""
        return np.hstack([self.a_matrix, self.b_vector[:, None]])


@dataclass(frozen=True)
class ReportDocument:
    """Ordered labeled numeric records plus run metadata.

    Every row maps each name in ``columns`` to a finite float, ``None``
    (rendered as an empty CSV cell / JSON null, meaning "not applicable"),
    or a string for the label column.
    """

    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(dict(r) for r in self.rows))
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column in {list(self.columns)}")
        for row in self.rows:
            _check_row(self.columns, row)


def _check_row(columns: tuple[str, ...], row: dict) -> None:
    """Raise ValueError unless ``row`` is a valid :class:`ReportDocument` row."""
    if set(row) != set(columns):
        raise ValueError(f"row keys {sorted(row)} != columns {sorted(columns)}")
    for key, value in row.items():
        if value is None or (key == "label" and isinstance(value, str)):
            continue
        if isinstance(value, str):
            raise ValueError(f"text {value!r} in the numeric column {key!r}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{value!r} is not a number in the numeric column {key!r}")
        if not np.isfinite(value):
            raise ValueError(f"non-finite value for {key!r}; use None instead")


def _problem_from_array(data: np.ndarray, label: str) -> TlsProblem:
    # TlsProblem checks the shape; this guard only keeps data[:, -1] in bounds
    if data.ndim != 2 or data.size == 0:
        raise ShapeError("stored array must be a nonempty 2-D [A b] block")
    return TlsProblem(data[:, :-1], data[:, -1], label=label)


def _is_mm(path: Path) -> bool:
    return path.suffix.lower() in _MM_SUFFIXES


def _not_text(path: Path, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text ({exc.reason})")


def _read_csv_lines(path: Path) -> np.ndarray:
    """The line-by-line CSV reader: it names the line of a bad cell."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_text(path, exc) from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: ragged rows")
    return np.array(rows, dtype=float)


_CHUNK = 1 << 19  # bytes the plain-decimal path reads at a time
# The byte check gives each byte a class: one bit in the low nibble names it,
# and the high nibble holds the bits of the classes that may follow it. An
# exponent and a separator share a bit: each may follow a digit and nothing
# else.
_DIGIT, _POINT, _SIGN, _AFTER_DIGIT = 1, 2, 4, 8
_FIRST = _DIGIT | _POINT | _SIGN  # what a value may start with


def _byte_classes(separators: bytes) -> bytes:
    """A translate table from each byte to its class; 0 for a byte that may not
    appear. ``separators`` end a value as a newline does."""
    table = bytearray(256)
    for chars, name, followers in (
        (b"0123456789", _DIGIT, _DIGIT | _POINT | _AFTER_DIGIT),
        (b".", _POINT, _DIGIT),
        (b"+-", _SIGN, _DIGIT | _POINT),
        (b"eE", _AFTER_DIGIT, _DIGIT | _SIGN),
        (b"\n" + separators, _AFTER_DIGIT, _FIRST),
    ):
        for char in chars:
            table[char] = followers << 4 | name
    return bytes(table)


_MM_CLASSES = _byte_classes(b"")
_CSV_CLASSES = _byte_classes(b",")
# a value's marks: the bytes that are not digits or signs, with "E" read as "e"
_MARKS = bytes.maketrans(b"E", b"e")
_NOT_MARKS = b"0123456789+-"


def _plain_separators(piece: bytes, classes: bytes) -> bytes | None:
    """The separators of ``piece`` in order, if each of its values is a plain
    decimal and values are parted by separators (``classes`` says which bytes);
    else None.

    ``piece`` holds whole lines. Where each byte may follow the one before it,
    a value is a sign, digits, a point, digits, an exponent, a sign and
    digits, some of them missing or repeated: it starts with a sign, a digit
    or a point, ends with a digit, has a digit after each point and before
    each exponent, and a sign only first or after the exponent. Its marks then
    rule out a repeat: they must read "." then "e", each at most once, which
    holds where each mark at or above "." exceeds the one before it
    ("\\n" < "," < "." < "e").
    """
    c = np.frombuffer(piece.translate(classes), np.uint8)
    follows = c[:-1] >> 4
    follows &= c[1:]
    if not (c[0] & _FIRST and follows.all()):
        return None
    del c, follows  # at most three piece-sized buffers at once
    marks = piece.translate(_MARKS, _NOT_MARKS)
    m = np.frombuffer(marks, np.uint8)
    if ((m[1:] >= ord(".")) & (m[1:] <= m[:-1])).any():
        return None
    return marks.translate(None, b".e")


def _next_piece(fh) -> bytes:
    """The next whole lines of binary handle ``fh``, about _CHUNK bytes and
    ending with a newline (a CRLF read as one); b"" at the end."""
    piece = fh.read(_CHUNK)
    if piece and piece[-1:] != b"\n":
        piece += fh.readline()
        if piece[-1:] != b"\n":  # the last line has no newline
            piece += b"\n"
    return piece.replace(b"\r\n", b"\n") if b"\r" in piece else piece


def _read_plain(path: Path, classes: bytes, take, offset: int = 0) -> int | None:
    """The values per line of ``path`` from byte ``offset`` on, each piece
    checked, parsed by mmread's compiled reader as a one-column array and
    handed to ``take`` in file order; None where the check refuses a value,
    where a line holds another number of values than the first, where the
    reader refuses, or where there is no line. A piece holds whole lines.

    A piece is parsed on one thread, through the two calls behind ``mmread``:
    ``mmread`` takes no thread count and starts a thread per CPU, and a piece
    is too small for a second thread to pay for its start-up.
    """
    # imported here: scipy.io costs every importer ~3 MiB
    from scipy.io._fast_matrix_market import _get_read_cursor, _read_body_array

    width = None
    with path.open("rb") as fh:
        fh.seek(offset)
        while piece := _next_piece(fh):
            seps = _plain_separators(piece, classes)
            if seps is None:
                return None
            width = width or seps.index(b"\n") + 1
            if seps != (b"," * (width - 1) + b"\n") * (len(seps) // width):
                return None
            # one value a line: a CSV's commas become line ends
            text = b"%%%%MatrixMarket matrix array real general\n%d 1\n" % len(seps) + piece
            del piece  # two piece-sized buffers at most while the reader runs
            text = text.replace(b",", b"\n")
            try:
                cursor, _ = _get_read_cursor(io.BytesIO(text), parallelism=1)
                values = _read_body_array(cursor)[:, 0]
            except ValueError:  # the reader refuses a leading "+"
                return None
            zeros = np.flatnonzero(values == 0)
            if zeros.size:  # the reader reads "-0" and "-1e-400" as +0.0, float as -0.0
                raw = np.frombuffer(text, np.uint8)
                # the header holds two newlines: value i starts after newline i + 1
                starts = np.flatnonzero(raw == ord("\n"))[zeros + 1] + 1
                values[zeros[raw[starts] == ord("-")]] = -0.0
                del raw
            take(values)
            del cursor, text, values  # no buffer of this piece is alive while the next is checked
    return width


def _read_csv(path: Path) -> TlsProblem:
    """A CSV problem: each piece's values are whole rows, kept until the row
    count is known and then copied into A and b."""
    parts = []
    width = _read_plain(path, _CSV_CLASSES, parts.append)
    if width is None:
        return _problem_from_array(_read_csv_lines(path), label=path.stem)
    rows = sum(map(len, parts)) // width
    a, b, start = np.empty((rows, width - 1)), np.empty(rows), 0
    for part in parts:
        part = part.reshape(-1, width)
        a[start : start + len(part)], b[start : start + len(part)] = part[:, :-1], part[:, -1]
        start += len(part)
    return TlsProblem._adopt(a, b, label=path.stem)


def _read_mm_header(path: Path, fh) -> tuple[int, int, int]:
    """Check the banner and read the size line of text handle ``fh`` (opened
    with newline=""): (m, k, bytes read)."""
    try:
        line = fh.readline()
        banner = line.rstrip("\r\n")
        if not banner.lower().startswith("%%matrixmarket"):
            raise ParseError(f"{path}: missing MatrixMarket banner")
        if not {"matrix", "array", "real", "general"} <= set(banner.lower().split()):
            raise ParseError(f"{path}: unsupported MatrixMarket flavor {banner!r}")
        offset = len(line.encode())
        while line := fh.readline():
            offset += len(line.encode())
            if line.strip() and not line.lstrip().startswith("%"):
                break
        else:
            raise ParseError(f"{path}: missing size line")
    except UnicodeDecodeError as exc:
        raise _not_text(path, exc) from exc
    size = line.rstrip("\r\n")
    dims = size.split()
    if len(dims) != 2:
        raise ParseError(f"{path}: bad size line {size!r}")
    try:
        m, k = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise ParseError(f"{path}: bad size line {size!r}") from exc
    if m < 0 or k < 0:
        raise ParseError(f"{path}: negative size in {size!r}")
    return m, k, offset


def _mm_block(path: Path, values: np.ndarray, m: int, k: int) -> np.ndarray:
    if values.size != m * k:
        raise ParseError(f"{path}: expected {m * k} entries, found {values.size}")
    # MatrixMarket array data is stored column-major.
    return values.reshape((k, m)).T


def _read_mm_lines(path: Path) -> np.ndarray:
    """The line-by-line MatrixMarket reader: it names a bad entry."""
    with path.open(encoding="utf-8", newline="") as fh:
        m, k, _ = _read_mm_header(path, fh)
        try:
            body = fh.read()
        except UnicodeDecodeError as exc:
            raise _not_text(path, exc) from exc
    values = []
    for line in body.splitlines():
        if line.lstrip().startswith("%"):
            continue
        for token in line.split():
            try:
                values.append(float(token))
            except ValueError as exc:
                raise ParseError(f"{path}: bad entry {token!r}") from exc
    return _mm_block(path, np.array(values, dtype=float), m, k)


def _fill_column_major(a: np.ndarray, b: np.ndarray, start: int, values: np.ndarray) -> None:
    """Write ``values``, the entries of [A b] in column-major order from entry
    ``start`` on, into the C-ordered ``a`` and ``b``: a run of whole columns
    of A in one copy, a part of a column in another."""
    m, n = a.shape
    columns = a.T  # row j is column j of A
    while len(values):
        j, i = divmod(start, m)
        if j == n:
            b[i : i + len(values)] = values
            return
        if i == 0 and len(values) >= m:
            step = min(len(values) // m, n - j) * m
            columns[j : j + step // m] = values[:step].reshape(-1, m)
        else:
            step = min(len(values), m - i)
            columns[j, i : i + step] = values[:step]
        start, values = start + step, values[step:]


def _read_mm(path: Path) -> TlsProblem:
    """A MatrixMarket problem: the size line gives A's and b's shapes, and each
    piece is written into them as it is parsed."""
    with path.open(encoding="utf-8", newline="") as fh:
        m, k, offset = _read_mm_header(path, fh)
    # a value takes two bytes at least, one of them its line end (the last may
    # have none): a size line that claims more than the file holds allocates
    # nothing, and its count is refused below
    fits = m >= 1 and k >= 1 and 2 * m * k <= path.stat().st_size - offset + 1
    a, b = (np.empty((m, k - 1)), np.empty(m)) if fits else (None, None)
    count = 0

    def take(values: np.ndarray) -> None:
        nonlocal count
        if fits and count + len(values) <= m * k:
            _fill_column_major(a, b, count, values)
        count += len(values)

    if _read_plain(path, _MM_CLASSES, take, offset) is None:
        return _problem_from_array(_read_mm_lines(path), label=path.stem)
    if count != m * k:
        raise ParseError(f"{path}: expected {m * k} entries, found {count}")
    # count = m k >= 1 values were read, so the file holds them and fits holds
    return TlsProblem._adopt(a, b, label=path.stem)


def load_problem(path) -> TlsProblem:
    """Read an m x (n+1) [A b] array and split off the last column as b.

    A path ending in .mtx or .mm (any case) is read as a MatrixMarket dense
    array, any other as CSV.
    """
    path = Path(path)
    return _read_mm(path) if _is_mm(path) else _read_csv(path)


# the longest line mmwrite writes for a double: "-2.2250738585072014E-308\n"
_CELL_BYTES = 25


def _write_csv(aug: np.ndarray, fh) -> None:
    """Write ``aug`` as CSV to binary handle ``fh`` in pieces of whole rows,
    each at most _CHUNK bytes unless it is a single row.

    ``mmwrite`` writes each piece transposed, so its column-major entries, one
    a line, are the piece's cells row by row; past the header, every line end
    but each (n+1)-th becomes a comma.
    """
    from scipy.io import mmwrite  # imported here: scipy.io costs every importer ~3 MiB

    k = aug.shape[1]
    rows = max(1, _CHUNK // (_CELL_BYTES * k))
    for start in range(0, aug.shape[0], rows):
        buf = io.BytesIO()
        mmwrite(buf, aug[start:start + rows].T, symmetry="general")
        raw = np.frombuffer(buf.getbuffer(), np.uint8)
        ends = np.flatnonzero(raw == ord("\n"))
        # the header ends with the size line, the first that does not start with "%"
        size = 1 + np.argmax(raw[ends[:-1] + 1] != ord("%"))
        raw[ends[size + 1:].reshape(-1, k)[:, :-1]] = ord(",")
        fh.write(raw[ends[size] + 1:])


def save_problem(problem: TlsProblem, path) -> None:
    """Write the [A b] array of ``problem``: MatrixMarket dense form for a path
    ending in .mtx or .mm, CSV for any other."""
    path = Path(path)
    aug = problem.augmented()
    # a handle, not the path: given a path that cannot be opened, mmwrite
    # returns without writing or raising
    with path.open("wb") as fh:
        if _is_mm(path):
            # imported here: scipy.io costs every importer of tlscond about 3 MiB
            from scipy.io import mmwrite

            # "general" keeps a symmetric square [A b] from being written as
            # "symmetric", which the reader refuses.
            mmwrite(fh, aug, symmetry="general")
        else:
            _write_csv(aug, fh)


def _is_json(path: Path) -> bool:
    return path.suffix.lower() == ".json"


def save_report(report: ReportDocument, path) -> None:
    """Write a report as JSON for a path ending in .json, else as CSV (metadata
    in a leading ``# metadata:`` line)."""
    if not report.rows:
        raise ValueError("report has no rows")
    path = Path(path)
    if _is_json(path):
        payload = {"metadata": report.metadata, "rows": [dict(r) for r in report.rows]}
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        with open(path, "w", newline="") as fh:
            if report.metadata:
                fh.write("# metadata: " + json.dumps(report.metadata) + "\n")
            writer = csv.writer(fh)
            writer.writerow(report.columns)
            for row in report.rows:
                writer.writerow(
                    ""
                    if row[c] is None
                    else (row[c] if isinstance(row[c], str) else _fmt(row[c]))
                    for c in report.columns
                )


def _parse_cell(text: str, label: bool):
    if text == "":
        return None
    if label:
        return text
    try:
        return float(text)
    except ValueError:
        return text


def load_report(path) -> ReportDocument:
    """Reload a report written by :func:`save_report`, JSON or CSV by the suffix.

    A CSV cell of the label column stays a string, so a label such as "1e3"
    or "nan" round-trips; an empty cell is None. Raises ParseError for a
    file that holds no valid report; for CSV it names the line of a
    duplicate column, of a row whose cell count differs from the header's,
    or of a row :class:`ReportDocument` refuses.
    """
    path = Path(path)
    if _is_json(path):
        try:
            payload = json.loads(path.read_text())
            return ReportDocument(
                columns=tuple(payload["rows"][0]) if payload["rows"] else (),
                rows=tuple(payload["rows"]),
                metadata=payload.get("metadata", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ParseError(f"{path}: {exc}") from exc
    metadata = {}
    numbered = []  # (line number, text) of the header and the data lines
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.startswith("# metadata: "):
            try:
                metadata = json.loads(line[len("# metadata: "):])
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: bad metadata line") from exc
        elif line.strip():
            numbered.append((lineno, line))
    reader = csv.reader(line for _, line in numbered)
    columns = tuple(next(reader, ()))
    if not columns:
        raise ParseError(f"{path}: empty report")
    if len(set(columns)) != len(columns):
        raise ParseError(f"{path}:{numbered[0][0]}: duplicate column in {list(columns)}")
    rows = []
    for cells in reader:
        where = f"{path}:{numbered[reader.line_num - 1][0]}"
        if len(cells) != len(columns):
            raise ParseError(f"{where}: {len(cells)} cells for {len(columns)} columns")
        row = {c: _parse_cell(text, c == "label") for c, text in zip(columns, cells)}
        try:
            _check_row(columns, row)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        rows.append(row)
    return ReportDocument(columns=columns, rows=tuple(rows), metadata=metadata)
