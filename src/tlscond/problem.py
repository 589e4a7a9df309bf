"""Problem and report containers plus file IO.

Storage convention: one m x (n+1) array holds [A b]; the last column is b.
Problem files are headerless CSV or MatrixMarket dense arrays. Report files
are CSV (header line first) or JSON with schema
``{"metadata": {...}, "rows": [{...}]}``. Numbers are written with 17
significant digits so a reload reproduces the binary doubles exactly.

Problem files go through compiled text kernels in both directions:

- Reads run ``np.loadtxt``, whose C parser converts a number as strictly as
  ``float``. Where it refuses the text (a bad number, a ragged row, a ``%``
  line among MatrixMarket entries, an empty file, ``1_0``), the strict
  line-by-line reader reads the file again and decides: it names the faulty
  line or entry, or accepts what ``float`` accepts. ``scipy.io.mmread`` is
  not used because it reads ``0.5e+-3`` as 0.5, ``1 x`` as 1 and ``0x1p3``
  as 0.
- CSV is written by ``np.savetxt`` with ``%.17g`` cells, MatrixMarket by
  ``scipy.io.mmwrite`` in 17-digit e-notation. ``mmwrite`` is given a handle
  that Python opened, never a path: given a path it cannot open, it returns
  without writing anything or raising.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError

_FMT = ".17g"

_MM_SUFFIXES = (".mtx", ".mm")


def _fmt(value: float) -> str:
    return format(float(value), _FMT)


@dataclass(frozen=True)
class TlsProblem:
    """An overdetermined pair (A, b) with A of shape (m, n), m > n >= 1."""

    a_matrix: np.ndarray
    b_vector: np.ndarray
    label: str = ""

    def __post_init__(self):
        a = np.array(self.a_matrix, dtype=float)
        b = np.array(self.b_vector, dtype=float)
        if a.ndim != 2 or b.ndim != 1:
            raise ShapeError("A must be a matrix and b a vector")
        m, n = a.shape
        if b.shape[0] != m:
            raise ShapeError(f"b has length {b.shape[0]}, expected {m}")
        if n < 1 or m <= n:
            raise ShapeError(f"need m > n >= 1, got m={m}, n={n}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
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
        if value is None or isinstance(value, str):
            continue
        if not np.isfinite(value):
            raise ValueError(f"non-finite value for {key!r}; use None instead")


def _problem_from_array(data: np.ndarray, label: str) -> TlsProblem:
    # TlsProblem checks the shape; this guard only keeps data[:, -1] in bounds
    if data.ndim != 2 or data.size == 0:
        raise ShapeError("stored array must be a nonempty 2-D [A b] block")
    return TlsProblem(data[:, :-1], data[:, -1], label=label)


def _problem_format(path: Path, format: str | None) -> str:
    """Resolve a format name or alias, or the suffix when omitted, to "mm" or "csv"."""
    fmt = format or ("mm" if path.suffix.lower() in _MM_SUFFIXES else "csv")
    if fmt in ("mm", "matrixmarket", "matrixmarket-dense"):
        return "mm"
    if fmt != "csv":
        raise ValueError(f"unknown problem format {fmt!r}")
    return fmt


def _loadtxt(source, **kwargs) -> np.ndarray | None:
    """``np.loadtxt`` of ``source``, or None where it refuses the text.

    ``comments`` stays None: with "%" loadtxt would cut ``6 % note`` to 6,
    which the line-by-line readers refuse.
    """
    with warnings.catch_warnings():
        # an empty input only warns "input contained no data"
        warnings.simplefilter("error", UserWarning)
        try:
            return np.loadtxt(source, comments=None, **kwargs)
        except (ValueError, UserWarning):
            return None


def _plain_lines(fh):
    """The lines of ``fh``, refusing one that str.splitlines would split again.

    Besides "\n", str.splitlines (the CSV line reader's row split) breaks at
    these ASCII characters and at three non-ASCII ones; loadtxt instead strips
    them from a cell as blanks, and so would accept ``1\f,2``.
    """
    for line in fh:
        if not line.isascii() or any(c in line for c in "\v\f\x1c\x1d\x1e"):
            raise ValueError("not a plain ASCII line")
        yield line


def _read_csv_lines(path: Path) -> np.ndarray:
    """The line-by-line CSV reader: it names the line of a bad cell."""
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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


def _read_csv_array(path: Path) -> np.ndarray:
    with path.open() as fh:
        data = _loadtxt(_plain_lines(fh), delimiter=",", ndmin=2)
    return _read_csv_lines(path) if data is None else data


def _read_mm_header(path: Path, fh) -> tuple[int, int, int]:
    """Check the banner and read the size line: (m, k, lines read)."""
    banner = fh.readline().rstrip("\n")
    if not banner.lower().startswith("%%matrixmarket"):
        raise ParseError(f"{path}: missing MatrixMarket banner")
    if not {"matrix", "array", "real", "general"} <= set(banner.lower().split()):
        raise ParseError(f"{path}: unsupported MatrixMarket flavor {banner!r}")
    for lines_read, line in enumerate(fh, start=2):
        if line.strip() and not line.lstrip().startswith("%"):
            break
    else:
        raise ParseError(f"{path}: missing size line")
    size = line.rstrip("\n")
    dims = size.split()
    if len(dims) != 2:
        raise ParseError(f"{path}: bad size line {size!r}")
    try:
        m, k = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise ParseError(f"{path}: bad size line {size!r}") from exc
    if m < 0 or k < 0:
        raise ParseError(f"{path}: negative size in {size!r}")
    return m, k, lines_read


def _mm_block(path: Path, values: np.ndarray, m: int, k: int) -> np.ndarray:
    if values.size != m * k:
        raise ParseError(f"{path}: expected {m * k} entries, found {values.size}")
    # MatrixMarket array data is stored column-major.
    return values.reshape((k, m)).T


def _read_mm_lines(path: Path) -> np.ndarray:
    """The line-by-line MatrixMarket reader: it names a bad entry."""
    with path.open() as fh:
        m, k, _ = _read_mm_header(path, fh)
        body = fh.read()
    try:
        values = np.array(body.split(), dtype=float)
    except ValueError:
        # comment lines among the entries, or a bad entry to name
        values = []
        for line in body.splitlines():
            if line.lstrip().startswith("%"):
                continue
            for token in line.split():
                try:
                    values.append(float(token))
                except ValueError as exc:
                    raise ParseError(f"{path}: bad entry {token!r}") from exc
        values = np.array(values, dtype=float)
    return _mm_block(path, values, m, k)


def _read_mm_array(path: Path) -> np.ndarray:
    with path.open() as fh:
        m, k, header_lines = _read_mm_header(path, fh)
    # loadtxt opens a file it is given by name through numpy's DataSource,
    # which decompresses .gz, .bz2, .xz and .lzma files; only the MatrixMarket
    # suffixes are named to it. A handle would be read line by line, 1.6x slower.
    if path.suffix.lower() in _MM_SUFFIXES:
        values = _loadtxt(str(path), skiprows=header_lines, ndmin=1)
        if values is not None:
            return _mm_block(path, values.ravel(), m, k)
    return _read_mm_lines(path)


def load_problem(path, format: str | None = None) -> TlsProblem:
    """Read an m x (n+1) [A b] array and split off the last column as b.

    ``format`` is "matrixmarket-dense" (alias "mm") or "csv"; when omitted it
    is inferred from the suffix (.mtx/.mm vs anything else).
    """
    path = Path(path)
    read = _read_mm_array if _problem_format(path, format) == "mm" else _read_csv_array
    return _problem_from_array(read(path), label=path.stem)


def save_problem(problem: TlsProblem, path, format: str | None = None) -> None:
    """Write the [A b] array of ``problem`` in CSV or MatrixMarket dense form."""
    path = Path(path)
    aug = problem.augmented()
    if _problem_format(path, format) == "mm":
        # imported here: scipy.io costs every importer of tlscond about 3 MiB
        from scipy.io import mmwrite

        # a handle, not the path: given a path that cannot be opened, mmwrite
        # returns without writing or raising (and scipy 1.10 appends ".mtx").
        # "general" keeps a symmetric square [A b] from being written as
        # "symmetric", which the reader refuses.
        with path.open("wb") as fh:
            mmwrite(fh, aug, precision=17, symmetry="general")
    else:
        # a handle, not the path: np.savetxt would gzip a path ending in .gz
        with path.open("w") as fh:
            np.savetxt(fh, aug, fmt=f"%{_FMT}", delimiter=",")


def _infer_report_format(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "csv"


def save_report(report: ReportDocument, path, format: str | None = None) -> None:
    """Write a report as CSV (metadata in a leading ``# metadata:`` line) or JSON."""
    if not report.rows:
        raise ValueError("report has no rows")
    path = Path(path)
    fmt = format or _infer_report_format(path)
    if fmt == "json":
        payload = {"metadata": report.metadata, "rows": [dict(r) for r in report.rows]}
        path.write_text(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
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
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def load_report(path, format: str | None = None) -> ReportDocument:
    """Reload a report written by :func:`save_report`.

    Raises ParseError for a file that holds no valid report; for CSV it names
    the line of a duplicate column, of a row whose cell count differs from
    the header's, or of a row :class:`ReportDocument` refuses.
    """
    path = Path(path)
    fmt = format or _infer_report_format(path)
    if fmt == "json":
        try:
            payload = json.loads(path.read_text())
            return ReportDocument(
                columns=tuple(payload["rows"][0]) if payload["rows"] else (),
                rows=tuple(payload["rows"]),
                metadata=payload.get("metadata", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ParseError(f"{path}: {exc}") from exc
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
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
        row = dict(zip(columns, map(_parse_cell, cells)))
        try:
            _check_row(columns, row)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        rows.append(row)
    return ReportDocument(columns=columns, rows=tuple(rows), metadata=metadata)
