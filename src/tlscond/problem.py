"""Problem and report containers plus file IO.

Storage convention: one m x (n+1) array holds [A b]; the last column is b.
Problem files are headerless CSV or MatrixMarket dense arrays. Report files
are CSV (header line first) or JSON with schema
``{"metadata": {...}, "rows": [{...}]}``. Numbers are written with 17
significant digits so a reload reproduces the binary doubles exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError

_FMT = ".17g"

_MM_HEADER = "%%MatrixMarket matrix array real general"


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
        for row in self.rows:
            if set(row) != set(self.columns):
                raise ValueError(f"row keys {sorted(row)} != columns {sorted(self.columns)}")
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
    fmt = format or ("mm" if path.suffix.lower() in (".mtx", ".mm") else "csv")
    if fmt in ("mm", "matrixmarket", "matrixmarket-dense"):
        return "mm"
    if fmt != "csv":
        raise ValueError(f"unknown problem format {fmt!r}")
    return fmt


def _read_csv_array(path: Path) -> np.ndarray:
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


def _read_mm_array(path: Path) -> np.ndarray:
    with path.open() as fh:
        banner = fh.readline().rstrip("\n")
        if not banner.lower().startswith("%%matrixmarket"):
            raise ParseError(f"{path}: missing MatrixMarket banner")
        if not {"matrix", "array", "real", "general"} <= set(banner.lower().split()):
            raise ParseError(f"{path}: unsupported MatrixMarket flavor {banner!r}")
        size = next((ln for ln in fh if ln.strip() and not ln.lstrip().startswith("%")), None)
        body = fh.read()
    if size is None:
        raise ParseError(f"{path}: missing size line")
    size = size.rstrip("\n")
    dims = size.split()
    if len(dims) != 2:
        raise ParseError(f"{path}: bad size line {size!r}")
    try:
        m, k = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise ParseError(f"{path}: bad size line {size!r}") from exc
    if m < 0 or k < 0:
        raise ParseError(f"{path}: negative size in {size!r}")
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
    if values.size != m * k:
        raise ParseError(f"{path}: expected {m * k} entries, found {values.size}")
    # MatrixMarket array data is stored column-major.
    return values.reshape((k, m)).T


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
    m, k = aug.shape
    cell = f"%{_FMT}"  # one %-format for the whole file; prints as format(v, _FMT)
    if _problem_format(path, format) == "mm":
        values = aug.T.ravel().tolist()  # column-major per the format
        text = f"{_MM_HEADER}\n{m} {k}\n" + "\n".join([cell] * (m * k)) % tuple(values)
    else:
        text = "\n".join([",".join([cell] * k)] * m) % tuple(aug.ravel().tolist())
    path.write_text(text + "\n")


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
    """Reload a report written by :func:`save_report`."""
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
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    metadata = {}
    lines = path.read_text().splitlines()
    data_lines = []
    for line in lines:
        if line.startswith("# metadata: "):
            try:
                metadata = json.loads(line[len("# metadata: "):])
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: bad metadata line") from exc
        elif line.strip():
            data_lines.append(line)
    reader = list(csv.reader(data_lines))
    if not reader:
        raise ParseError(f"{path}: empty report")
    columns = tuple(reader[0])
    rows = tuple({c: _parse_cell(cell) for c, cell in zip(columns, row)} for row in reader[1:])
    return ReportDocument(columns=columns, rows=rows, metadata=metadata)
