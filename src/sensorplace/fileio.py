"""CSV file formats for matrices and selections.

Matrix files are plain comma-separated rows, one matrix row per line, written
with 17 significant digits so every finite double survives a write/read round
trip bit-exactly.  Selection files carry a fixed header
``rank,location,row_indices`` with one line per sensor in selection order;
``row_indices`` is a semicolon-joined list of stacked row indices.

``read_matrix`` first parses the whole file with one ``np.loadtxt`` call and
keeps the result only when it is non-empty and entirely finite.  Anything else
(a loadtxt error, no rows, NaN or Inf) re-reads the file with the line-by-line
parser ``_read_matrix_lines``, which alone decides what is rejected and which
line and column a ``MatrixParseError`` names.  Both paths convert each field
to the correctly rounded double, so a file yields bit-identical values
whichever path reads it.  ``write_matrix``
formats the whole matrix with one ``%``-substitution whose output is
byte-identical to formatting each element with ``f"{x:.17g}"``.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from . import linalg
from .selection import SensorSelection

__all__ = [
    "MatrixParseError",
    "SelectionParseError",
    "read_matrix",
    "write_matrix",
    "read_selection",
    "write_selection",
]


class MatrixParseError(ValueError):
    """Matrix file is malformed; carries 1-based ``line`` and ``column``."""

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({where})")
        self.line = line
        self.column = column


class SelectionParseError(ValueError):
    """Selection file is malformed; carries the 1-based ``line``."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def write_matrix(path, matrix) -> None:
    """Write a matrix as bare CSV with full round-trip precision.

    Raises ``ValueError`` on NaN or Inf entries, which ``read_matrix`` refuses.
    """
    m = linalg.as_matrix(np.atleast_2d(matrix))
    rows, cols = m.shape
    template = ",".join(["%.17g"] * cols) + "\n"
    text = (template * rows) % tuple(m.ravel().tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_matrix(path, header: bool = False) -> np.ndarray:
    """Read a CSV matrix file.

    Every line must have the same number of fields and every field must parse
    as a finite real; blank lines are skipped and ``header=True`` skips the
    first line.
    """
    try:
        with warnings.catch_warnings():
            # Empty and header-only files are rejected by the fallback below.
            warnings.filterwarnings(
                "ignore", message="loadtxt: input contained no data", category=UserWarning
            )
            m = np.loadtxt(
                path,
                delimiter=",",
                dtype=np.float64,
                ndmin=2,
                skiprows=int(header),
                comments=None,
                encoding="utf-8",
            )
    except ValueError:
        pass
    else:
        if m.size and np.isfinite(m).all():
            return m
    return _read_matrix_lines(path, header)


def _read_matrix_lines(path, header: bool) -> np.ndarray:
    """Line-by-line parser behind ``read_matrix``; names the first bad field."""
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if header and lineno == 1:
                continue
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise MatrixParseError(
                    f"expected {width} fields, found {len(fields)}", line=lineno
                )
            parsed = []
            for colno, token in enumerate(fields, start=1):
                try:
                    value = float(token)
                except ValueError:
                    raise MatrixParseError(
                        f"field {token!r} is not a number", line=lineno, column=colno
                    ) from None
                if not np.isfinite(value):
                    raise MatrixParseError(
                        f"field {token!r} is not finite", line=lineno, column=colno
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise MatrixParseError("file contains no data rows", line=1)
    return np.array(rows, dtype=np.float64)


def write_selection(path, selection: SensorSelection) -> None:
    """Write a selection file (header ``rank,location,row_indices``)."""
    dof = selection.dof_per_component
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rank", "location", "row_indices"])
        for order, loc in enumerate(selection.locations, start=1):
            rows = ";".join(str(loc + dof * j) for j in range(selection.components))
            writer.writerow([order, loc, rows])


def read_selection(path) -> list[tuple[int, list[int]]]:
    """Read a selection file as ``[(location, row_indices), ...]`` in rank order."""
    entries: list[tuple[int, list[int]]] = []
    with open(path, "r", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            head = next(reader)
        except StopIteration:
            raise SelectionParseError("file is empty", line=1) from None
        if [h.strip() for h in head] != ["rank", "location", "row_indices"]:
            raise SelectionParseError(
                "expected header 'rank,location,row_indices'", line=1
            )
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != 3:
                raise SelectionParseError("expected 3 fields", line=lineno)
            try:
                order = int(fields[0])
                location = int(fields[1])
                rows = [int(tok) for tok in fields[2].split(";")]
            except ValueError:
                raise SelectionParseError(
                    "rank, location and row_indices must be integers", line=lineno
                ) from None
            if order != len(entries) + 1:
                raise SelectionParseError(
                    f"ranks must be consecutive from 1, found {order}", line=lineno
                )
            entries.append((location, rows))
    if not entries:
        raise SelectionParseError("file contains no selections", line=2)
    locations = [loc for loc, _ in entries]
    if len(set(locations)) != len(locations):
        raise SelectionParseError("locations must be distinct", line=2)
    widths = {len(rows) for _, rows in entries}
    if len(widths) != 1:
        raise SelectionParseError("row_indices lists differ in length", line=2)
    return entries
