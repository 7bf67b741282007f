"""CSV file formats for matrices and selections, and the one input line reader.

Every input file (matrix, selection or benchmark config) is UTF-8 text read by
``_text_lines`` with universal newlines, skipping blank lines; a byte that is not
UTF-8 is a ``ParseError`` naming its line.  Matrix files are comma-separated
rows, one matrix row per line, written with 17 significant digits so every
finite double survives a write/read round trip bit-exactly.  Selection files
carry a fixed header ``rank,location,row_indices`` with one line per sensor in
selection order; ``row_indices`` is a semicolon-joined list of stacked row
indices.  Fields are split on commas; CSV quoting is not part of either format.

``read_matrix`` first parses the whole file with one ``np.loadtxt`` call and
keeps the result only when it is non-empty and entirely finite.  Anything else
(a loadtxt error, no rows, NaN or Inf) re-reads the file with the line-by-line
parser ``_read_matrix_lines``, which alone decides what is rejected and which
line and column a ``ParseError`` names.  Both paths convert each field
to the correctly rounded double, so a file yields bit-identical values
whichever path reads it.  ``write_matrix``
formats the whole matrix with one ``%``-substitution whose output is
byte-identical to formatting each element with ``f"{x:.17g}"``.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import linalg
from .selection import SensorSelection

__all__ = [
    "ParseError",
    "read_matrix",
    "write_matrix",
    "read_selection",
    "write_selection",
]


class ParseError(ValueError):
    """Malformed matrix, selection or config file, at 1-based ``line``/``column`` if known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


def _text_lines(path):
    """Yield ``(1-based line number, stripped text)`` for each non-blank line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:  # surrogateescape turned each byte that is not UTF-8 into a lone surrogate
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("line is not UTF-8 text", line=lineno) from None
            if text := raw.strip():
                yield lineno, text


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
    for lineno, line in _text_lines(path):
        if header and lineno == 1:
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(f"expected {width} fields, found {len(fields)}", line=lineno)
        parsed = []
        for colno, token in enumerate(fields, start=1):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    f"field {token!r} is not a number", line=lineno, column=colno
                ) from None
            if not np.isfinite(value):
                raise ParseError(f"field {token!r} is not finite", line=lineno, column=colno)
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ParseError("file contains no data rows", line=1)
    return np.array(rows, dtype=np.float64)


def write_selection(path, selection: SensorSelection) -> None:
    """Write a selection file (header ``rank,location,row_indices``; CRLF line ends)."""
    s, rows = selection.components, selection.selected_rows
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("rank,location,row_indices\r\n")
        for k, loc in enumerate(selection.locations):
            handle.write(f"{k + 1},{loc}," + ";".join(map(str, rows[k * s : (k + 1) * s])) + "\r\n")


def read_selection(path) -> list[tuple[int, list[int]]]:
    """Read a selection file as ``[(location, row_indices), ...]`` in rank order."""
    entries: dict[int, list[int]] = {}
    lines = _text_lines(path)
    head_lineno, head = next(lines, (1, None))
    if head is None:
        raise ParseError("file is empty", line=1)
    if [h.strip() for h in head.split(",")] != ["rank", "location", "row_indices"]:
        raise ParseError("expected header 'rank,location,row_indices'", line=head_lineno)
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError("expected 3 fields", line=lineno)
        try:
            order = int(fields[0])
            location = int(fields[1])
            rows = [int(tok) for tok in fields[2].split(";")]
        except ValueError:
            raise ParseError(
                "rank, location and row_indices must be integers", line=lineno
            ) from None
        if order != len(entries) + 1:
            raise ParseError(f"ranks must be consecutive from 1, found {order}", line=lineno)
        if location in entries:
            raise ParseError("locations must be distinct", line=lineno)
        if entries and len(rows) != width:
            raise ParseError("row_indices lists differ in length", line=lineno)
        entries[location] = rows
        width = len(rows)
    if not entries:
        raise ParseError("file contains no selections", line=head_lineno + 1)
    return list(entries.items())
