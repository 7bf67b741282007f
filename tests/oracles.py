"""Independent brute-force oracles the tests check library results against.

Everything here deliberately avoids the library's own code paths: determinants
by cofactor expansion, linear solves by hand-rolled Gaussian elimination, and
greedy step optimality by exhaustive enumeration over remaining candidates.
"""

from __future__ import annotations

import numpy as np


def det_cofactor(a: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion (fine up to ~7x7)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    assert a.shape == (n, n)
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    sub = np.delete(a, 0, axis=0)
    for j in range(n):
        minor = np.delete(sub, j, axis=1)
        total += ((-1.0) ** j) * float(a[0, j]) * det_cofactor(minor)
    return total


def solve_gauss(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Square solve by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=np.float64, copy=True)
    b = np.array(b, dtype=np.float64, copy=True)
    n = a.shape[0]
    assert a.shape == (n, n) and b.shape == (n,)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def location_rows(location: int, dof: int, components: int) -> list[int]:
    return [location + dof * j for j in range(components)]


def gram_det_gain(
    candidate: np.ndarray,
    selected_locations: list[int],
    new_location: int,
    components: int,
) -> float:
    """det(M M^T) for the rows of the already-selected locations plus one more.

    Rows are taken from the original candidate matrix, so this is the exact
    hypervolume-squared objective a greedy step is supposed to maximize.
    """
    dof = candidate.shape[0] // components
    rows: list[int] = []
    for loc in selected_locations:
        rows += location_rows(loc, dof, components)
    rows += location_rows(new_location, dof, components)
    m = candidate[rows]
    return float(np.linalg.det(m @ m.T))


def exhaustive_step_argmax(
    candidate: np.ndarray,
    selected_locations: list[int],
    components: int,
) -> tuple[int, float]:
    """Best next location by exhaustive search, ties to the lowest index."""
    dof = candidate.shape[0] // components
    best_loc, best_val = -1, -np.inf
    for loc in range(dof):
        if loc in selected_locations:
            continue
        val = gram_det_gain(candidate, selected_locations, loc, components)
        if val > best_val:
            best_loc, best_val = loc, val
    return best_loc, best_val


def read_matrix_lines(path, header: bool = False):
    """Reference CSV matrix reader: the plain line-by-line parser.

    Returns ``("ok", array)`` or ``("error", line, column, message)`` where
    ``message`` is the text a ``MatrixParseError`` carries before its
    ``(line ...)`` suffix.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = list(handle)
    start = 1 if header else 0
    rows = []
    for lineno in range(start + 1, len(lines) + 1):
        text = lines[lineno - 1].strip()
        if text == "":
            continue
        tokens = text.split(",")
        if rows and len(tokens) != len(rows[0]):
            return ("error", lineno, None, f"expected {len(rows[0])} fields, found {len(tokens)}")
        values = []
        for colno in range(1, len(tokens) + 1):
            token = tokens[colno - 1]
            try:
                value = float(token)
            except ValueError:
                return ("error", lineno, colno, f"field {token!r} is not a number")
            if value != value or value in (float("inf"), float("-inf")):
                return ("error", lineno, colno, f"field {token!r} is not finite")
            values.append(value)
        rows.append(values)
    if not rows:
        return ("error", 1, None, "file contains no data rows")
    return ("ok", np.array(rows, dtype=np.float64))


def write_matrix_lines(path, matrix) -> None:
    """Reference CSV matrix writer: one f-string per element, one row per line."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as handle:
        for row in m:
            handle.write(",".join(f"{x:.17g}" for x in row) + "\n")
