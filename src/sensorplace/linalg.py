"""Dense linear-algebra kernels shared by the placement and reconstruction code.

Everything operates on plain 2-D ``numpy.float64`` arrays.  Degeneracy cutoffs
are scale-relative (``DEGENERATE_RTOL`` times the largest squared row norm of
the matrix in play), so orthonormal mode matrices and raw Gaussian candidate
matrices behave identically under scaling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEGENERATE_RTOL",
    "DegenerateDirectionError",
    "SingularMatrixError",
    "NonConvergenceError",
    "LeastSquaresSolution",
    "as_matrix",
    "row_norm_sq",
    "degenerate_threshold",
    "deflate",
    "thin_svd",
    "log_abs_det",
    "solve_least_squares",
]

# Squared row norms at or below DEGENERATE_RTOL * max squared row norm are
# treated as zero by deflation and pivoting.
DEGENERATE_RTOL = 1e-13


class DegenerateDirectionError(ValueError):
    """Requested deflation direction has (near-)zero norm."""


class SingularMatrixError(ArithmeticError):
    """A pivoted factorization hit a negligible pivot.

    ``pivot_index`` is the 0-based elimination step whose pivot failed.
    """

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


class NonConvergenceError(RuntimeError):
    """An iterative kernel did not reach its stopping criterion."""


@dataclass(frozen=True)
class LeastSquaresSolution:
    """Minimum-norm least-squares solution plus a rank-deficiency flag."""

    solution: np.ndarray
    rank: int
    rank_deficient: bool


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and one column")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def row_norm_sq(m, i: int) -> float:
    """Squared Euclidean norm of row ``i`` of ``m``."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    if not 0 <= i < m.shape[0]:
        raise IndexError(f"row index {i} out of range for {m.shape[0]} rows")
    row = m[i]
    return float(np.dot(row, row))


def degenerate_threshold(m) -> float:
    """Scale-relative cutoff below which a squared row norm counts as zero."""
    m = np.asarray(m, dtype=np.float64)
    norms_sq = np.einsum("ij,ij->i", m, m)
    return DEGENERATE_RTOL * float(norms_sq.max())


def deflate(m, v, threshold: float | None = None) -> np.ndarray:
    """Remove the direction ``v`` from every row of ``m``.

    Returns ``m - m v^T v / ||v||^2``, one Gram-Schmidt projection step: every
    row of the result is orthogonal to ``v``.

    Parameters
    ----------
    m : array_like, shape (rows, cols)
    v : array_like, shape (cols,)
        Direction to remove.  Its squared norm must exceed ``threshold``.
    threshold : float, optional
        Degeneracy cutoff for ``||v||^2``.  Defaults to
        ``degenerate_threshold(m)``.

    Raises
    ------
    DegenerateDirectionError
        If ``||v||^2`` is at or below the cutoff.
    """
    m = as_matrix(m)
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size != m.shape[1]:
        raise ValueError(f"direction has length {v.size}, expected {m.shape[1]}")
    if threshold is None:
        threshold = degenerate_threshold(m)
    vv = float(np.dot(v, v))
    if vv <= threshold:
        raise DegenerateDirectionError(
            f"direction norm^2 {vv:.3e} is at or below the degeneracy cutoff {threshold:.3e}"
        )
    return m - np.outer(m @ v, v) / vv


def thin_svd(m, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``k`` truncated SVD of ``m``.

    Returns ``(left, sigma, right)`` where ``left`` is rows x k with
    orthonormal columns, ``sigma`` the k largest singular values in
    non-increasing order, and ``right`` is cols x k, so that
    ``left @ diag(sigma) @ right.T`` is the best rank-k approximation of ``m``.
    """
    m = as_matrix(m)
    if not 1 <= k <= min(m.shape):
        raise ValueError(f"rank {k} out of range for shape {m.shape}")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # The LAPACK backend reports failure but not its internal sweep count.
        raise NonConvergenceError(f"SVD iteration failed to converge: {exc}") from exc
    return u[:, :k].copy(), s[:k].copy(), vt[:k].T.copy()


def log_abs_det(m) -> float:
    """``ln |det(m)|`` via a pivoted LU factorization (sum of log abs pivots).

    Raises
    ------
    SingularMatrixError
        If some pivot is negligible relative to the matrix scale; the failing
        elimination step is reported on the exception.
    """
    # SciPy is imported here, its only use, so loading the package stays cheap.
    import scipy.linalg

    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(m)
    pivots = np.abs(np.diag(lu))
    cutoff = DEGENERATE_RTOL * float(np.max(np.abs(m)))
    bad = np.nonzero(pivots <= cutoff)[0]
    if bad.size:
        index = int(bad[0])
        raise SingularMatrixError(
            f"matrix is singular within pivot threshold at elimination step {index}",
            pivot_index=index,
        )
    return float(np.sum(np.log(pivots)))


def solve_least_squares(a, b) -> LeastSquaresSolution:
    """Minimum-norm ``x`` minimizing ``||a x - b||_2``.

    Equals ``a^-1 b`` when ``a`` is square and nonsingular.  A rank-deficient
    ``a`` still yields the minimum-norm solution, flagged on the result.
    """
    a = as_matrix(a, name="coefficient matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("right-hand side must be a vector")
    if b.size != a.shape[0]:
        raise ValueError(f"right-hand side has length {b.size}, expected {a.shape[0]}")
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return LeastSquaresSolution(
        solution=x,
        rank=int(rank),
        rank_deficient=int(rank) < min(a.shape),
    )
