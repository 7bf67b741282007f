"""Dense linear-algebra kernels shared by the placement and reconstruction code.

Everything operates on plain 2-D ``numpy.float64`` arrays.  The singularity
cutoff of ``log_abs_det`` is scale-relative (``DEGENERATE_RTOL`` times the
largest absolute entry), so orthonormal mode matrices and raw Gaussian
candidate matrices behave identically under scaling.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "DEGENERATE_RTOL",
    "SingularMatrixError",
    "NonConvergenceError",
    "as_matrix",
    "thin_svd",
    "log_abs_det",
]

# LU pivots at or below DEGENERATE_RTOL * max absolute entry are treated as zero.
DEGENERATE_RTOL = 1e-13


class SingularMatrixError(ArithmeticError):
    """A pivoted factorization hit a negligible pivot.

    ``pivot_index`` is the 0-based elimination step whose pivot failed.
    """

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


class NonConvergenceError(RuntimeError):
    """An iterative kernel did not reach its stopping criterion."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and one column")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


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

