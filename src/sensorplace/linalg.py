"""Dense linear-algebra kernels shared by the placement and reconstruction code.

Everything operates on ``numpy.float64`` arrays; ``log_row_volume`` also
takes a stack of matrices.  One zero rule decides singularity everywhere: a
residual norm at or below ``RESIDUAL_RTOL * r * eps`` times the largest row
norm counts as zero.  It is scale-relative, so orthonormal mode matrices and
raw Gaussian candidate matrices behave identically under scaling; the greedy
selectors apply it to residual pivots, and ``_zero_pivots`` to the diagonal of
R in the QR factorization of ``C^T``, for ``log_row_volume``,
``log_abs_det`` and the factor each ``evaluate.MeasurementModel`` holds.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RESIDUAL_RTOL",
    "SingularMatrixError",
    "NonConvergenceError",
    "as_matrix",
    "thin_svd",
    "log_abs_det",
    "log_row_volume",
]

# A residual row norm at or below RESIDUAL_RTOL * r * eps times the largest
# row norm counts as zero.  On exactly rank-k candidates the greedy's twice
# projected explicit residuals fall below r * eps * max row norm, so the
# factor 10 separates those from genuine directions, while full-rank
# candidates with column scales down to 1e-12 keep every direction.
RESIDUAL_RTOL = 10.0


class SingularMatrixError(ArithmeticError):
    """A factorization hit a negligible pivot.

    ``pivot_index`` is the 0-based index of the first pivot that counts as zero.
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
    """``ln |det(m)|`` of a square matrix: ``log_row_volume`` of its rows.

    Raises
    ------
    SingularMatrixError
        If some ``|R_kk|`` of the QR factorization ``m^T = Q R`` is zero under
        the row-norm rule; the first such k is reported as ``pivot_index``.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    diag, zero = _r_diagonal(m)
    if zero.any():
        index = int(np.argmax(zero))
        raise SingularMatrixError(
            f"matrix is singular within the row-norm threshold at pivot {index}",
            pivot_index=index,
        )
    return float(np.log(diag).sum())


def _r_diagonal(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|R_kk|`` of ``C^T = Q R`` per matrix of a stack, and which count as zero."""
    m, r = c.shape[-2:]
    if m > r:
        raise ValueError(f"rows span no volume in {r} dimensions: got shape {c.shape}")
    diag = np.abs(np.diagonal(np.linalg.qr(np.swapaxes(c, -1, -2), mode="r"), axis1=-2, axis2=-1))
    return diag, _zero_pivots(c, diag)


def _zero_pivots(c: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The zero rule: which ``|R_kk|`` of ``C^T = Q R`` count as zero, per matrix."""
    max_norm = np.sqrt(np.einsum("...ij,...ij->...i", c, c).max(axis=-1))
    cutoff = RESIDUAL_RTOL * c.shape[-1] * np.finfo(np.float64).eps * max_norm
    return diag <= cutoff[..., None]


def _log_volume(diag: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """``sum ln |R_kk|`` per matrix, ``-inf`` where some pivot counts as zero."""
    logs = np.log(np.where(zero, 1.0, diag)).sum(axis=-1)
    return np.where(zero.any(axis=-1), -np.inf, logs)


def log_row_volume(c) -> np.ndarray:
    """``ln`` of the volume the rows of ``c`` span, per matrix of a stack.

    ``c`` has shape (..., m, r) with m <= r; the result has shape (...).
    The volume is ``|det R|`` of the QR factorization ``C^T = Q R``: ``|det C|``
    for square C and ``sqrt(det(C C^T))`` for wide C, without forming
    ``C C^T``, which would square the condition number.  A matrix with some
    ``|R_kk|`` at or below ``RESIDUAL_RTOL * r * eps`` times its largest row
    norm (the greedy selectors' zero rule) gets ``-inf``.
    """
    return _log_volume(*_r_diagonal(np.asarray(c, dtype=np.float64)))
