"""Dense linear-algebra kernels shared by the placement and reconstruction code.

Everything operates on ``numpy.float64`` arrays; ``log_row_volume`` also
takes a stack of matrices.  One scale rule holds where a matrix enters:
``np.ldexp`` by minus its ``_exponent`` brings its largest ``|entry|`` into
[0.5, 1) exactly, so no squared norm formed after it leaves the double range.
The selectors read each candidate so, and ``_zero_pivots`` each C, so picks
and singularity do not depend on scale.  One zero rule decides singularity: a
residual norm at or below ``_zero_cutoff``, ``RESIDUAL_RTOL * r * eps`` times
the largest row norm, counts as zero.  The greedy selectors apply it to
residual pivots, and a tenth of it to the smallest singular value of each
winner's residual rows; ``_zero_pivots`` to the diagonal of R of ``C^T = Q R``
for ``log_row_volume``, ``log_abs_det`` and ``evaluate.MeasurementModel``,
which with ``evaluate.score_logdet`` report a singular matrix as ``-inf``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RESIDUAL_RTOL",
    "NonConvergenceError",
    "as_count",
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


class NonConvergenceError(RuntimeError):
    """An iterative kernel did not reach its stopping criterion."""


def as_count(value, name: str, least: int = 1) -> int:
    """``value`` as an int >= ``least``.  Integral floats and numpy integers pass; bools,
    strings, ``None``, fractional values, NaN and infinities raise ``ValueError``."""
    try:
        count = int(value)
        integral = count == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or count < least:
        raise ValueError(f"{name} must be >= {least} and an integer; got {value!r}")
    return count


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and one column")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, but ``None``, which numpy seeds from OS entropy, raises."""
    if seed is None:
        raise ValueError("a seed is required: None would draw one from OS entropy")
    return np.random.default_rng(seed)


def thin_svd(m, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``k`` truncated SVD of ``m``.

    Returns ``(left, sigma, right)`` where ``left`` is rows x k with
    orthonormal columns, ``sigma`` the k largest singular values in
    non-increasing order, and ``right`` is cols x k, so that
    ``left @ diag(sigma) @ right.T`` is the best rank-k approximation of ``m``.
    """
    m, k = as_matrix(m), as_count(k, "rank")
    if k > min(m.shape):
        raise ValueError(f"rank {k} out of range for shape {m.shape}")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # The LAPACK backend reports failure but not its internal sweep count.
        raise NonConvergenceError(f"SVD iteration failed to converge: {exc}") from exc
    return u[:, :k].copy(), s[:k].copy(), vt[:k].T.copy()


def log_abs_det(m) -> float:
    """``ln |det(m)|`` of a square matrix: ``log_row_volume`` of its rows, ``-inf`` if singular."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return float(log_row_volume(m))


def _zero_cutoff(r: int, max_norm):
    """The zero rule's cutoff on a residual norm in r dimensions, given the largest row norm."""
    return RESIDUAL_RTOL * r * np.finfo(np.float64).eps * max_norm


def _exponent(a: np.ndarray, axis=None):
    """The binary exponent e with max|a| in [2^(e-1), 2^e) over ``axis``; 0 for all zeros."""
    return np.frexp(np.abs(a).max(axis=axis))[1]


def _zero_pivots(c: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The zero rule: which ``|R_kk|`` of ``C^T = Q R`` are zero, per C scaled by ``_exponent``."""
    e = _exponent(c, axis=(-2, -1))[..., None]
    a = np.ldexp(c, -e[..., None])
    max_norm = np.sqrt(np.einsum("...ij,...ij->...i", a, a).max(axis=-1, keepdims=True))
    return np.ldexp(diag, -e) <= _zero_cutoff(c.shape[-1], max_norm)


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
    c = np.asarray(c, dtype=np.float64)
    m, r = c.shape[-2:]
    if m > r:
        raise ValueError(f"rows span no volume in {r} dimensions: got shape {c.shape}")
    diag = np.abs(np.diagonal(np.linalg.qr(np.swapaxes(c, -1, -2), mode="r"), axis1=-2, axis2=-1))
    return _log_volume(diag, _zero_pivots(c, diag))
