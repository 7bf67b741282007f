"""Measurement models, log-det scoring and least-squares reconstruction.

The reduced measurement matrix C gathers the selected rows of the candidate
(mode) matrix, mapping mode amplitudes to sparse observations.  Each
``MeasurementModel`` factors ``C^T = Q R`` once; the log-det score, the
amplitude solve, the rank test and ``cond(C)`` all read that one factor,
under the one zero rule of ``linalg``.

Observation noise is one standard-normal field over the full grid per seed
(``_noise_field``), gathered at the selected rows, so every selection and
the full-observation reference of the reconstruction study see the same
noise at the same location.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .pod import PODBasis, SnapshotMatrix, _check_snapshots
from .selection import SensorSelection

__all__ = [
    "MeasurementModel",
    "ReconstructionResult",
    "build_model",
    "score_logdet",
    "observe",
    "reconstruct",
    "reconstruction_error",
]


@dataclass(frozen=True)
class MeasurementModel:
    """Reduced measurement matrix C (s*p x r) with its originating selection.

    ``C^T = Q R`` is factored once, on construction.  ``_zero`` marks the
    ``|R_kk|`` that the package's zero rule calls zero.
    """

    c: np.ndarray
    selection: SensorSelection
    _q: np.ndarray = field(init=False, repr=False, compare=False)
    _r: np.ndarray = field(init=False, repr=False, compare=False)
    _zero: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = linalg.as_matrix(self.c, name="measurement matrix")
        rows = len(self.selection.selected_rows)
        if c.shape[0] != rows:
            raise ValueError(f"measurement matrix shape {c.shape} does not match {rows} rows")
        if rows > c.shape[1]:
            raise ValueError(f"underdetermined recovery: {rows} rows exceed rank {c.shape[1]}")
        q, r = np.linalg.qr(c.T)
        zero = linalg._zero_pivots(c, np.abs(np.diagonal(r)))
        for name, value in zip(("c", "_q", "_r", "_zero"), (c, q, r, zero)):
            object.__setattr__(self, name, value)

    @property
    def cond(self) -> float:
        """cond(C), as ``np.linalg.cond`` of R (at most r x r); ``inf`` if C is singular."""
        return float(np.linalg.cond(self._r))


def build_model(candidate, selection: SensorSelection) -> MeasurementModel:
    """Gather the selected rows of the candidate into a measurement matrix.

    ``candidate`` is a PODBasis, whose modes are gathered, or a raw stacked n x r
    array; either must have ``selection.components * selection.dof_per_component`` rows.
    """
    if isinstance(candidate, PODBasis):
        modes = candidate.modes
    else:
        modes = linalg.as_matrix(candidate, name="candidate matrix")
    implied = selection.components * selection.dof_per_component
    if len(modes) != implied:
        raise ValueError(f"candidate has {len(modes)} rows, selection implies {implied}")
    return MeasurementModel(c=modes[list(selection.selected_rows)], selection=selection)


def score_logdet(model: MeasurementModel) -> float:
    """Log absolute determinant score of a measurement model.

    Returns ``ln |det C|`` for square C and ``0.5 ln det(C C^T)`` for wide
    budgets (both equal the log hypervolume of the selected rows), from the
    diagonal of R in the model's ``C^T = Q R``, as ``linalg.log_row_volume``
    computes it.  A selection whose rows the greedy selectors' zero rule calls
    dependent yields ``-inf`` instead of raising, so benchmark loops over
    random selections can count and skip those draws.
    """
    return float(linalg._log_volume(np.abs(np.diagonal(model._r)), model._zero))


def observe(
    basis: PODBasis,
    selection: SensorSelection,
    field_snapshots: SnapshotMatrix,
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> np.ndarray:
    """Gather sparse observations from full-state snapshots.

    Column ``t`` of the returned (s*p) x N matrix holds the selected rows of
    mean-subtracted snapshot ``t`` (the mean convention comes from ``basis``).
    With ``noise_sigma > 0`` i.i.d. Gaussian sensor noise is added; the noise
    field is drawn over the full grid and then gathered, so two selections
    observing the same location under the same seed see the same noise.  A
    NaN, infinite or negative ``noise_sigma`` raises ``ValueError``.
    """
    _check_snapshots(basis, field_snapshots)
    if basis.n_dof != selection.components * selection.dof_per_component:
        raise ValueError("selection does not match basis dimensions")
    _check_noise_sigma(noise_sigma)
    rows = list(selection.selected_rows)
    observations = field_snapshots.data[rows] - basis.mean[rows, None]
    if noise_sigma > 0:
        observations += noise_sigma * _noise_field(field_snapshots, seed)[rows]
    return observations


def _check_noise_sigma(noise_sigma: float) -> None:
    """Reject a noise level that is NaN, infinite or negative."""
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")


def _noise_field(field_snapshots: SnapshotMatrix, seed: int | None) -> np.ndarray:
    """The standard-normal noise of ``seed`` over the full snapshot grid."""
    return linalg._rng(seed).standard_normal(field_snapshots.data.shape)


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered amplitudes (r x N) and whether the zero rule calls C rank-deficient."""

    amplitudes: np.ndarray
    rank_deficient: bool


def reconstruct(model: MeasurementModel, observations) -> ReconstructionResult:
    """Column-wise least-squares recovery of mode amplitudes.

    Solves ``C x = y`` per observation column from the model's ``C^T = Q R``:
    ``x = Q R^-T y`` is the exact solution for square C and the minimum-norm
    one for wide C.  ``rank_deficient`` is the model's zero rule, the one under
    which ``score_logdet`` gives ``-inf``; then the minimum-norm least-squares
    solution of ``np.linalg.lstsq`` is returned.
    """
    y = linalg.as_matrix(observations, name="observations")
    c = model.c
    if y.shape[0] != c.shape[0]:
        raise ValueError(f"observations have {y.shape[0]} rows, model expects {c.shape[0]}")
    rank_deficient = bool(model._zero.any())
    if rank_deficient:
        amplitudes = np.linalg.lstsq(c, y, rcond=None)[0]
    else:
        amplitudes = model._q @ np.linalg.solve(model._r.T, y)
    return ReconstructionResult(amplitudes, rank_deficient)


def reconstruction_error(true_amplitudes, reconstructed) -> float:
    """Relative Frobenius error between true and reconstructed amplitudes.

    ``sqrt(sum (x - x_rec)^2 / sum x^2)`` over all modes and snapshots; 0 for
    a perfect reconstruction, 1 for an all-zero one.
    """
    x = np.asarray(true_amplitudes, dtype=np.float64)
    x_rec = np.asarray(reconstructed, dtype=np.float64)
    if x.shape != x_rec.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_rec.shape}")
    denom = float(np.sum(x * x))
    if denom == 0.0:
        raise ValueError("true amplitudes are identically zero")
    return float(np.sqrt(np.sum((x - x_rec) ** 2) / denom))
