"""Measurement models, log-det scoring and least-squares reconstruction.

The reduced measurement matrix gathers the selected rows of the candidate
(mode) matrix, mapping mode amplitudes to sparse observations.  Selections are
scored by the log absolute determinant of that matrix, and amplitudes are
recovered from observations by a column-wise least-squares solve; both call
the matrix singular under the same zero rule (``linalg``).

Observation noise is one standard-normal field over the full grid per seed
(``_noise_field``), gathered at the selected rows, so every selection and
the full-observation reference of the reconstruction study see the same
noise at the same location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .pod import PODBasis, SnapshotMatrix
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
    """Reduced measurement matrix (s*p x r) with its originating selection."""

    c: np.ndarray
    selection: SensorSelection
    n_dof: int
    rank: int

    def __post_init__(self):
        c = linalg.as_matrix(self.c, name="measurement matrix")
        object.__setattr__(self, "c", c)
        rows = self.selection.selected_rows
        if c.shape != (len(rows), self.rank):
            raise ValueError(
                f"measurement matrix shape {c.shape} does not match "
                f"{len(rows)} selected rows x rank {self.rank}"
            )
        if len(rows) > self.rank:
            raise ValueError(
                f"underdetermined recovery: {len(rows)} observation rows "
                f"exceed rank {self.rank}"
            )

    @property
    def components(self) -> int:
        return self.selection.components

    @property
    def sensor_count(self) -> int:
        return self.selection.sensor_count


def build_model(candidate, selection: SensorSelection) -> MeasurementModel:
    """Gather the selected rows of the candidate into a measurement matrix.

    ``candidate`` may be a PODBasis or a raw stacked n x r array; its row
    count must match the selection's ``components * dof_per_component``.
    """
    if isinstance(candidate, PODBasis):
        if candidate.components != selection.components:
            raise ValueError(
                f"selection has {selection.components} components, basis has "
                f"{candidate.components}"
            )
        modes = candidate.modes
    else:
        modes = linalg.as_matrix(candidate, name="candidate matrix")
    n, r = modes.shape
    if n != selection.components * selection.dof_per_component:
        raise ValueError(
            f"candidate has {n} rows, selection implies "
            f"{selection.components * selection.dof_per_component}"
        )
    rows = selection.selected_rows
    return MeasurementModel(
        c=modes[list(rows)].copy(),
        selection=selection,
        n_dof=n,
        rank=r,
    )


def score_logdet(model: MeasurementModel) -> float:
    """Log absolute determinant score of a measurement model.

    Returns ``ln |det C|`` for square C and ``0.5 ln det(C C^T)`` for wide
    budgets (both equal the log hypervolume of the selected rows), from one
    QR factorization of ``C^T`` (``linalg.log_row_volume``).  A selection
    whose rows the greedy selectors' zero rule calls dependent yields
    ``-inf`` instead of raising, so benchmark loops over random selections
    can count and skip those draws.
    """
    return float(linalg.log_row_volume(model.c))


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
    if field_snapshots.n_dof != basis.n_dof or field_snapshots.components != basis.components:
        raise ValueError(
            f"snapshots ({field_snapshots.n_dof} dof) do not match basis "
            f"({basis.n_dof} dof)"
        )
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
    if seed is None:
        raise ValueError("a seed is required when noise_sigma > 0")
    return np.random.default_rng(seed).standard_normal(field_snapshots.data.shape)


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered amplitudes (r x N) with per-column residual norms."""

    amplitudes: np.ndarray
    residual_norms: np.ndarray
    rank_deficient: bool


def reconstruct(model: MeasurementModel, observations) -> ReconstructionResult:
    """Column-wise least-squares recovery of mode amplitudes.

    Solves ``C x = y`` per observation column by ``np.linalg.lstsq``; for a
    square nonsingular C this is exactly ``C^-1 y``.  ``rank_deficient`` comes
    from the package's one zero rule, the one under which ``score_logdet``
    gives ``-inf``; the minimum-norm solution is still returned.
    """
    y = linalg.as_matrix(observations, name="observations")
    c = model.c
    if y.shape[0] != c.shape[0]:
        raise ValueError(
            f"observations have {y.shape[0]} rows, model expects {c.shape[0]}"
        )
    amplitudes = np.linalg.lstsq(c, y, rcond=None)[0]
    residuals = np.linalg.norm(c @ amplitudes - y, axis=0)
    return ReconstructionResult(
        amplitudes=amplitudes,
        residual_norms=residuals,
        rank_deficient=bool(linalg._r_diagonal(c)[1].any()),
    )


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
