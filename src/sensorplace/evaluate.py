"""Measurement models, log-det scoring and least-squares reconstruction.

The reduced measurement matrix gathers the selected rows of the candidate
(mode) matrix, mapping mode amplitudes to sparse observations.  Selections are
scored by the log absolute determinant of that matrix, and amplitudes are
recovered from observations by a column-wise least-squares solve.
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
    budgets (both equal the log hypervolume of the selected rows).  The wide
    case takes ``ln |det R|`` from the QR factorization ``C^T = Q R`` rather
    than forming ``C C^T``, which would square the condition number.  A
    singular matrix yields ``-inf`` instead of raising, so benchmark loops over
    random selections can count and skip those draws.
    """
    c = model.c
    try:
        if c.shape[0] == c.shape[1]:
            return linalg.log_abs_det(c)
        return linalg.log_abs_det(np.linalg.qr(c.T, mode="r"))
    except linalg.SingularMatrixError:
        return float("-inf")


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
    observing the same location under the same seed see the same noise.
    """
    if field_snapshots.n_dof != basis.n_dof or field_snapshots.components != basis.components:
        raise ValueError(
            f"snapshots ({field_snapshots.n_dof} dof) do not match basis "
            f"({basis.n_dof} dof)"
        )
    if basis.n_dof != selection.components * selection.dof_per_component:
        raise ValueError("selection does not match basis dimensions")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    rows = list(selection.selected_rows)
    centered = field_snapshots.data - basis.mean[:, None]
    observations = centered[rows].copy()
    if noise_sigma > 0:
        if seed is None:
            raise ValueError("a seed is required when noise_sigma > 0")
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(field_snapshots.data.shape)
        observations += noise_sigma * noise[rows]
    return observations


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered amplitudes (r x N) with per-column residual norms."""

    amplitudes: np.ndarray
    residual_norms: np.ndarray
    rank_deficient: bool


def reconstruct(model: MeasurementModel, observations) -> ReconstructionResult:
    """Column-wise least-squares recovery of mode amplitudes.

    Solves ``C x = y`` per observation column; for a square nonsingular C this
    is exactly ``C^-1 y``.  Rank deficiency of C is flagged on the result and
    the minimum-norm solution is returned.
    """
    y = linalg.as_matrix(observations, name="observations")
    c = model.c
    if y.shape[0] != c.shape[0]:
        raise ValueError(
            f"observations have {y.shape[0]} rows, model expects {c.shape[0]}"
        )
    amplitudes, _, rank, _ = np.linalg.lstsq(c, y, rcond=None)
    residuals = np.linalg.norm(c @ amplitudes - y, axis=0)
    return ReconstructionResult(
        amplitudes=amplitudes,
        residual_norms=residuals,
        rank_deficient=int(rank) < min(c.shape),
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
