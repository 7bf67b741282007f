"""Truncated POD bases from snapshot matrices.

Snapshots are stored with one spatial degree of freedom per row and one time
instant per column.  Vector-valued fields (for example u and v velocity) are
stacked component-wise: component ``j`` occupies the contiguous row block
``[j * n/s, (j + 1) * n/s)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

__all__ = [
    "SnapshotMatrix",
    "PODBasis",
    "compute_pod",
    "mode_amplitudes",
]


def _stacked_components(n: int, components) -> int:
    """``components`` as an int s that divides the ``n`` stacked rows into equal blocks."""
    s = linalg.as_count(components, "components")
    if n % s != 0:
        raise ValueError(f"{n} rows not divisible by {s} components")
    return s


@dataclass(frozen=True)
class SnapshotMatrix:
    """Stacked snapshot data: ``components * dof_per_component`` rows, N columns."""

    data: np.ndarray
    components: int = 1

    def __post_init__(self):
        object.__setattr__(self, "data", linalg.as_matrix(self.data, name="snapshot data"))
        object.__setattr__(self, "components", _stacked_components(len(self.data), self.components))

    @property
    def dof_per_component(self) -> int:
        return self.data.shape[0] // self.components


@dataclass(frozen=True)
class PODBasis:
    """Orthonormal spatial modes (n x r), singular values and the removed mean.

    ``mean`` is the temporal mean subtracted from the snapshots before the
    SVD (all zeros when centering was disabled); it is kept so observations
    and reconstructions use the same offset convention.
    """

    modes: np.ndarray
    singular_values: np.ndarray
    components: int = 1
    mean: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        modes = linalg.as_matrix(self.modes, name="modes")
        sigma = np.asarray(self.singular_values, dtype=np.float64).ravel()
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "singular_values", sigma)
        n, r = modes.shape
        object.__setattr__(self, "components", _stacked_components(n, self.components))
        if sigma.size != r:
            raise ValueError(f"expected {r} singular values, got {sigma.size}")
        if not np.all(np.isfinite(sigma)) or np.any(sigma < 0) or np.any(np.diff(sigma) > 0):
            raise ValueError("singular values must be finite, non-negative and non-increasing")
        gram = modes.T @ modes
        if np.max(np.abs(gram - np.eye(r))) > 1e-10:
            raise ValueError("mode columns are not orthonormal")
        if self.mean is None:
            object.__setattr__(self, "mean", np.zeros(n))
        else:
            mean = np.asarray(self.mean, dtype=np.float64).ravel()
            if mean.size != n:
                raise ValueError(f"mean has length {mean.size}, expected {n}")
            if not np.all(np.isfinite(mean)):
                raise ValueError("mean contains non-finite entries")
            object.__setattr__(self, "mean", mean)


def compute_pod(snapshots: SnapshotMatrix, rank: int, center: bool = True) -> PODBasis:
    """Truncated POD of a snapshot matrix.

    Parameters
    ----------
    snapshots : SnapshotMatrix
    rank : int
        Number of modes to keep; must satisfy ``1 <= rank <= min(n, N)``.
        Requests beyond the number of snapshots are rejected rather than
        silently truncated.
    center : bool
        Subtract the temporal mean of each row before the SVD (default).
        The subtracted mean is stored on the returned basis.
    """
    data = snapshots.data
    mean = None
    if center:
        mean = data.mean(axis=1)
        data = data - mean[:, None]
    modes, sigma, _ = linalg.thin_svd(data, rank)
    return PODBasis(
        modes=modes,
        singular_values=sigma,
        components=snapshots.components,
        mean=mean,
    )


def _centered(basis: PODBasis, snapshots: SnapshotMatrix) -> np.ndarray:
    """``snapshots`` minus ``basis.mean``; another grid or component count raises."""
    n, m = len(snapshots.data), len(basis.modes)
    if (n, snapshots.components) != (m, basis.components):
        raise ValueError(f"snapshots ({n} dof, {snapshots.components} components) do not "
                         f"match basis ({m} dof, {basis.components} components)")
    return snapshots.data - basis.mean[:, None]


def mode_amplitudes(basis: PODBasis, snapshots: SnapshotMatrix) -> np.ndarray:
    """Project (mean-subtracted) snapshots onto the basis.

    Returns the r x N amplitude matrix whose column ``t`` holds the true mode
    amplitudes of snapshot ``t``.
    """
    return basis.modes.T @ _centered(basis, snapshots)
