"""Sensor-location selection strategies.

Four selectors over an n x r candidate matrix whose rows are stacked
component-wise (component j of location i lives in row ``i + (n/s) * j``):

* vector greedy: pick the location whose s co-located rows add the largest
  hypervolume to the rows already picked, repeat;
* scalar greedy: the same with every row its own location (s = 1);
* random: seeded uniform draw without replacement;
* convex: round the continuous log-det relaxation solved by projected
  gradient ascent.

Both greedy selectors run one kernel, ``_greedy``, on a stack of same-shaped
candidates.  It downdates each location's s x s residual Gram after every
pick and never writes the candidate.  Argmax ties break to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .pod import PODBasis

__all__ = [
    "METHOD_SCALAR_GREEDY",
    "METHOD_VECTOR_GREEDY",
    "METHOD_RANDOM",
    "METHOD_CONVEX",
    "METHODS",
    "ExhaustionError",
    "ConvexSolverError",
    "SensorSelection",
    "SelectionBudget",
    "select_scalar_greedy",
    "select_vector_greedy",
    "select_random",
    "select_convex",
]

METHOD_SCALAR_GREEDY = "scalar-greedy"
METHOD_VECTOR_GREEDY = "vector-greedy"
METHOD_RANDOM = "random"
METHOD_CONVEX = "convex"
METHODS = (METHOD_VECTOR_GREEDY, METHOD_SCALAR_GREEDY, METHOD_RANDOM, METHOD_CONVEX)

class ExhaustionError(RuntimeError):
    """Ran out of non-degenerate candidates; ``step`` is the 1-based step."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ConvexSolverError(linalg.NonConvergenceError):
    """Projected gradient ascent stopped before reaching its tolerance."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(message)
        self.gradient_norm = gradient_norm


@dataclass(frozen=True)
class SensorSelection:
    """Ordered sensor locations plus the induced row indices of the candidate.

    ``locations`` are 0-based location indices in ``[0, dof_per_component)``.
    ``selected_rows`` lists, per location in selection order, the s stacked
    rows ``loc + dof_per_component * j`` for components ``j = 0..s-1``.
    ``step_gains`` (greedy only) are the squared volumes each pick added and
    ``step_margins`` each winner's smallest pivot over the zero cutoff (both
    squared norms).  ``relaxation_objective`` (convex only) is half of
    ``ln det`` of the ridged relaxation optimum, so at a 0/1 weight vector on
    a square budget it is ``score_logdet`` of the pick up to the ridge.
    """

    locations: tuple[int, ...]
    components: int
    dof_per_component: int
    method: str
    step_gains: tuple[float, ...] | None = None
    step_margins: tuple[float, ...] | None = None
    relaxation_objective: float | None = None

    def __post_init__(self):
        locs = tuple(int(i) for i in self.locations)
        object.__setattr__(self, "locations", locs)
        if len(set(locs)) != len(locs):
            raise ValueError("selected locations must be distinct")
        if self.components < 1 or self.dof_per_component < 1:
            raise ValueError("components and dof_per_component must be >= 1")
        if any(not 0 <= i < self.dof_per_component for i in locs):
            raise ValueError(
                f"locations must lie in [0, {self.dof_per_component})"
            )

    @property
    def sensor_count(self) -> int:
        return len(self.locations)

    @property
    def selected_rows(self) -> tuple[int, ...]:
        dof = self.dof_per_component
        return tuple(
            loc + dof * j for loc in self.locations for j in range(self.components)
        )


@dataclass(frozen=True)
class SelectionBudget:
    """Sensor budget for determinant-based selection: requires s*p <= r."""

    sensors: int
    components: int
    rank: int

    def __post_init__(self):
        if self.sensors < 1:
            raise ValueError("sensor count must be >= 1")
        if self.sensors * self.components > self.rank:
            raise ValueError(
                f"budget violates s*p <= r: s={self.components}, "
                f"p={self.sensors}, r={self.rank}"
            )


def _candidate_array(candidate, components: int | None) -> tuple[np.ndarray, int]:
    """Accept either a PODBasis or a raw stacked candidate matrix."""
    if isinstance(candidate, PODBasis):
        if components is not None and components != candidate.components:
            raise ValueError(
                f"components={components} conflicts with basis components="
                f"{candidate.components}"
            )
        return candidate.modes, candidate.components
    matrix = linalg.as_matrix(candidate, name="candidate matrix")
    s = 1 if components is None else int(components)
    if s < 1:
        raise ValueError("components must be >= 1")
    if matrix.shape[0] % s != 0:
        raise ValueError(f"{matrix.shape[0]} rows not divisible by {s} components")
    return matrix, s


# Re-form a downdated pivot once it falls to sqrt(eps) * M * sqrt(its last explicit value),
# M the largest row norm (it bounds the rounding of w = q^T A_i): LAPACK's xGEQP3/xLAQPS
# norm-downdating rule (Drmac & Bujanovic 2008), which _ldl_pivots applies within a location.
_RECOMPUTE_RATIO = np.sqrt(np.finfo(np.float64).eps)


def _residual(flat: np.ndarray, q: np.ndarray, members: np.ndarray, locs: np.ndarray, s: int):
    """Rows (m, r, s) of each (member, location) pair, projected twice off ``q[member]``."""
    cols = locs[:, None] + (flat.shape[2] // s) * np.arange(s)
    rows = flat[members[:, None], :, cols].swapaxes(1, 2)
    basis = q[members]
    for _ in range(2):
        rows = rows - basis @ (basis.swapaxes(1, 2) @ rows)
    return rows


def _ldl_pivots(gram: dict, s: int, cut: np.ndarray) -> np.ndarray:
    """LDL^T pivots (s, B, dof) in component order of the Grams ``gram[j, k]``, j <= k;
    NaN (unknown) where elimination cancels one below sqrt(eps) of its diagonal entry."""
    a = dict(gram)
    for j in range(s):
        safe = np.where(a[j, j] > cut, a[j, j], 1.0)
        for k in range(j + 1, s):
            for m in range(k, s):
                a[k, m] = a[k, m] - a[j, k] / safe * a[j, m]
    unknown = [a[j, j] < _RECOMPUTE_RATIO * gram[j, j] for j in range(s)]
    return np.where(unknown, np.nan, np.stack([a[j, j] for j in range(s)]))


def _greedy(
    stack: np.ndarray, sensors: int, s: int, method: str
) -> list[SensorSelection | ExhaustionError]:
    """Greedy determinant maximization on a stack (B, n, r) of candidates.

    Each member gets its selection, or the ``ExhaustionError`` it would raise.
    A location scores the squared volume its s rows add to the picked rows,
    the product of the LDL^T pivots of its residual Gram in component order
    (Saito et al., arXiv:1911.08757).  A pick downdates the Grams by ``w w^T``,
    ``w = q^T A_i`` for the winner's orthonormalized rows q: one read of the
    candidate.  Only the winner (for q and its gain) and the locations the
    ``_RECOMPUTE_RATIO`` test flags are re-formed from their rows.
    """
    batch, n, r = stack.shape
    dof = n // s
    # flat[b, :, i + dof*j] is row i + dof*j of member b: per-location arrays are contiguous.
    flat = stack.transpose(0, 2, 1).copy()
    comp = flat.reshape(batch, r, s, dof)
    gram = {(j, k): np.einsum("brl,brl->bl", comp[:, :, j], comp[:, :, k])
            for j in range(s) for k in range(j, s)}
    max_norm = np.sqrt(np.max([gram[j, j].max(axis=1) for j in range(s)], axis=0))[:, None]
    cut = (linalg.RESIDUAL_RTOL * r * np.finfo(np.float64).eps * max_norm) ** 2
    piv = _ldl_pivots(gram, s, cut)
    limit = _RECOMPUTE_RATIO * max_norm * np.sqrt(np.maximum(piv, 0.0))
    q = np.zeros((batch, r, 0))
    every = np.arange(batch)
    alive = np.ones((batch, dof), dtype=bool)
    failed = np.zeros(batch, dtype=int)  # the step a member exhausted at, or 0
    chosen, gains, margins = [], [], []
    for step in range(1, sensors + 1):
        stale = alive & ~(piv >= limit).all(axis=0)  # an unknown (NaN) pivot is stale
        if stale.any():
            members, locs = np.nonzero(stale)
            rfac = np.linalg.qr(_residual(flat, q, members, locs, s), mode="r")
            for (j, k), g in gram.items():
                g[members, locs] = np.einsum("mi,mi->m", rfac[:, :, j], rfac[:, :, k])
            piv[:, members, locs] = fresh = np.diagonal(rfac, axis1=1, axis2=2).T ** 2
            limit[:, members, locs] = _RECOMPUTE_RATIO * max_norm[members, 0] * np.sqrt(fresh)
        scores = np.prod(piv, axis=0)
        scores[(piv <= cut).any(axis=0)] = 0.0
        scores[~alive] = -np.inf
        pick = np.argmax(scores, axis=1)
        failed[(failed == 0) & ~(scores[every, pick] > 0.0)] = step
        if failed.all():
            break
        basis, rfac = np.linalg.qr(_residual(flat, q, every, pick, s))
        chosen.append(pick)
        gains.append(np.prod(np.diagonal(rfac, axis1=1, axis2=2) ** 2, axis=1))
        margins.append(np.divide(piv[:, every, pick].min(axis=0), cut[:, 0],
                                 out=np.full(batch, np.inf), where=cut[:, 0] > 0.0))
        alive[every, pick] = False
        if step < sensors:
            basis[failed > 0] = 0.0  # an exhausted member downdates nothing more
            q = np.concatenate((q, basis), axis=2)
            w = (basis.swapaxes(1, 2) @ flat).reshape(batch, s, s, dof)
            for (j, k), g in gram.items():
                g -= np.einsum("bml,bml->bl", w[:, :, j], w[:, :, k])
            piv = _ldl_pivots(gram, s, cut)
    message = "all remaining locations are degenerate at step {}"
    return [ExhaustionError(message.format(f), step=int(f)) if f else SensorSelection(
        locations=tuple(int(c[b]) for c in chosen),
        components=s, dof_per_component=dof, method=method,
        step_gains=tuple(float(g[b]) for g in gains),
        step_margins=tuple(float(m[b]) for m in margins),
    ) for b, f in enumerate(failed)]


def _select_greedy(stack: np.ndarray, sensors: int, s: int, method: str) -> list[SensorSelection]:
    """``_greedy`` on a stack; raises the first member's ``ExhaustionError``."""
    results = _greedy(stack, sensors, s, method)
    for result in results:
        if isinstance(result, ExhaustionError):
            raise result
    return results


def select_scalar_greedy(candidate, sensors: int) -> SensorSelection:
    """Greedy scalar-measurement selection by largest residual row norm.

    At each step the row of largest squared norm after projecting out the rows
    already chosen is picked, which maximizes the one-step volume gain of the
    selected row set.  Every row is its own location, also for a
    multi-component ``PODBasis``.

    Parameters
    ----------
    candidate : array_like, shape (n, r)
        Candidate matrix; each row is one scalar measurement location.
    sensors : int
        Number of rows to select; at most r.
    """
    matrix, _ = _candidate_array(candidate, None)
    n, r = matrix.shape
    if not 1 <= sensors <= r:
        raise ValueError(f"sensor count {sensors} violates p <= r with r={r}")
    if sensors > n:
        raise ValueError(f"cannot select {sensors} rows from {n}")
    return _select_greedy(matrix[None], sensors, 1, METHOD_SCALAR_GREEDY)[0]


def select_vector_greedy(
    candidate, sensors: int, components: int | None = None
) -> SensorSelection:
    """Greedy vector-measurement selection by largest co-located hypervolume.

    Each step scores every unselected location by the product of squared norms
    of its s stacked rows, orthogonalized in component order against each
    other and against the rows already picked (the squared hypervolume those
    rows add to the selected set), and picks the argmax.

    With ``components == 1`` this reduces exactly to ``select_scalar_greedy``.

    Parameters
    ----------
    candidate : PODBasis or array_like, shape (n, r)
        Stacked candidate matrix.  For a raw array, ``components`` must be
        given when s > 1.
    sensors : int
        Number of locations p to select; requires ``s * p <= r`` and
        ``p <= n/s``.
    """
    matrix, s = _candidate_array(candidate, components)
    n, r = matrix.shape
    dof = n // s
    SelectionBudget(sensors=sensors, components=s, rank=r)
    if sensors > dof:
        raise ValueError(f"cannot select {sensors} of {dof} locations")
    return _select_greedy(matrix[None], sensors, s, METHOD_VECTOR_GREEDY)[0]


def select_random(
    n_locations: int, sensors: int, seed: int, components: int = 1
) -> SensorSelection:
    """Uniform draw of ``sensors`` distinct locations, deterministic per seed."""
    if n_locations < 1:
        raise ValueError("n_locations must be >= 1")
    if not 1 <= sensors <= n_locations:
        raise ValueError(f"cannot draw {sensors} of {n_locations} locations")
    rng = np.random.default_rng(seed)
    picks = rng.choice(n_locations, size=sensors, replace=False)
    return SensorSelection(
        locations=tuple(int(i) for i in picks),
        components=components,
        dof_per_component=n_locations,
        method=METHOD_RANDOM,
    )


# Projected gradient ascent in select_convex: the iteration cap, the
# tolerance on the projected-gradient norm, the Armijo constant, the
# backtracking factor, and the first and smallest trial steps.
_CONVEX_MAX_ITERS = 500
_CONVEX_GRAD_TOL = 1e-6
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_INITIAL_STEP = 1.0
_MIN_STEP = 1e-14


def _project_capped_simplex(x: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto ``{z : 0 <= z <= 1, sum(z) = total}``."""
    # sum(clip(x - tau, 0, 1)) is non-increasing in tau; bisect for the root.
    lo = float(x.min()) - 1.0
    hi = float(x.max())
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.clip(x - mid, 0.0, 1.0).sum() > total:
            lo = mid
        else:
            hi = mid
    return np.clip(x - 0.5 * (lo + hi), 0.0, 1.0)


def _relaxation_logdet(
    matrix: np.ndarray, z: np.ndarray, s: int, ridge: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """``ln det`` and Cholesky factor of ``info = sum_i z_i A_i^T A_i + ridge``.

    A non-positive-definite ``info`` gives ``(-inf, None)``.
    """
    info = (matrix.T * np.tile(z, s)) @ matrix + ridge
    try:
        chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        return -np.inf, None
    return 2.0 * float(np.log(np.diagonal(chol)).sum()), chol


def _relaxation_gradient(matrix: np.ndarray, chol: np.ndarray, s: int) -> np.ndarray:
    """``tr(info^-1 A_i^T A_i) = ||L^-1 A_i^T||_F^2`` per location i."""
    half = np.linalg.solve(chol, matrix.T)
    return np.einsum("ij,ij->j", half, half).reshape(s, -1).sum(axis=0)


def select_convex(candidate, sensors: int, components: int | None = None) -> SensorSelection:
    """Relax-and-round vector-sensor selection.

    Solves ``maximize log det(sum_i z_i A_i^T A_i + ridge)`` over the capped
    simplex ``z in [0, 1]^(n/s), sum z = p`` by projected gradient ascent with
    Armijo backtracking (``A_i`` is the s x r row block of location i; the
    ridge, ``1e-9 ||A||_F^2 / r`` times the identity, keeps the objective
    finite while z is spread thin), then keeps the p largest entries of z,
    ties to the lowest index.  Each trial iterate costs one product
    ``A^T diag(w) A`` and one Cholesky factorization, in O(n r) memory.
    ``relaxation_objective`` is half the optimum, in ``score_logdet`` units.

    Raises
    ------
    ConvexSolverError
        If the projected-gradient norm has not dropped to 1e-6 within 500
        iterations.
    """
    matrix, s = _candidate_array(candidate, components)
    n, r = matrix.shape
    dof = n // s
    SelectionBudget(sensors=sensors, components=s, rank=r)
    if sensors > dof:
        raise ValueError(f"cannot select {sensors} of {dof} locations")
    trace_scale = float(np.einsum("ij,ij->", matrix, matrix)) / r
    if trace_scale <= 0.0:
        raise ValueError("candidate matrix is identically zero")
    ridge = 1e-9 * trace_scale * np.eye(r)

    z = _project_capped_simplex(np.full(dof, sensors / dof), float(sensors))
    f_curr, chol = _relaxation_logdet(matrix, z, s, ridge)
    step = _INITIAL_STEP
    # Pass k tests the iterate after k steps, up to _CONVEX_MAX_ITERS steps.
    for _ in range(_CONVEX_MAX_ITERS + 1):
        grad = _relaxation_gradient(matrix, chol, s)
        pg_norm = float(np.linalg.norm(_project_capped_simplex(z + grad, float(sensors)) - z))
        if pg_norm <= _CONVEX_GRAD_TOL:
            break
        t = step
        while True:
            z_new = _project_capped_simplex(z + t * grad, float(sensors))
            f_new, chol_new = _relaxation_logdet(matrix, z_new, s, ridge)
            direction = z_new - z
            if f_new >= f_curr + _ARMIJO_C * float(grad @ direction):
                break
            t *= _BACKTRACK
            if t < _MIN_STEP:
                z_new, f_new, chol_new = z, f_curr, chol
                break
        z, f_curr, chol = z_new, f_new, chol_new
        step = min(t / _BACKTRACK, _INITIAL_STEP)
    else:
        raise ConvexSolverError(
            f"projected-gradient norm {pg_norm:.3e} above tolerance "
            f"{_CONVEX_GRAD_TOL:.1e} after {_CONVEX_MAX_ITERS} iterations",
            gradient_norm=pg_norm,
        )

    # Round: keep the p largest weights, ties to the lowest index.
    order = np.argsort(-z, kind="stable")
    locations = tuple(int(i) for i in order[:sensors])
    return SensorSelection(
        locations=locations,
        components=s,
        dof_per_component=dof,
        method=METHOD_CONVEX,
        relaxation_objective=0.5 * f_curr,
    )
