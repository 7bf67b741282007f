"""Sensor-location selection strategies.

Four selectors over an n x r candidate matrix whose rows are stacked
component-wise (component j of location i lives in row ``i + (n/s) * j``):

* scalar greedy: pick the largest-norm row, project it out, repeat;
* vector greedy: pick the location whose s co-located rows span the largest
  hypervolume against everything already selected, project all s rows out
  (scalar greedy is this kernel at s = 1);
* random: seeded uniform draw without replacement;
* convex: round the continuous log-det relaxation solved by projected
  gradient ascent.

Both greedy selectors run one kernel, ``_greedy``, on a stack of same-shaped
candidates (the public selectors pass a stack of one; the random-candidate
study passes a chunk of trials).  It projects every pick out of a working
copy of each member and never writes the candidate.

All argmax ties break to the lowest index so selections are reproducible.
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
    ``relaxation_objective`` (convex only) is half of ``ln det`` of the
    ridged relaxation optimum, so at a 0/1 weight vector on a square budget
    it is ``score_logdet`` of the pick up to the ridge.
    """

    locations: tuple[int, ...]
    components: int
    dof_per_component: int
    method: str
    step_gains: tuple[float, ...] | None = None
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


def _greedy(
    stack: np.ndarray, sensors: int, s: int, method: str
) -> list[SensorSelection | ExhaustionError]:
    """Greedy determinant maximization on a stack of candidates.

    ``stack`` has shape (B, n, r); every member is a candidate of n/s
    locations with s stacked rows each, and gets its own selection, or the
    ``ExhaustionError`` it would raise, in the returned list.  Every step
    scores each unselected location by the product of the squared norms of
    its s working rows orthogonalized in component order, which is the
    squared volume those rows add to the rows already picked.  The argmax
    wins, and its orthonormalized rows Q are projected out of the member's
    working copy by ``W -= (W Q) Q^T``, applied twice so the residual stays
    orthogonal to the picked rows to working precision ("twice is enough").
    The candidates themselves are only read.
    """
    batch, n, r = stack.shape
    dof = n // s
    # The working copy is stored transposed: work[b, :, j, i] (column
    # i + dof*j of flat[b]) is row i + dof*j of member b.  The long axis then
    # runs over locations, so every elementwise step streams contiguous memory.
    flat = stack.transpose(0, 2, 1).copy()
    work = flat.reshape(batch, r, s, dof)
    max_norm = np.sqrt(np.einsum("brn,brn->bn", flat, flat).max(axis=1))
    cutoff_sq = (linalg.RESIDUAL_RTOL * r * np.finfo(np.float64).eps * max_norm) ** 2
    cut = cutoff_sq[:, None]
    every = np.arange(batch)
    alive = np.ones((batch, dof), dtype=bool)
    exhausted: dict[int, ExhaustionError] = {}
    chosen: list[np.ndarray] = []
    gains: list[np.ndarray] = []
    for step in range(1, sensors + 1):
        # Orthogonalize each location's rows in component order; at s = 1
        # this is the squared row norms of the working copy itself.
        rows = work if s == 1 else work.copy()
        norms_sq = np.empty((batch, s, dof))
        for j in range(s):
            norms_sq[:, j] = np.einsum("brl,brl->bl", rows[:, :, j], rows[:, :, j])
            if j + 1 < s:
                denom = np.where(norms_sq[:, j] > cut, norms_sq[:, j], 1.0)
                coef = np.einsum("brkl,brl->bkl", rows[:, :, j + 1 :], rows[:, :, j])
                rows[:, :, j + 1 :] -= (coef / denom[:, None])[:, None] * rows[:, :, j, None]
        scores = np.prod(norms_sq, axis=1)
        scores[(norms_sq <= cut[:, None]).any(axis=1)] = 0.0
        scores[~alive] = -np.inf
        pick = np.argmax(scores, axis=1)
        best = scores[every, pick]
        norms = np.sqrt(norms_sq[every, :, pick])
        if not (best > 0.0).all():
            for b in np.flatnonzero(~(best > 0.0)):
                exhausted.setdefault(b, ExhaustionError(
                    f"all remaining locations are degenerate at step {step}", step=step
                ))
            if len(exhausted) == batch:
                break
            # An exhausted member projects nothing from here on.
            norms[list(exhausted)] = np.inf
        chosen.append(pick)
        gains.append(best)
        alive[every, pick] = False
        if step == sensors:
            break
        # q[b]: the winner's orthonormalized rows as columns, shape (r, s).
        q = rows[every, :, :, pick] / norms[:, None, :]
        for _ in range(2):
            coef = q.transpose(0, 2, 1) @ flat
            # A matrix product with inner dimension 1 runs several times
            # slower than the same outer product by broadcasting.
            flat -= q * coef if s == 1 else q @ coef
    results: list[SensorSelection | ExhaustionError] = []
    for b in range(batch):
        if b in exhausted:
            results.append(exhausted[b])
            continue
        results.append(SensorSelection(
            locations=tuple(int(c[b]) for c in chosen),
            components=s,
            dof_per_component=dof,
            method=method,
            step_gains=tuple(float(g[b]) for g in gains),
        ))
    return results


def _select_greedy(
    stack: np.ndarray, sensors: int, s: int, method: str
) -> list[SensorSelection]:
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
