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
    "ConvexOptions",
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

# A greedy residual row norm at or below _RESIDUAL_RTOL * r * eps times the
# candidate's largest row norm counts as zero.  On exactly rank-k candidates
# the twice-applied projection leaves residuals below r * eps * max row norm,
# so the factor 10 separates those from genuine directions, while full-rank
# candidates with column scales down to 1e-12 keep every direction.
_RESIDUAL_RTOL = 10.0


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


@dataclass(frozen=True)
class ConvexOptions:
    """Tuning knobs for the projected-gradient relaxation solver."""

    max_iters: int = 500
    grad_tol: float = 1e-6
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    initial_step: float = 1.0
    min_step: float = 1e-14


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


def _greedy(matrix: np.ndarray, sensors: int, s: int, method: str) -> SensorSelection:
    """Greedy determinant maximization over locations of s stacked rows.

    Every step scores each unselected location by the product of the squared
    norms of its s working rows orthogonalized in component order, which is
    the squared volume those rows add to the rows already picked.  The argmax
    wins, and its orthonormalized rows Q are projected out of the working copy
    by ``W -= (W Q) Q^T``, applied twice so the residual stays orthogonal to
    the picked rows to working precision ("twice is enough").
    """
    n, r = matrix.shape
    dof = n // s
    # The working copy is stored transposed: work[:, j, i] (column i + dof*j
    # of flat) is row i + dof*j of the candidate.  The long axis then runs
    # over locations, so every elementwise step streams contiguous memory.
    flat = matrix.T.copy()
    work = flat.reshape(r, s, dof)
    max_norm = float(np.sqrt(np.einsum("rn,rn->n", flat, flat).max()))
    cutoff = _RESIDUAL_RTOL * r * np.finfo(np.float64).eps * max_norm
    cutoff_sq = cutoff * cutoff
    alive = np.ones(dof, dtype=bool)
    chosen: list[int] = []
    gains: list[float] = []
    for step in range(1, sensors + 1):
        # Orthogonalize each location's rows in component order; at s = 1
        # this is the squared row norms of the working copy itself.
        rows = work if s == 1 else work.copy()
        norms_sq = np.empty((s, dof))
        for j in range(s):
            norms_sq[j] = np.einsum("rl,rl->l", rows[:, j], rows[:, j])
            if j + 1 < s:
                denom = np.where(norms_sq[j] > cutoff_sq, norms_sq[j], 1.0)
                coef = np.einsum("rkl,rl->kl", rows[:, j + 1 :], rows[:, j]) / denom
                rows[:, j + 1 :] -= coef * rows[:, j][:, None, :]
        scores = np.prod(norms_sq, axis=0)
        scores[(norms_sq <= cutoff_sq).any(axis=0)] = 0.0
        scores[~alive] = -np.inf
        pick = int(np.argmax(scores))
        if not scores[pick] > 0.0:
            raise ExhaustionError(
                f"all remaining locations are degenerate at step {step}", step=step
            )
        chosen.append(pick)
        gains.append(float(scores[pick]))
        alive[pick] = False
        q = rows[:, :, pick] / np.sqrt(norms_sq[:, pick])
        for _ in range(2):
            coef = q.T @ flat
            # A matrix product with inner dimension 1 runs several times
            # slower than the same outer product by broadcasting.
            flat -= q * coef if s == 1 else q @ coef
    return SensorSelection(
        locations=tuple(chosen),
        components=s,
        dof_per_component=dof,
        method=method,
        step_gains=tuple(gains),
    )


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
    return _greedy(matrix, sensors, 1, METHOD_SCALAR_GREEDY)


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
    return _greedy(matrix, sensors, s, METHOD_VECTOR_GREEDY)


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


def select_convex(
    candidate,
    sensors: int,
    components: int | None = None,
    options: ConvexOptions | None = None,
) -> SensorSelection:
    """Relax-and-round vector-sensor selection.

    Solves ``maximize log det(sum_i z_i A_i^T A_i)`` over the capped simplex
    ``z in [0, 1]^(n/s), sum z = p`` by projected gradient ascent with
    backtracking line search (``A_i`` is the s x r row block of location i; a
    small ridge keeps the objective finite while z is spread thin), then keeps
    the p largest entries of z.  The relaxation optimum is stored on the
    returned selection for diagnostics.

    Raises
    ------
    ConvexSolverError
        If the projected-gradient norm has not dropped to ``options.grad_tol``
        within ``options.max_iters`` iterations.
    """
    matrix, s = _candidate_array(candidate, components)
    n, r = matrix.shape
    dof = n // s
    SelectionBudget(sensors=sensors, components=s, rank=r)
    if sensors > dof:
        raise ValueError(f"cannot select {sensors} of {dof} locations")
    opts = options or ConvexOptions()

    # Per-location Gram contributions A_i^T A_i, shape (dof, r, r).
    blocks = matrix.reshape(s, dof, r).transpose(1, 0, 2)
    grams = np.einsum("lka,lkb->lab", blocks, blocks)
    trace_scale = float(np.trace(grams.sum(axis=0))) / r
    if trace_scale <= 0.0:
        raise ValueError("candidate matrix is identically zero")
    ridge = 1e-9 * trace_scale * np.eye(r)

    def objective(z: np.ndarray) -> float:
        info = np.einsum("l,lab->ab", z, grams) + ridge
        sign, value = np.linalg.slogdet(info)
        return value if sign > 0 else -np.inf

    def gradient(z: np.ndarray) -> np.ndarray:
        info = np.einsum("l,lab->ab", z, grams) + ridge
        inv = np.linalg.inv(info)
        return np.einsum("ab,lab->l", inv, grams)

    z = _project_capped_simplex(np.full(dof, sensors / dof), float(sensors))
    f_curr = objective(z)
    step = opts.initial_step
    pg_norm = np.inf
    converged = False
    for _ in range(opts.max_iters):
        grad = gradient(z)
        pg_norm = float(np.linalg.norm(_project_capped_simplex(z + grad, float(sensors)) - z))
        if pg_norm <= opts.grad_tol:
            converged = True
            break
        t = step
        while True:
            z_new = _project_capped_simplex(z + t * grad, float(sensors))
            f_new = objective(z_new)
            direction = z_new - z
            if f_new >= f_curr + opts.armijo_c * float(grad @ direction):
                break
            t *= opts.backtrack
            if t < opts.min_step:
                z_new, f_new = z, f_curr
                break
        z, f_curr = z_new, f_new
        step = min(t / opts.backtrack, opts.initial_step)
    else:
        pg_norm = float(
            np.linalg.norm(_project_capped_simplex(z + gradient(z), float(sensors)) - z)
        )
        converged = pg_norm <= opts.grad_tol
    if not converged:
        raise ConvexSolverError(
            f"projected-gradient norm {pg_norm:.3e} above tolerance "
            f"{opts.grad_tol:.1e} after {opts.max_iters} iterations",
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
        relaxation_objective=f_curr,
    )
