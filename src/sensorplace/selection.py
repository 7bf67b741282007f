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
from .pod import PODBasis, _stacked_components

__all__ = [
    "METHOD_SCALAR_GREEDY",
    "METHOD_VECTOR_GREEDY",
    "METHOD_RANDOM",
    "METHOD_CONVEX",
    "METHODS",
    "ExhaustionError",
    "ConvexSolverError",
    "SensorSelection",
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
    """Projected gradient ascent stopped before its duality gap certified the optimum."""


@dataclass(frozen=True)
class SensorSelection:
    """Ordered sensor locations plus the induced row indices of the candidate.

    ``locations`` are 0-based location indices in ``[0, dof_per_component)``.
    ``selected_rows`` lists, per location in selection order, the s stacked
    rows ``loc + dof_per_component * j`` for components ``j = 0..s-1``.
    ``step_gains`` (greedy only) are the squared volumes each pick added, in
    absolute units: at s = 2 they saturate to 0.0 at 2^-280 and inf at 2^300
    while the picks hold (to 2^-530 and 2^510).  ``step_margins`` are each
    winner's smallest pivot over the zero cutoff (both squared norms).
    ``relaxation_objective`` (convex only) is half of ``ln det`` of the ridged
    relaxation, certified within 5e-5 of its optimum; at a 0/1 weight vector
    on a square budget it is ``score_logdet`` of the pick up to the ridge.
    """

    locations: tuple[int, ...]
    components: int
    dof_per_component: int
    method: str
    step_gains: tuple[float, ...] | None = None
    step_margins: tuple[float, ...] | None = None
    relaxation_objective: float | None = None

    def __post_init__(self):
        locs = tuple(linalg.as_count(i, "location", least=0) for i in self.locations)
        object.__setattr__(self, "locations", locs)
        for name in ("components", "dof_per_component"):
            object.__setattr__(self, name, linalg.as_count(getattr(self, name), name))
        if len(set(locs)) != len(locs):
            raise ValueError("selected locations must be distinct")
        if any(i >= self.dof_per_component for i in locs):
            raise ValueError(f"locations must lie in [0, {self.dof_per_component})")

    @property
    def sensor_count(self) -> int:
        return len(self.locations)

    @property
    def selected_rows(self) -> tuple[int, ...]:
        dof = self.dof_per_component
        return tuple(
            loc + dof * j for loc in self.locations for j in range(self.components)
        )


def _candidate_array(candidate, sensors, components) -> tuple[np.ndarray, int, int]:
    """The stacked matrix, s and p of a PODBasis or raw candidate, after the budget checks.

    Requires n divisible by s, ``p >= 1``, ``s * p <= r`` and ``p <= n/s``.
    """
    if isinstance(candidate, PODBasis):
        matrix, s = candidate.modes, candidate.components
        if components is not None and linalg.as_count(components, "components") != s:
            raise ValueError(f"components={components} conflicts with basis components={s}")
    else:
        matrix = linalg.as_matrix(candidate, name="candidate matrix")
        s = _stacked_components(len(matrix), 1 if components is None else components)
    n, r = matrix.shape
    p = linalg.as_count(sensors, "sensor count")
    if p * s > r:
        raise ValueError(f"budget violates s*p <= r: s={s}, p={p}, r={r}")
    if p > n // s:
        raise ValueError(f"cannot select {p} of {n // s} locations")
    return matrix, s, p


# Re-form a downdated pivot once it falls to sqrt(eps) * M * sqrt(its last explicit value),
# M the largest row norm (it bounds the rounding of w = q^T A_i): LAPACK's xGEQP3/xLAQPS
# norm-downdating rule (Drmac & Bujanovic 2008), which _ldl_pivots applies within a location.
_RECOMPUTE_RATIO = np.sqrt(np.finfo(np.float64).eps)


def _residual(stack: np.ndarray, q: np.ndarray, members: np.ndarray, locs: np.ndarray):
    """Rows (m, r, s) of each (member, location) pair, projected twice off ``q[member]``."""
    rows = stack[members, :, :, locs].swapaxes(1, 2)
    basis = q[members]
    for _ in range(2):
        rows = rows - basis @ (basis.swapaxes(1, 2) @ rows)
    return rows


def _ldl_pivots(gram: dict, cut: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """Write the LDL^T pivots of the s x s Grams ``gram[j, k]``, j <= k, into ``piv`` (s, B, dof)
    in component order; returns where elimination cancels one below sqrt(eps) of its diagonal.
    The first pivot is its Gram entry: a negative one already fails the recompute test."""
    a, s = dict(gram), len(piv)
    cancelled = np.zeros(piv.shape[1:], dtype=bool)
    piv[0] = gram[0, 0]
    for j in range(1, s):
        safe = np.where(piv[j - 1] > cut, piv[j - 1], 1.0)
        for k in range(j, s):
            for m in range(k, s):
                a[k, m] = a[k, m] - a[j - 1, k] / safe * a[j - 1, m]
        piv[j] = a[j, j]
        cancelled |= piv[j] < _RECOMPUTE_RATIO * gram[j, j]
    return cancelled


def _greedy(stack: np.ndarray, sensors: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy determinant maximization on a component-major stack (B, s, r, dof) of candidates.

    ``stack[b, j, :, i]`` is row i + dof*j of member b.  It is only read, after
    a copy if it is not C-contiguous, so results do not depend on its layout.
    Returns the picks, step gains and step margins, each (B, sensors), and
    raises ``ExhaustionError`` at the first step where some member has no
    live location.  A location scores the squared volume its s rows add to
    the picked rows, the product of the LDL^T pivots of its residual Gram in
    component order (Saito et al., arXiv:1911.08757).  Grams, pivots and
    scores are kept scaled by the exact power of two that brings each
    member's largest row norm into [0.5, 1), so scores neither underflow nor
    overflow (by ``np.ldexp``: the factor itself, ``2.0**(2 * shift)``,
    overflows for tiny candidates); the gains come from the unscaled rows.
    A pick downdates the Grams by ``w w^T``, ``w = q^T A_i`` for the winner's
    orthonormalized rows q: one read of the candidate.  Only the winner (for
    q and its gain) and the locations the ``_RECOMPUTE_RATIO`` tests flag are
    re-formed from their rows.
    """
    stack = np.ascontiguousarray(stack)
    batch, s, r, dof = stack.shape
    gram = {(j, k): np.einsum("brl,brl->bl", stack[:, j], stack[:, k])
            for j in range(s) for k in range(j, s)}
    max_norm = np.sqrt(np.max([gram[j, j].max(axis=1) for j in range(s)], axis=0))[:, None]
    shift = -np.frexp(max_norm)[1]
    np.ldexp(max_norm, shift, out=max_norm)
    for g in gram.values():
        np.ldexp(g, 2 * shift, out=g)
    cut = linalg._zero_cutoff(r, max_norm) ** 2
    piv = np.empty((s, batch, dof))
    cancelled = _ldl_pivots(gram, cut, piv)
    limit = _RECOMPUTE_RATIO * max_norm * np.sqrt(np.maximum(piv, 0.0))
    q = np.zeros((batch, r, 0))
    every = np.arange(batch)
    alive = np.ones((batch, dof), dtype=bool)
    picks = np.empty((batch, sensors), dtype=np.intp)
    gains = np.empty((batch, sensors))
    margins = np.empty((batch, sensors))
    for step in range(sensors):
        stale = alive & (cancelled | ~(piv >= limit).all(axis=0))
        if stale.any():
            members, locs = np.nonzero(stale)
            rfac = np.linalg.qr(_residual(stack, q, members, locs), mode="r")
            np.ldexp(rfac, shift[members, :, None], out=rfac)
            for (j, k), g in gram.items():
                g[members, locs] = np.einsum("mi,mi->m", rfac[:, :, j], rfac[:, :, k])
            piv[:, members, locs] = fresh = np.diagonal(rfac, axis1=1, axis2=2).T ** 2
            limit[:, members, locs] = _RECOMPUTE_RATIO * max_norm[members, 0] * np.sqrt(fresh)
        scores = np.where(alive & (piv > cut).all(axis=0), np.prod(piv, axis=0), 0.0)
        pick = np.argmax(scores, axis=1)
        if not (scores[every, pick] > 0.0).all():
            raise ExhaustionError(f"all remaining locations are degenerate at step {step + 1}",
                                  step=step + 1)
        basis, rfac = np.linalg.qr(_residual(stack, q, every, pick))
        picks[:, step] = pick
        gains[:, step] = np.prod(np.diagonal(rfac, axis1=1, axis2=2) ** 2, axis=1)
        margins[:, step] = piv[:, every, pick].min(axis=0) / cut[:, 0]
        alive[every, pick] = False
        if step + 1 < sensors:
            q = np.concatenate((q, basis), axis=2)
            w = np.ldexp(basis, shift[:, :, None], out=basis).swapaxes(1, 2)[:, None] @ stack
            for (j, k), g in gram.items():
                g -= np.einsum("bml,bml->bl", w[:, j], w[:, k])
            cancelled = _ldl_pivots(gram, cut, piv)
    return picks, gains, margins


def _select_greedy(matrix: np.ndarray, sensors: int, s: int, method: str) -> SensorSelection:
    """``_greedy`` on one candidate (n, r), as its ``SensorSelection``."""
    dof = matrix.shape[0] // s
    picks, gains, margins = _greedy(matrix.reshape(s, dof, -1).transpose(0, 2, 1)[None], sensors)
    return SensorSelection(
        locations=picks[0].tolist(), components=s, dof_per_component=dof, method=method,
        step_gains=tuple(gains[0].tolist()), step_margins=tuple(margins[0].tolist()),
    )


def select_scalar_greedy(candidate, sensors: int) -> SensorSelection:
    """Greedy scalar-measurement selection by largest residual row norm.

    At each step the row of largest squared norm after projecting out the rows
    already chosen is picked, which maximizes the one-step volume gain of the
    selected row set.  Every row is its own location, also for a
    multi-component ``PODBasis``.

    Parameters
    ----------
    candidate : PODBasis or array_like, shape (n, r)
        Candidate matrix; each row is one scalar measurement location.
    sensors : int
        Number of rows to select; at most r.
    """
    modes = candidate.modes if isinstance(candidate, PODBasis) else candidate
    matrix, _, sensors = _candidate_array(modes, sensors, 1)
    return _select_greedy(matrix, sensors, 1, METHOD_SCALAR_GREEDY)


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
    matrix, s, sensors = _candidate_array(candidate, sensors, components)
    return _select_greedy(matrix, sensors, s, METHOD_VECTOR_GREEDY)


def select_random(
    n_locations: int, sensors: int, seed: int, components: int = 1
) -> SensorSelection:
    """Uniform draw of ``sensors`` distinct locations, deterministic per seed."""
    n_locations = linalg.as_count(n_locations, "n_locations")
    sensors = linalg.as_count(sensors, "sensor count")
    if sensors > n_locations:
        raise ValueError(f"cannot draw {sensors} of {n_locations} locations")
    picks = linalg._rng(seed).choice(n_locations, size=sensors, replace=False)
    return SensorSelection(locations=picks.tolist(), components=components,
                           dof_per_component=n_locations, method=METHOD_RANDOM)


# Projected gradient ascent in select_convex: the step cap, the duality-gap tolerance, the
# Armijo constant, the backtracking factor and the smallest trial step.  ln det info is concave,
# so its Frank-Wolfe gap G(z) bounds f(z*) - f(z) (Jaggi, ICML 2013): G <= 1e-4 puts ln det info
# within 1e-4 of the relaxed optimum, and relaxation_objective within 5e-5.
_CONVEX_MAX_ITERS = 2000
_CONVEX_GAP_TOL = 1e-4
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-14


def _project_capped_simplex(x: np.ndarray, total: int) -> np.ndarray:
    """Euclidean projection ``clip(x - tau, 0, 1)`` onto ``{z : 0 <= z <= 1, sum(z) = total}``.

    A binary search over the sorted knots ``x - 1`` and ``x`` finds the segment where ``g(tau)
    = sum(clip(x - tau, 0, 1))`` falls to the integer total, and on it ``tau = (sum(x_free) +
    #ones - total) / #free``.
    """
    knots = np.sort(np.concatenate((x - 1.0, x)))
    lo, hi = 0, knots.size - 1  # g(knots[lo]) > total >= g(knots[hi]), or total = x.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.clip(x - knots[mid], 0.0, 1.0).sum() > total:
            lo = mid
        else:
            hi = mid
    free = (x - 1.0 <= knots[lo]) & (x > knots[lo])
    tau = (x[free].sum() + np.count_nonzero(x - 1.0 > knots[lo]) - total) / np.count_nonzero(free)
    return np.clip(x - tau, 0.0, 1.0)


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
    half = matrix @ np.linalg.inv(chol).T
    return np.einsum("ij,ij->i", half, half).reshape(s, -1).sum(axis=0)


def select_convex(candidate, sensors: int, components: int | None = None) -> SensorSelection:
    """Relax-and-round vector-sensor selection.

    Maximizes ``log det(sum_i z_i A_i^T A_i + ridge)`` over the capped simplex ``z in
    [0, 1]^(n/s), sum z = p`` (``A_i`` the s x r row block of location i; the ridge,
    ``1e-9 ||A||_F^2 / r`` times the identity, keeps it finite while z is spread thin),
    then keeps the p largest entries of z, ties to the lowest index.  The solver is
    projected gradient ascent with the Armijo rule along the projection arc: each step
    tries the unit step first, then halves it.  A trial point costs one exact projection,
    one product ``A^T diag(w) A`` and one Cholesky factorization, in O(n r) memory.  It
    stops at a duality gap ``(sum of the p largest gradient entries) - g.z`` of 1e-4, so
    ``relaxation_objective``, half ``ln det`` in ``score_logdet`` units, is within 5e-5
    of the relaxed optimum.

    Raises
    ------
    ConvexSolverError
        If the gap is above 1e-4 after 2000 steps, or at once when a step's backtracking
        falls below 1e-14.
    """
    matrix, s, sensors = _candidate_array(candidate, sensors, components)
    n, r = matrix.shape
    dof = n // s
    trace_scale = float(np.einsum("ij,ij->", matrix, matrix)) / r
    if trace_scale <= 0.0:
        raise ValueError("candidate matrix is identically zero")
    ridge = 1e-9 * trace_scale * np.eye(r)

    z = np.full(dof, sensors / dof)
    f_curr, chol = _relaxation_logdet(matrix, z, s, ridge)
    # Pass k tests the iterate after k steps by its gap, on the gradient the step would use.
    for steps in range(_CONVEX_MAX_ITERS + 1):
        grad = _relaxation_gradient(matrix, chol, s)
        gap = float(np.partition(grad, dof - sensors)[dof - sensors:].sum() - grad @ z)
        if gap <= _CONVEX_GAP_TOL or steps == _CONVEX_MAX_ITERS:
            break
        t, z_new = 1.0, _project_capped_simplex(z + grad, sensors)
        f_new, chol_new = _relaxation_logdet(matrix, z_new, s, ridge)
        while f_new < f_curr + _ARMIJO_C * float(grad @ (z_new - z)):
            t *= _BACKTRACK
            if t < _MIN_STEP:
                break
            z_new = _project_capped_simplex(z + t * grad, sensors)
            f_new, chol_new = _relaxation_logdet(matrix, z_new, s, ridge)
        if t < _MIN_STEP:
            break
        z, f_curr, chol = z_new, f_new, chol_new
    if gap > _CONVEX_GAP_TOL:
        raise ConvexSolverError(
            f"duality gap {gap:.3e} above tolerance {_CONVEX_GAP_TOL:.1e} "
            f"after {steps} steps{', line search stalled' if t < _MIN_STEP else ''}")

    # Round: keep the p largest weights, ties to the lowest index.
    return SensorSelection(
        locations=np.argsort(-z, kind="stable")[:sensors],
        components=s,
        dof_per_component=dof,
        method=METHOD_CONVEX,
        relaxation_objective=0.5 * f_curr,
    )
