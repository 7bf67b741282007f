"""Independent oracles for checking sensorplace outputs.

Nothing here imports sensorplace.  Each oracle reaches its answer by a route
apart from the program's own code:

* the closed-form mean of ln|det C| for a square Gaussian C (Bartlett
  decomposition), with the digamma function evaluated exactly at half
  integers;
* per-step greedy optimality from a Householder QR (LAPACK ``geqrf``) of the
  rows already picked, scoring every remaining location by the determinant of
  its s x s residual Gram matrix;
* exact Gram determinants in rational arithmetic (``fractions.Fraction``
  scaled to integers, Bareiss elimination) for small candidates;
* stacked-row gathering and log-determinants by plain NumPy.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EULER_GAMMA = 0.57721566490153286061


def digamma_half_integer(k: int) -> float:
    """psi(k / 2) for a positive integer k, by psi(x + 1) = psi(x) + 1/x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2 == 0:
        x, value = 1.0, -EULER_GAMMA
    else:
        x, value = 0.5, -EULER_GAMMA - 2.0 * math.log(2.0)
    while x < k / 2:
        value += 1.0 / x
        x += 1.0
    return value


def expected_log_abs_det_gaussian(r: int) -> float:
    """E ln|det C| for an r x r matrix of independent standard normals.

    |det C|^2 is a product of independent chi-square variables with r, r-1,
    ..., 1 degrees of freedom, and E ln chi2_k = psi(k/2) + ln 2.
    """
    return 0.5 * sum(digamma_half_integer(k) + math.log(2.0) for k in range(1, r + 1))


def stacked_rows(locations, dof: int, components: int) -> list[int]:
    """Row indices in selection order: location-major, component-minor."""
    return [int(loc) + dof * j for loc in locations for j in range(components)]


def residual_gains(candidate: np.ndarray, picked, components: int) -> np.ndarray:
    """One-step gain of every location given the locations already picked.

    The gain of location i is det(R_i R_i^T), where R_i holds the s rows of
    location i after projecting out the span of the picked rows.  That span
    comes from a Householder QR of the picked rows.  Picked locations score
    -inf.
    """
    n, r = candidate.shape
    s = components
    dof = n // s
    picked = [int(p) for p in picked]
    if picked:
        q, _ = np.linalg.qr(candidate[stacked_rows(picked, dof, s)].T)
        resid = candidate - (candidate @ q) @ q.T
    else:
        resid = candidate
    blocks = resid.reshape(s, dof, r).transpose(1, 0, 2)
    gains = np.linalg.det(blocks @ blocks.transpose(0, 2, 1))
    gains[picked] = -np.inf
    return gains


def greedy_step_shortfall(candidate: np.ndarray, locations, components: int) -> float:
    """Largest relative shortfall of a greedy pick below the one-step maximum.

    0 means every pick attained the maximum gain over the remaining
    locations; the caller compares the result against its tolerance.
    """
    worst = 0.0
    for k, loc in enumerate(locations):
        gains = residual_gains(candidate, locations[:k], components)
        best = float(gains.max())
        if not best > 0.0:
            return math.inf
        worst = max(worst, (best - float(gains[int(loc)])) / best)
    return worst


def _integer_matrix(rows: np.ndarray) -> list[list[int]]:
    """The float rows scaled by one power of two into exact integers."""
    fractions = [[Fraction(float(x)) for x in row] for row in rows]
    scale = max(f.denominator for row in fractions for f in row)
    return [[int(f * scale) for f in row] for row in fractions]


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def exact_step_violations(
    candidate: np.ndarray, locations, components: int, rtol: Fraction = Fraction(1, 10**9)
) -> list[str]:
    """Greedy picks that miss the exact one-step maximum by more than ``rtol``.

    At step k every remaining location i is scored by the exact determinant
    of the Gram matrix of the rows picked so far plus the rows of i.  All
    candidates at one step share the integer scaling, so their exact
    determinants compare directly.
    """
    n, _ = candidate.shape
    s = components
    dof = n // s
    ints = _integer_matrix(candidate)
    problems = []
    for k, loc in enumerate(locations):
        base = stacked_rows(locations[:k], dof, s)
        dets = {}
        for i in range(dof):
            if i in locations[:k]:
                continue
            rows = [ints[j] for j in base + stacked_rows([i], dof, s)]
            gram = [[sum(a * b for a, b in zip(x, y)) for y in rows] for x in rows]
            dets[i] = _bareiss_det(gram)
        best = max(dets.values())
        if best <= 0:
            problems.append(f"step {k + 1}: every remaining location is exactly degenerate")
        elif Fraction(dets[int(loc)], best) < 1 - rtol:
            problems.append(
                f"step {k + 1}: picked {loc}, exact maximum at "
                f"{max(dets, key=dets.get)} (ratio {float(Fraction(dets[int(loc)], best)):.6g})"
            )
    return problems


def log_abs_det_rows(matrix: np.ndarray, rows) -> float:
    """ln|det| of the square matrix gathered from ``rows`` of ``matrix``."""
    sign, value = np.linalg.slogdet(matrix[list(rows)])
    return float(value) if sign != 0 else -math.inf


def mean_random_log_abs_det(
    modes: np.ndarray, components: int, sensors: int, draws: int, rng: np.random.Generator
) -> float:
    """Mean ln|det C| over uniformly drawn placements of ``sensors`` locations."""
    n, r = modes.shape
    dof = n // components
    locs = np.stack([rng.choice(dof, size=sensors, replace=False) for _ in range(draws)])
    rows = (locs[:, :, None] + dof * np.arange(components)[None, None, :]).reshape(draws, -1)
    sign, value = np.linalg.slogdet(modes[rows])
    return float(np.mean(np.where(sign != 0, value, -np.inf)))
