"""Independent brute-force oracles the tests check library results against.

Everything here deliberately avoids the library's own code paths: determinants
by cofactor expansion, greedy step optimality by exhaustive enumeration over
remaining candidates in floating point, whole greedy runs by re-projecting
every location from scratch at every step, the capped-simplex projection by
100 bisection passes, the convex relaxation's optimum by SciPy's SLSQP on
explicit per-location Grams, CSV files by plain line-by-line parsing, and the
random-candidate study by its plain per-trial loop over the public selectors.
Exact greedy step optimality (fraction-free Bareiss elimination of integer
Gram matrices) is the benchmark's oracle, ``exact_step_violations`` of
``bench/oracles.py``, which imports nothing from the library.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy.optimize


def load_bench_module(name: str):
    """``bench/<name>.py`` loaded by path and registered as module ``bench_<name>``.

    ``bench/`` and ``tests/`` each hold an ``oracles`` module, so a plain import
    would pick whichever comes first on ``sys.path``.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


exact_step_violations = load_bench_module("oracles").exact_step_violations


def det_cofactor(a: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion (fine up to ~7x7)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    assert a.shape == (n, n)
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    sub = np.delete(a, 0, axis=0)
    for j in range(n):
        minor = np.delete(sub, j, axis=1)
        total += ((-1.0) ** j) * float(a[0, j]) * det_cofactor(minor)
    return total


def location_rows(location: int, dof: int, components: int) -> list[int]:
    return [location + dof * j for j in range(components)]


def gram_det_gain(
    candidate: np.ndarray,
    selected_locations: list[int],
    new_location: int,
    components: int,
) -> float:
    """det(M M^T) for the rows of the already-selected locations plus one more.

    Rows are taken from the original candidate matrix, so this is the exact
    hypervolume-squared objective a greedy step is supposed to maximize.
    """
    dof = candidate.shape[0] // components
    rows: list[int] = []
    for loc in selected_locations:
        rows += location_rows(loc, dof, components)
    rows += location_rows(new_location, dof, components)
    m = candidate[rows]
    return float(np.linalg.det(m @ m.T))


def exhaustive_step_argmax(
    candidate: np.ndarray,
    selected_locations: list[int],
    components: int,
) -> tuple[int, float]:
    """Best next location by exhaustive search, ties to the lowest index."""
    dof = candidate.shape[0] // components
    best_loc, best_val = -1, -np.inf
    for loc in range(dof):
        if loc in selected_locations:
            continue
        val = gram_det_gain(candidate, selected_locations, loc, components)
        if val > best_val:
            best_loc, best_val = loc, val
    return best_loc, best_val


def explicit_greedy(candidate: np.ndarray, sensors: int, components: int, rtol: float):
    """Reference greedy that re-projects every live location from scratch each step.

    The rows picked so far get an orthonormal basis from one QR of their
    transpose.  Each unpicked location's rows are projected twice onto its
    complement and orthogonalized in component order by Gram-Schmidt; the
    score is the product of their squared norms, or 0 once one of them is at
    or below ``(rtol * r * eps * largest row norm)^2`` or the smallest singular
    value of the projected rows is at or below ``r * eps * largest row norm``
    (the rows are dependent among themselves).  Ties go to the lowest
    index.  Returns ``(locations, gains, step)``, where ``step`` is the 1-based
    step at which every live location scored 0 (the selection stops there),
    or None.
    """
    a = np.asarray(candidate, dtype=np.float64)
    n, r = a.shape
    dof = n // components
    cutoff_sq = (rtol * r * np.finfo(np.float64).eps * np.linalg.norm(a, axis=1).max()) ** 2
    locations: list[int] = []
    gains: list[float] = []
    for step in range(1, sensors + 1):
        picked = [row for loc in locations for row in location_rows(loc, dof, components)]
        basis = np.linalg.qr(a[picked].T)[0] if picked else np.zeros((r, 0))
        best_loc, best = -1, 0.0
        for loc in range(dof):
            if loc in locations:
                continue
            x = a[location_rows(loc, dof, components)].T.copy()
            for _ in range(2):
                x -= basis @ (basis.T @ x)
            if np.linalg.svd(x, compute_uv=False)[-1] <= cutoff_sq ** 0.5 / rtol:
                continue
            score = 1.0
            for j in range(components):
                for i in range(j):
                    x[:, j] -= (x[:, i] @ x[:, j]) / (x[:, i] @ x[:, i]) * x[:, i]
                norm_sq = float(x[:, j] @ x[:, j])
                if norm_sq <= cutoff_sq:
                    score = 0.0
                    break
                score *= norm_sq
            if score > best:
                best_loc, best = loc, score
        if best_loc < 0:
            return locations, gains, step
        locations.append(best_loc)
        gains.append(best)
    return locations, gains, None


def bisect_capped_simplex(x: np.ndarray, total: float) -> np.ndarray:
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


def slsqp_relaxation(candidate: np.ndarray, sensors: int, components: int) -> float:
    """Half ``ln det`` at SLSQP's optimum of the ridged log-det relaxation ``select_convex`` solves.

    Maximizes ``ln det(sum_i z_i G_i + ridge)``, ``G_i = A_i^T A_i`` formed per location,
    over ``0 <= z <= 1, sum z = p`` with the analytic gradient ``tr(info^-1 G_i)``.
    """
    n, r = candidate.shape
    dof = n // components
    ridge = 1e-9 * np.sum(candidate**2) / r * np.eye(r)
    blocks = [candidate[location_rows(i, dof, components)] for i in range(dof)]
    grams = np.array([block.T @ block for block in blocks])

    def negative(z):
        info = np.tensordot(z, grams, 1) + ridge
        sign, value = np.linalg.slogdet(info)
        assert sign > 0
        return -value, -np.einsum("jk,ikj->i", np.linalg.inv(info), grams)

    result = scipy.optimize.minimize(
        negative, np.full(dof, sensors / dof), jac=True, method="SLSQP",
        bounds=[(0.0, 1.0)] * dof,
        constraints=[{"type": "eq", "fun": lambda z: z.sum() - sensors,
                      "jac": lambda z: np.ones(dof)}],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert result.success, result.message
    return -0.5 * result.fun


def read_matrix_lines(path, header: bool = False):
    """Reference CSV matrix reader: the plain line-by-line parser.

    Returns ``("ok", array)`` or ``("error", line, column, message)`` where
    ``message`` is the text a ``fileio.ParseError`` carries before its
    ``(line ...)`` suffix.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = list(handle)
    start = 1 if header else 0
    rows = []
    for lineno in range(start + 1, len(lines) + 1):
        text = lines[lineno - 1].strip()
        if text == "":
            continue
        tokens = text.split(",")
        if rows and len(tokens) != len(rows[0]):
            return ("error", lineno, None, f"expected {len(rows[0])} fields, found {len(tokens)}")
        values = []
        for colno in range(1, len(tokens) + 1):
            token = tokens[colno - 1]
            try:
                # An ASCII decimal: float() alone also takes "_" and non-ASCII digits.
                if any(c == "_" or (ord(c) > 127 and not c.isspace()) for c in token):
                    raise ValueError(token)
                value = float(token)
            except ValueError:
                return ("error", lineno, colno, f"field {token!r} is not a number")
            if value != value or value in (float("inf"), float("-inf")):
                return ("error", lineno, colno, f"field {token!r} is not finite")
            values.append(value)
        rows.append(values)
    if not rows:
        return ("error", 1, None, "file contains no data rows")
    return ("ok", np.array(rows, dtype=np.float64))


def write_matrix_lines(path, matrix) -> None:
    """Reference CSV matrix writer: one f-string per element, one row per line."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as handle:
        for row in m:
            handle.write(",".join(f"{x:.17g}" for x in row) + "\n")


def random_benchmark_cells(cfg) -> dict:
    """Reference random-candidate study: one trial, rank and method at a time.

    Follows the documented seed rule, selects through the public selectors and
    scores with ``np.linalg.slogdet``.  Returns ``{(method, r): (trials,
    skipped, mean, std)}`` for an ``ExperimentConfig``.
    """
    from sensorplace import (
        select_convex,
        select_random,
        select_scalar_greedy,
        select_vector_greedy,
    )

    s, npc = cfg.components, cfg.n_per_component
    values = {(m, r): [] for m in cfg.methods for r in cfg.r_values}
    for trial in range(cfg.trials):
        trial_seed = cfg.base_seed + trial
        for r in cfg.r_values:
            rng = np.random.default_rng(np.random.SeedSequence([trial_seed, 0, r]))
            candidate = rng.standard_normal((s * npc, r))
            p = r // s
            for method in cfg.methods:
                if method == "vector-greedy":
                    locations = select_vector_greedy(candidate, p, components=s).locations
                elif method == "random":
                    seed = int(np.random.SeedSequence([trial_seed, 1, r]).generate_state(1)[0])
                    locations = select_random(npc, p, seed=seed).locations
                elif method == "convex":
                    locations = select_convex(candidate, p, components=s).locations
                else:
                    k = int(method.rsplit("-", 1)[1])
                    block = candidate[(k - 1) * npc : k * npc]
                    locations = select_scalar_greedy(block, p).locations
                rows = [loc + npc * j for loc in locations for j in range(s)]
                sign, logdet = np.linalg.slogdet(candidate[rows])
                if sign != 0 and np.isfinite(logdet):
                    values[(method, r)].append(logdet)
    cells = {}
    for key, vals in values.items():
        mean = float(np.mean(vals)) if vals else float("nan")
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        cells[key] = (len(vals), cfg.trials - len(vals), mean, std)
    return cells


def reconstruction_study_cells(cfg, data) -> dict:
    """Reference reconstruction study: one rank, method and trial at a time.

    Follows the documented seed rule, selects through the public selectors,
    observes through ``observe`` (one full-grid noise draw per method and
    trial), recovers through ``reconstruct`` and fits the full-observation
    reference by ``np.linalg.lstsq``.  Returns ``{(method, r): (trials,
    skipped, mean, std)}`` for an ``ExperimentConfig`` and its snapshot data.
    """
    from sensorplace import (
        METHOD_FULL_OBSERVATION,
        SensorSelection,
        build_model,
        compute_pod,
        mode_amplitudes,
        observe,
        reconstruct,
        reconstruction_error,
        select_convex,
        select_random,
        select_scalar_greedy,
        select_vector_greedy,
    )

    s, npc, sigma = cfg.components, cfg.n_per_component, cfg.noise_sigma
    values = {}
    for r in cfg.r_values:
        basis = compute_pod(data, r)
        truth = mode_amplitudes(basis, data)
        p = r // s

        def noise_seed(trial):
            tags = [cfg.base_seed + trial, 2, r]
            return int(np.random.SeedSequence(tags).generate_state(1)[0])

        for method in cfg.methods:
            errors = values[(method, r)] = []
            for trial in range(cfg.trials):
                if method == "vector-greedy":
                    sel = select_vector_greedy(basis, p)
                elif method == "random":
                    tags = [cfg.base_seed + trial, 1, r]
                    seed = int(np.random.SeedSequence(tags).generate_state(1)[0])
                    sel = select_random(npc, p, seed=seed, components=s)
                elif method == "convex":
                    sel = select_convex(basis, p)
                else:
                    k = int(method.rsplit("-", 1)[1])
                    block = basis.modes[(k - 1) * npc : k * npc]
                    sel = SensorSelection(
                        locations=select_scalar_greedy(block, p).locations,
                        components=s,
                        dof_per_component=npc,
                        method="scalar-greedy",
                    )
                y = observe(basis, sel, data, noise_sigma=sigma, seed=noise_seed(trial))
                amplitudes = reconstruct(build_model(basis, sel), y).amplitudes
                errors.append(reconstruction_error(truth, amplitudes))
        errors = values[(METHOD_FULL_OBSERVATION, r)] = []
        for trial in range(cfg.trials):
            y = data.data - basis.mean[:, None]
            if sigma > 0:
                y = y + sigma * np.random.default_rng(noise_seed(trial)).standard_normal(y.shape)
            amplitudes = np.linalg.lstsq(basis.modes, y, rcond=None)[0]
            errors.append(reconstruction_error(truth, amplitudes))
    cells = {}
    for key, vals in values.items():
        mean = float(np.mean(vals))
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        cells[key] = (len(vals), cfg.trials - len(vals), mean, std)
    return cells
