"""Seeded benchmark studies over random candidates and synthetic flow data.

Two studies are provided: a random-candidate benchmark that scores each
selection method by mean log determinant over many trials, and a
reconstruction study that measures the relative amplitude error of each
method on snapshot data under observation noise.

Seeding: every trial uses ``trial_seed = base_seed + trial_index``, and the
independent streams within a trial are derived from it with fixed tags,

* candidate / data draws: ``default_rng(SeedSequence([trial_seed, 0, r]))``
* random-method seed:     ``SeedSequence([trial_seed, 1, r]).generate_state(1)[0]``
* observation-noise seed: ``SeedSequence([trial_seed, 2, r]).generate_state(1)[0]``

so all methods inside one trial see identical data and co-located noise
(paired trials), and reruns with the same config are bit-identical.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .evaluate import (
    build_model,
    observe,
    reconstruct,
    reconstruction_error,
    score_logdet,
)
from .pod import SnapshotMatrix, compute_pod, mode_amplitudes
from .selection import (
    METHOD_SCALAR_GREEDY,
    ConvexOptions,
    SensorSelection,
    select_convex,
    select_random,
    select_scalar_greedy,
    select_vector_greedy,
)

__all__ = [
    "METHOD_FULL_OBSERVATION",
    "ExperimentConfig",
    "ReportCell",
    "ExperimentReport",
    "run_random_benchmark",
    "run_reconstruction_study",
    "generate_synthetic_flow",
]

METHOD_FULL_OBSERVATION = "full-observation"

_DATA_STREAM = 0
_RANDOM_STREAM = 1
_NOISE_STREAM = 2


def _stream_seed(trial_seed: int, tag: int, r: int) -> int:
    return int(np.random.SeedSequence([trial_seed, tag, r]).generate_state(1)[0])


def _data_rng(trial_seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([trial_seed, _DATA_STREAM, r]))


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for both studies.

    ``methods`` may contain ``vector-greedy``, ``random``, ``convex`` and the
    per-component scalar variants ``scalar-greedy-component-K`` (K = 1..s).
    The default covers the vector greedy, every scalar variant and random.
    Each rank in ``r_values`` must be divisible by ``components`` (selection
    budgets are the square case p = r/s).
    """

    r_values: tuple[int, ...]
    base_seed: int
    n_per_component: int = 1000
    components: int = 2
    trials: int = 100
    methods: tuple[str, ...] | None = None
    noise_sigma: float = 0.0
    convex_options: ConvexOptions = field(default_factory=ConvexOptions)

    def __post_init__(self):
        object.__setattr__(self, "r_values", tuple(int(r) for r in self.r_values))
        s = self.components
        if s < 1 or self.n_per_component < 1:
            raise ValueError("components and n_per_component must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be a non-negative integer")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not self.r_values:
            raise ValueError("r_values must be non-empty")
        for r in self.r_values:
            if r < 1 or r % s != 0:
                raise ValueError(f"every r must be a positive multiple of s={s}; got {r}")
            if r // s > self.n_per_component:
                raise ValueError(f"p = {r // s} exceeds {self.n_per_component} locations")
        if self.methods is None:
            default = ["vector-greedy"]
            default += [f"scalar-greedy-component-{k}" for k in range(1, s + 1)]
            default.append("random")
            object.__setattr__(self, "methods", tuple(default))
        else:
            object.__setattr__(self, "methods", tuple(self.methods))
        allowed = {"vector-greedy", "random", "convex"}
        allowed |= {f"scalar-greedy-component-{k}" for k in range(1, s + 1)}
        for name in self.methods:
            if name not in allowed:
                raise ValueError(f"unknown method {name!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must be unique")


@dataclass(frozen=True)
class ReportCell:
    """Aggregate for one (method, rank) combination."""

    method: str
    r: int
    p: int
    mean: float
    std: float
    trials: int
    skipped: int


@dataclass(frozen=True)
class ExperimentReport:
    """Per-cell statistics for one study run."""

    study: str
    metric: str
    cells: tuple[ReportCell, ...]
    base_seed: int
    configured_trials: int
    wall_time_seconds: float

    def cell(self, method: str, r: int) -> ReportCell:
        for c in self.cells:
            if c.method == method and c.r == r:
                return c
        raise KeyError(f"no cell for method={method!r}, r={r}")

    def as_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "study": self.study,
            "metric": self.metric,
            "base_seed": self.base_seed,
            "configured_trials": self.configured_trials,
            "cells": [
                {
                    "method": c.method,
                    "r": c.r,
                    "p": c.p,
                    "mean": c.mean,
                    "std": c.std,
                    "trials": c.trials,
                    "skipped": c.skipped,
                }
                for c in self.cells
            ],
        }
        if include_wall_time:
            out["wall_time_seconds"] = self.wall_time_seconds
        return out

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2)
            handle.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["method", "r", "p", "mean", "std", "trials", "skipped"])
            for c in self.cells:
                writer.writerow(
                    [c.method, c.r, c.p, f"{c.mean:.17g}", f"{c.std:.17g}", c.trials, c.skipped]
                )


def _aggregate(
    study: str,
    metric: str,
    cfg: ExperimentConfig,
    values: dict[tuple[str, int], list[float]],
    method_order: tuple[str, ...],
    elapsed: float,
) -> ExperimentReport:
    cells = []
    for method in method_order:
        for r in cfg.r_values:
            vals = values[(method, r)]
            used = len(vals)
            if used == 0:
                mean, std = float("nan"), float("nan")
            elif used == 1:
                mean, std = float(vals[0]), 0.0
            else:
                mean = float(np.mean(vals))
                std = float(np.std(vals, ddof=1))
            cells.append(
                ReportCell(
                    method=method,
                    r=r,
                    p=r // cfg.components,
                    mean=mean,
                    std=std,
                    trials=used,
                    skipped=cfg.trials - used,
                )
            )
    return ExperimentReport(
        study=study,
        metric=metric,
        cells=tuple(cells),
        base_seed=cfg.base_seed,
        configured_trials=cfg.trials,
        wall_time_seconds=elapsed,
    )


def _scalar_component_index(method: str) -> int | None:
    prefix = "scalar-greedy-component-"
    if method.startswith(prefix):
        return int(method[len(prefix) :])
    return None


def _select_for_benchmark(
    method: str,
    candidate: np.ndarray,
    cfg: ExperimentConfig,
    p: int,
    trial_seed: int,
    r: int,
) -> SensorSelection:
    s = cfg.components
    npc = cfg.n_per_component
    component = _scalar_component_index(method)
    if component is not None:
        # Select on one component block only; the stacked measurement matrix
        # later gathers the co-located rows of every component.  The block's
        # step gains do not multiply to det(C)^2 of that stacked matrix, so
        # none are carried.
        block = candidate[(component - 1) * npc : component * npc]
        scalar = select_scalar_greedy(block, p)
        return SensorSelection(
            locations=scalar.locations,
            components=s,
            dof_per_component=npc,
            method=METHOD_SCALAR_GREEDY,
        )
    if method == "vector-greedy":
        return select_vector_greedy(candidate, p, components=s)
    if method == "random":
        seed = _stream_seed(trial_seed, _RANDOM_STREAM, r)
        return select_random(npc, p, seed=seed, components=s)
    if method == "convex":
        return select_convex(candidate, p, components=s, options=cfg.convex_options)
    raise ValueError(f"unknown method {method!r}")


def run_random_benchmark(cfg: ExperimentConfig) -> ExperimentReport:
    """Score selection methods on Gaussian random candidate matrices.

    Every trial draws a fresh stacked candidate (s blocks of
    ``n_per_component x r`` standard normals), runs each configured method at
    the square budget p = r/s and records ``ln |det C|`` of the stacked
    measurement matrix.  Trials whose measurement matrix is singular count as
    skipped for that cell.
    """
    start = time.perf_counter()
    values: dict[tuple[str, int], list[float]] = {
        (m, r): [] for m in cfg.methods for r in cfg.r_values
    }
    s = cfg.components
    for trial in range(cfg.trials):
        trial_seed = cfg.base_seed + trial
        for r in cfg.r_values:
            rng = _data_rng(trial_seed, r)
            candidate = rng.standard_normal((s * cfg.n_per_component, r))
            p = r // s
            for method in cfg.methods:
                sel = _select_for_benchmark(method, candidate, cfg, p, trial_seed, r)
                value = score_logdet(build_model(candidate, sel))
                if np.isfinite(value):
                    values[(method, r)].append(value)
    return _aggregate(
        "random-benchmark",
        "log_det",
        cfg,
        values,
        cfg.methods,
        time.perf_counter() - start,
    )


def run_reconstruction_study(cfg: ExperimentConfig, data: SnapshotMatrix) -> ExperimentReport:
    """Reconstruction error of each method on snapshot data, per rank.

    For every r a POD basis is computed, each method selects p = r/s
    locations, noisy observations are gathered and amplitudes recovered by
    least squares; the recorded value is the relative amplitude error against
    the full-state projection.  A ``full-observation`` reference row (least
    squares over every grid row) is always included.
    """
    if data.components != cfg.components:
        raise ValueError(
            f"data has {data.components} components, config expects {cfg.components}"
        )
    if data.dof_per_component != cfg.n_per_component:
        raise ValueError(
            f"data has {data.dof_per_component} dof per component, config expects "
            f"{cfg.n_per_component}"
        )
    max_r = max(cfg.r_values)
    if max_r > min(data.n_dof, data.n_snapshots):
        raise ValueError(f"r={max_r} exceeds data dimensions {data.data.shape}")

    start = time.perf_counter()
    method_order = cfg.methods + (METHOD_FULL_OBSERVATION,)
    values: dict[tuple[str, int], list[float]] = {
        (m, r): [] for m in method_order for r in cfg.r_values
    }
    s = cfg.components
    for r in cfg.r_values:
        basis = compute_pod(data, r)
        true_amps = mode_amplitudes(basis, data)
        centered = data.data - basis.mean[:, None]
        p = r // s
        fixed_selections = {
            m: _select_for_benchmark(m, basis.modes, cfg, p, 0, r)
            for m in cfg.methods
            if m != "random"
        }
        for trial in range(cfg.trials):
            trial_seed = cfg.base_seed + trial
            noise_seed = _stream_seed(trial_seed, _NOISE_STREAM, r)
            for method in cfg.methods:
                if method == "random":
                    sel = _select_for_benchmark(method, basis.modes, cfg, p, trial_seed, r)
                else:
                    sel = fixed_selections[method]
                y = observe(basis, sel, data, noise_sigma=cfg.noise_sigma, seed=noise_seed)
                result = reconstruct(build_model(basis, sel), y)
                values[(method, r)].append(
                    reconstruction_error(true_amps, result.amplitudes)
                )
            # Reference: observe every row, fit amplitudes by least squares.
            y_full = centered.copy()
            if cfg.noise_sigma > 0:
                noise = np.random.default_rng(noise_seed).standard_normal(centered.shape)
                y_full = y_full + cfg.noise_sigma * noise
            amps_full, _, _, _ = np.linalg.lstsq(basis.modes, y_full, rcond=None)
            values[(METHOD_FULL_OBSERVATION, r)].append(
                reconstruction_error(true_amps, amps_full)
            )
    return _aggregate(
        "reconstruction",
        "reconstruction_error",
        cfg,
        values,
        method_order,
        time.perf_counter() - start,
    )


def generate_synthetic_flow(
    n_per_component: int,
    components: int,
    true_rank: int,
    n_snapshots: int,
    seed: int,
    noise_sigma: float = 0.0,
) -> SnapshotMatrix:
    """Synthetic snapshot data of known rank.

    Random orthonormal spatial structures (stacked over ``components`` blocks)
    are driven by sinusoidal amplitude series with one distinct frequency per
    mode and geometrically decaying energy, giving a clean singular-value
    ladder.  Distinct sub-Nyquist frequencies need ``n_snapshots`` at least
    ``2 * true_rank + 1``.  Optional Gaussian measurement noise is added on
    top; everything is deterministic given ``seed``.
    """
    n = n_per_component * components
    if n_per_component < 1 or components < 1:
        raise ValueError("n_per_component and components must be >= 1")
    if not 1 <= true_rank <= min(n, n_snapshots):
        raise ValueError(
            f"true_rank {true_rank} out of range for {n} dof and {n_snapshots} snapshots"
        )
    if n_snapshots < 2 * true_rank + 1:
        raise ValueError(
            f"need n_snapshots >= {2 * true_rank + 1} for {true_rank} distinct frequencies"
        )
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    structures, _ = np.linalg.qr(rng.standard_normal((n, true_rank)))
    t = np.arange(n_snapshots)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=true_rank)
    scales = 0.85 ** np.arange(true_rank)
    amplitudes = scales[:, None] * np.sin(
        2.0 * np.pi * np.arange(1, true_rank + 1)[:, None] * t[None, :] / n_snapshots
        + phases[:, None]
    )
    fields = structures @ amplitudes
    if noise_sigma > 0:
        fields = fields + noise_sigma * rng.standard_normal(fields.shape)
    return SnapshotMatrix(fields, components=components)
