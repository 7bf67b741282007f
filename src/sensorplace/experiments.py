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
(paired trials), and reruns with the same config are bit-identical.  The random
benchmark draws ahead on a one-thread executor; the values do not depend on it.
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import linalg
from .evaluate import (
    _check_noise_sigma, _noise_field, build_model, reconstruct, reconstruction_error
)
from .pod import SnapshotMatrix, compute_pod
from .selection import (
    METHOD_CONVEX,
    METHOD_RANDOM,
    METHOD_SCALAR_GREEDY,
    METHODS,
    SensorSelection,
    _greedy,
    select_convex,
    select_random,
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


# Bytes of candidates the random benchmark holds and selects on at once.
# Stacking trials spreads the per-call cost of the greedy kernel; a budget in
# bytes rather than in trials keeps memory bounded for any n and r.  At the
# default config 2 MiB ran fastest of 0.5 to 16 MiB (larger stacks outgrow
# the cache; single candidates pay the per-call cost).
_CHUNK_BYTES = 2**21


def _trial_chunk(rows: int, r: int) -> int:
    """Trials per chunk for candidates of ``rows`` x ``r`` float64 entries."""
    return max(1, _CHUNK_BYTES // (8 * rows * r))


def _study_methods(s: int) -> dict[str, tuple[str, int | None]]:
    """Study method names for s components -> (selector method, component).

    Every selector method is a study method, except that scalar greedy runs
    on one component block at a time as ``scalar-greedy-component-K``.
    """
    table: dict[str, tuple[str, int | None]] = {}
    for method in METHODS:
        if method == METHOD_SCALAR_GREEDY:
            for k in range(1, s + 1):
                table[f"{method}-component-{k}"] = (method, k)
        else:
            table[method] = (method, None)
    return table


def _sequence(value, name: str, items: str) -> tuple:
    """``value`` as a tuple, unless it is a bare string, no iterable at all or empty."""
    if isinstance(value, str) or not isinstance(value, Iterable) or not (out := tuple(value)):
        raise ValueError(f"{name} must be a non-empty sequence of {items}; got {value!r}")
    return out


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

    def __post_init__(self):
        for name, least in (("base_seed", 0), ("n_per_component", 1), ("components", 1),
                            ("trials", 1)):
            object.__setattr__(self, name, linalg.as_count(getattr(self, name), name, least))
        r_values = _sequence(self.r_values, "r_values", "integers")
        object.__setattr__(self, "r_values", tuple(linalg.as_count(r, "r_values entry")
                                                   for r in r_values))
        s = self.components
        _check_noise_sigma(self.noise_sigma)
        for r in self.r_values:
            if r % s != 0:
                raise ValueError(f"every r must be a positive multiple of s={s}; got {r}")
            if r // s > self.n_per_component:
                raise ValueError(f"p = {r // s} exceeds {self.n_per_component} locations")
        table = _study_methods(s)
        if self.methods is None:
            default = tuple(m for m, (base, _) in table.items() if base != METHOD_CONVEX)
            object.__setattr__(self, "methods", default)
        else:
            object.__setattr__(self, "methods", _sequence(self.methods, "methods", "method names"))
        for name in self.methods:
            if name not in table:
                raise ValueError(f"unknown method {name!r}")
        for name in ("r_values", "methods"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"{name} must be unique")


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

    # The field order is the key order of ``as_dict`` and so of the JSON report.
    study: str
    metric: str
    base_seed: int
    configured_trials: int
    cells: tuple[ReportCell, ...]
    wall_time_seconds: float

    def cell(self, method: str, r: int) -> ReportCell:
        for c in self.cells:
            if c.method == method and c.r == r:
                return c
        raise KeyError(f"no cell for method={method!r}, r={r}")

    def as_dict(self, include_wall_time: bool = True) -> dict:
        out = asdict(self)
        if not include_wall_time:
            del out["wall_time_seconds"]
        return out

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2)
            handle.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f.name for f in fields(ReportCell)])
            for c in self.cells:
                writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in astuple(c)])


def _aggregate(
    study: str,
    metric: str,
    cfg: ExperimentConfig,
    values: dict[tuple[str, int], list[float]],
    elapsed: float,
) -> ExperimentReport:
    """One cell per ``(method, r)`` key of ``values``, in its key order."""
    cells = []
    for (method, r), vals in values.items():
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


def _select_chunk(
    methods: tuple[str, ...], stack: np.ndarray, trial_seeds
) -> dict[str, np.ndarray]:
    """Locations per study method on a component-major stack (B, s, r, dof).

    Random gives one row of p picks per trial seed, every other method one row per stack member.
    s, r and dof are read from the stack and the budget is the square p = r/s.  Vector greedy
    runs on the stack as it is and every scalar-greedy component in one more call on its free
    reshape (B*s, 1, r, dof); only convex reads each candidate as (n, r).
    """
    s, r, npc = stack.shape[1:]
    p, table = r // s, _study_methods(s)
    picks: dict[str, np.ndarray] = {}
    components: dict[str, int] = {}
    for method in methods:
        base, component = table[method]
        if base == METHOD_RANDOM:
            seeds = [_stream_seed(seed, _RANDOM_STREAM, r) for seed in trial_seeds]
            picks[method] = np.array([select_random(npc, p, seed).locations for seed in seeds])
        elif base == METHOD_CONVEX:
            picks[method] = np.array([select_convex(c.transpose(0, 2, 1).reshape(-1, r), p, s)
                                      .locations for c in stack])
        elif component is None:
            picks[method] = _greedy(stack, p)[0]
        else:
            components[method] = component - 1
    if components:
        ks = list(components.values())
        scalar = stack if ks == list(range(s)) else stack[:, ks]
        found = _greedy(scalar.reshape(-1, 1, r, npc), p)[0].reshape(len(stack), len(ks), p)
        picks.update(zip(components, found.swapaxes(0, 1)))
    return picks


def run_random_benchmark(cfg: ExperimentConfig) -> ExperimentReport:
    """Score selection methods on Gaussian random candidate matrices.

    Every trial draws a fresh stacked candidate (s blocks of
    ``n_per_component x r`` standard normals), runs each configured method at
    the square budget p = r/s and records ``ln |det C|`` of the stacked
    measurement matrix.  Trials whose measurement matrix is singular count as
    skipped for that cell.  Trials run in chunks of about 2 MiB of
    candidates, each rank's held in one component-major stack: vector greedy
    selects on all of them in one kernel call and every scalar component on
    all of them in one more, and the measurement matrices of every method of
    the chunk are scored in one stacked QR.  While a chunk is selected, a
    one-thread executor draws the next, of any rank; no value depends on the thread.
    """
    start = time.perf_counter()
    values: dict[tuple[str, int], list[float]] = {
        (m, r): [] for m in cfg.methods for r in cfg.r_values
    }
    s, npc = cfg.components, cfg.n_per_component
    jobs = [(r, range(cfg.base_seed + first, cfg.base_seed + min(first + chunk, cfg.trials)))
            for r in cfg.r_values for chunk in [_trial_chunk(s * npc, r)]
            for first in range(0, cfg.trials, chunk)]

    def fill(todo, r: int) -> None:
        draw = np.empty((s * npc, r))
        for member, trial_seed in todo:
            _data_rng(trial_seed, r).standard_normal(out=draw)
            member[...] = draw.reshape(s, npc, r).transpose(0, 2, 1)

    def draw_ahead(r: int, seeds: range):
        stack = np.empty((len(seeds), s, r, npc))  # allocated on this thread
        todo = zip(stack, seeds)  # each trial is drawn by the thread that takes it first
        return stack, todo, worker.submit(fill, todo, r)

    with ThreadPoolExecutor(max_workers=1) as worker:  # leaving the block joins its thread
        ahead, todo, drawn = draw_ahead(*jobs[0])
        for i, (r, seeds) in enumerate(jobs):
            fill(todo, r)  # the trials the worker has not reached
            drawn.result()  # re-raises what the worker raised
            stack = ahead  # frees the previous chunk before the next is allocated
            if i + 1 < len(jobs):
                ahead, todo, drawn = draw_ahead(*jobs[i + 1])
            picks = _select_chunk(cfg.methods, stack, seeds)
            # Row k*s + j of each C is component j at its k-th location, as in ``selected_rows``.
            locs = np.stack(list(picks.values()))
            rows = stack[np.arange(len(seeds))[:, None], :, :, locs]
            scores = linalg.log_row_volume(rows.reshape(*locs.shape[:2], -1, r))
            for method, row in zip(picks, scores):
                values[(method, r)].extend(float(v) for v in row if np.isfinite(v))
    return _aggregate("random-benchmark", "log_det", cfg, values, time.perf_counter() - start)


def run_reconstruction_study(cfg: ExperimentConfig, data: SnapshotMatrix) -> ExperimentReport:
    """Reconstruction error of each method on snapshot data, per rank.

    For every r a POD basis is computed; each fixed method selects p = r/s
    locations and builds its measurement model once, the random method once
    per trial.  Each trial draws one noisy full-grid field, the same one
    ``observe`` would give under the trial's noise seed; every method gathers
    its rows from it and recovers amplitudes with ``reconstruct``.  The value
    is the relative amplitude error against the full-state projection.  The
    ``full-observation`` row projects the same field onto the orthonormal
    modes, which is its least-squares fit over every grid row.
    """
    s, npc = cfg.components, cfg.n_per_component
    if (data.components, data.dof_per_component) != (s, npc):
        raise ValueError(
            f"data has {data.components} components of {data.dof_per_component} dof, "
            f"config expects {s} of {npc}"
        )
    start = time.perf_counter()
    values: dict[tuple[str, int], list[float]] = {
        (m, r): [] for m in cfg.methods + (METHOD_FULL_OBSERVATION,) for r in cfg.r_values
    }
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.trials)
    for r in cfg.r_values:
        basis = compute_pod(data, r)
        centered = data.data - basis.mean[:, None]
        true_amps = basis.modes.T @ centered
        stack = basis.modes.reshape(s, -1, r).transpose(0, 2, 1)[None]
        models = {m: [build_model(basis, SensorSelection(
            tuple(row.tolist()), s, npc, _study_methods(s)[m][0]
        )) for row in locs] for m, locs in _select_chunk(cfg.methods, stack, seeds).items()}
        for trial, trial_seed in enumerate(seeds):
            # Every method and the reference observe this one noisy field.
            y_full = centered
            if cfg.noise_sigma > 0:
                noise_seed = _stream_seed(trial_seed, _NOISE_STREAM, r)
                y_full = centered + cfg.noise_sigma * _noise_field(data, noise_seed)
            for method in cfg.methods:
                model = models[method][trial % len(models[method])]
                result = reconstruct(model, y_full[list(model.selection.selected_rows)])
                values[(method, r)].append(reconstruction_error(true_amps, result.amplitudes))
            # Reference: observe every row; the least-squares fit onto the
            # orthonormal modes is their projection.
            values[(METHOD_FULL_OBSERVATION, r)].append(
                reconstruction_error(true_amps, basis.modes.T @ y_full)
            )
    return _aggregate("reconstruction", "reconstruction_error", cfg, values,
                      time.perf_counter() - start)


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
    names = ("n_per_component", "components", "true_rank", "n_snapshots")
    n_per_component, components, true_rank, n_snapshots = map(
        linalg.as_count, (n_per_component, components, true_rank, n_snapshots), names)
    n = n_per_component * components
    if true_rank > min(n, n_snapshots):
        raise ValueError(
            f"true_rank {true_rank} out of range for {n} dof and {n_snapshots} snapshots"
        )
    if n_snapshots < 2 * true_rank + 1:
        raise ValueError(
            f"need n_snapshots >= {2 * true_rank + 1} for {true_rank} distinct frequencies"
        )
    _check_noise_sigma(noise_sigma)
    rng = linalg._rng(seed)
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
