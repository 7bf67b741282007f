import math
import threading
import tracemalloc

import numpy as np
import pytest

from sensorplace import experiments
from sensorplace.evaluate import build_model
from sensorplace.experiments import (
    METHOD_FULL_OBSERVATION,
    ExperimentConfig,
    generate_synthetic_flow,
    run_random_benchmark,
    run_reconstruction_study,
)
from sensorplace.pod import compute_pod

from oracles import random_benchmark_cells, reconstruction_study_cells


class TestExperimentConfig:
    def test_defaults_cover_all_scalar_components(self):
        cfg = ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                               n_per_component=10, trials=1)
        assert cfg.methods == (
            "vector-greedy",
            "scalar-greedy-component-1",
            "scalar-greedy-component-2",
            "random",
        )

    def test_r_must_be_multiple_of_components(self):
        with pytest.raises(ValueError):
            ExperimentConfig(r_values=(5,), base_seed=1, components=2,
                             n_per_component=10, trials=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                             n_per_component=10, trials=1,
                             methods=("vector-greedy", "qr-pivot"))

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                             n_per_component=10, trials=1, methods=())

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="methods must be unique"):
            ExperimentConfig(r_values=(4,), base_seed=1, components=2, n_per_component=10,
                             trials=1, methods=("random", "random"))

    @pytest.mark.parametrize("r_values", [(4, 4), (4, 2, 4.0)])
    def test_repeated_rank_rejected(self, r_values):
        # a repeated rank would replay the same seeded draws into one cell
        with pytest.raises(ValueError, match="r_values must be unique"):
            ExperimentConfig(r_values=r_values, base_seed=1, components=2, n_per_component=50,
                             trials=5)

    def test_empty_r_values_rejected(self):
        with pytest.raises(ValueError, match="r_values must be a non-empty sequence"):
            ExperimentConfig(r_values=(), base_seed=1, components=2, n_per_component=10,
                             trials=1)

    def test_r_values_that_is_no_sequence_raises_value_error(self):
        with pytest.raises(ValueError, match="r_values must be a non-empty sequence of integers"):
            ExperimentConfig(r_values=4, base_seed=1, components=2, n_per_component=10,
                             trials=1)

    def test_bare_method_string_rejected(self):
        with pytest.raises(ValueError,
                           match="methods must be a non-empty sequence of method names"):
            ExperimentConfig(r_values=(4,), base_seed=1, components=2, n_per_component=10,
                             trials=1, methods="random")

    def test_scalar_component_index_bounded_by_components(self):
        with pytest.raises(ValueError):
            ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                             n_per_component=10, trials=1,
                             methods=("scalar-greedy-component-3",))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(r_values=(4,), base_seed=-1, components=2,
                             n_per_component=10, trials=1)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_noise_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                             n_per_component=10, trials=1, noise_sigma=sigma)
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            generate_synthetic_flow(10, 2, true_rank=4, n_snapshots=12, seed=1,
                                    noise_sigma=sigma)

    def test_budget_exceeding_locations_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(r_values=(8,), base_seed=1, components=2,
                             n_per_component=3, trials=1)

    @pytest.mark.parametrize("override", [
        dict(r_values=(2.7,)),
        dict(r_values=("4",)),
        dict(r_values=(True, 4)),
        dict(n_per_component=10.5),
        dict(base_seed=1.5),
        dict(components=2.0000001),
        dict(trials=True),
    ], ids=["r-fraction", "r-string", "r-bool", "n-fraction", "seed-fraction",
            "s-fraction", "trials-bool"])
    def test_non_integers_rejected(self, override):
        kwargs = dict(r_values=(4,), base_seed=1, components=2, n_per_component=10, trials=1)
        kwargs.update(override)
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig(**kwargs)

    def test_integral_floats_and_numpy_integers_become_ints(self, tmp_path):
        cfg = ExperimentConfig(r_values=(np.int64(2), 4.0), base_seed=np.uint32(3),
                               components=np.int8(2), n_per_component=10.0, trials=np.int64(2))
        assert cfg.r_values == (2, 4)
        whole = (cfg.base_seed, cfg.components, cfg.n_per_component, cfg.trials, *cfg.r_values)
        assert all(type(v) is int for v in whole)
        run_random_benchmark(cfg).write_json(tmp_path / "report.json")


def small_benchmark_config(**overrides):
    kwargs = dict(r_values=(2, 4), base_seed=7, components=2,
                  n_per_component=25, trials=8)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRandomBenchmark:
    def test_deterministic_reports(self):
        cfg = small_benchmark_config()
        a = run_random_benchmark(cfg)
        b = run_random_benchmark(cfg)
        assert a.as_dict(include_wall_time=False) == b.as_dict(include_wall_time=False)

    def test_single_step_greedy_beats_random_mean(self):
        # p = 1 greedy is globally optimal per step, so its mean dominates
        cfg = ExperimentConfig(r_values=(2,), base_seed=3, components=2,
                               n_per_component=20, trials=30,
                               methods=("vector-greedy", "random"))
        report = run_random_benchmark(cfg)
        assert report.cell("vector-greedy", 2).mean >= report.cell("random", 2).mean

    def test_skip_accounting(self):
        cfg = small_benchmark_config()
        report = run_random_benchmark(cfg)
        for cell in report.cells:
            assert cell.trials + cell.skipped == cfg.trials

    def test_cell_with_every_trial_skipped_reports_nan(self, monkeypatch):
        # All-zero candidates: every random placement is singular and skipped.
        class Zeros:
            def standard_normal(self, out):
                out[...] = 0.0

        monkeypatch.setattr(experiments, "_data_rng", lambda trial_seed, r: Zeros())
        cfg = small_benchmark_config(r_values=(2,), trials=3, methods=("random",))
        cell = run_random_benchmark(cfg).cell("random", 2)
        assert (cell.trials, cell.skipped) == (0, 3)
        assert math.isnan(cell.mean) and math.isnan(cell.std)

    def test_one_cell_per_method_and_rank(self):
        cfg = small_benchmark_config(trials=1)
        report = run_random_benchmark(cfg)
        assert len(report.cells) == len(cfg.methods) * len(cfg.r_values)
        assert report.cell("random", 4).std == 0.0

    def test_one_non_converging_convex_solve_does_not_abort_the_study(self):
        cfg = ExperimentConfig(r_values=(3, 6), base_seed=7, n_per_component=30, components=3,
                               trials=19, methods=("vector-greedy", "random", "convex"))
        report = run_random_benchmark(cfg)
        assert [cell.trials + cell.skipped for cell in report.cells] == [19] * 6

    def test_convex_method_runs(self):
        cfg = ExperimentConfig(r_values=(4,), base_seed=11, components=2,
                               n_per_component=12, trials=2,
                               methods=("vector-greedy", "convex", "random"))
        report = run_random_benchmark(cfg)
        assert np.isfinite(report.cell("convex", 4).mean)

    @pytest.mark.parametrize("chunk_trials", [None, 3])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(trials=19),
            dict(components=3, r_values=(3, 6, 9), trials=5),
            dict(r_values=(4, 6), n_per_component=12, trials=3,
                 methods=("convex", "vector-greedy", "random")),
            dict(components=1, r_values=(1, 5), trials=8),
            # Out-of-order methods: each stacked scalar block maps back to its own name.
            dict(methods=("scalar-greedy-component-2", "random", "scalar-greedy-component-1")),
            dict(components=3, r_values=(3, 6),
                 methods=("scalar-greedy-component-3", "vector-greedy")),
        ],
    )
    def test_matches_per_trial_reference(self, overrides, chunk_trials, monkeypatch):
        # The study batches trials and scores by one stacked QR; the reference
        # runs the plain per-trial loop through the public selectors.  With
        # chunk_trials set, the byte budget holds that many candidates of the
        # largest rank, so trial counts that are not a multiple of it end in
        # a short chunk.
        cfg = small_benchmark_config(**overrides)
        if chunk_trials is not None:
            n = cfg.components * cfg.n_per_component
            budget = chunk_trials * 8 * n * max(cfg.r_values)
            monkeypatch.setattr(experiments, "_CHUNK_BYTES", budget)
            assert experiments._trial_chunk(n, max(cfg.r_values)) == chunk_trials
        report = run_random_benchmark(cfg)
        expected = random_benchmark_cells(cfg)
        assert len(report.cells) == len(expected)
        for cell in report.cells:
            trials, skipped, mean, std = expected[(cell.method, cell.r)]
            assert (cell.trials, cell.skipped) == (trials, skipped)
            assert cell.mean == pytest.approx(mean, rel=1e-12), (cell.method, cell.r)
            assert cell.std == pytest.approx(std, rel=1e-9), (cell.method, cell.r)


    @pytest.mark.parametrize("fail_in", [None, "draw", "select"])
    def test_failure_in_a_later_chunk_is_raised_and_no_thread_outlives_the_call(
        self, fail_in, monkeypatch
    ):
        # Five chunks over two ranks; the worker draws the next chunk while one
        # is selected.  A failure while drawing the last chunk (on whichever
        # thread draws that trial) or while selecting the second is raised here,
        # and the worker is joined on every exit path.
        cfg = small_benchmark_config()
        monkeypatch.setattr(experiments, "_CHUNK_BYTES", 3 * 8 * 50 * 4)

        class Planted(RuntimeError):
            pass

        data_rng, select_chunk, selected = experiments._data_rng, experiments._select_chunk, []

        def failing_data_rng(trial_seed, r):
            if fail_in == "draw" and (trial_seed, r) == (cfg.base_seed + 7, 4):
                raise Planted
            return data_rng(trial_seed, r)

        def failing_select_chunk(*args):
            selected.append(args[1].shape[2])
            if fail_in == "select" and len(selected) == 2:
                raise Planted
            return select_chunk(*args)

        monkeypatch.setattr(experiments, "_data_rng", failing_data_rng)
        monkeypatch.setattr(experiments, "_select_chunk", failing_select_chunk)
        threads = threading.active_count()
        if fail_in is None:
            run_random_benchmark(cfg)
            assert selected == [2, 2, 4, 4, 4]
        else:
            with pytest.raises(Planted):
                run_random_benchmark(cfg)
            assert len(selected) == (2 if fail_in == "select" else 4)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("r, n_per_component, trials", [(10, 1000, 13), (8, 4000, 4),
                                                             (20, 2000, 5), (10, 1000, 26)])
    def test_peak_memory_stays_near_one_chunk(self, r, n_per_component, trials):
        # The study holds the chunk being selected plus the one being drawn, and
        # selects in place: no transposed copy of a chunk and no stacked copy of
        # its component blocks.  The warm-up call keeps one-time allocations out
        # of the peak.
        cfg = ExperimentConfig(r_values=(r,), base_seed=3, n_per_component=n_per_component,
                               components=2, trials=trials)
        n = cfg.components * n_per_component
        chunk_bytes = min(experiments._trial_chunk(n, r), trials) * n * r * 8
        run_random_benchmark(cfg)
        tracemalloc.start()
        try:
            run_random_benchmark(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * chunk_bytes

class TestSyntheticFlow:
    def test_numerical_rank(self):
        data = generate_synthetic_flow(20, 2, true_rank=5, n_snapshots=24, seed=1)
        sigma = np.linalg.svd(data.data, compute_uv=False)
        assert sigma[5] <= 1e-10 * sigma[0]
        assert sigma[4] > 1e-6 * sigma[0]

    def test_deterministic(self):
        a = generate_synthetic_flow(15, 2, true_rank=4, n_snapshots=20, seed=9)
        b = generate_synthetic_flow(15, 2, true_rank=4, n_snapshots=20, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_pod_captures_all_energy_at_true_rank(self):
        data = generate_synthetic_flow(25, 2, true_rank=6, n_snapshots=30, seed=2)
        basis = compute_pod(data, 6)
        total = np.sum(np.linalg.svd(
            data.data - data.data.mean(axis=1, keepdims=True), compute_uv=False) ** 2)
        captured = np.sum(basis.singular_values ** 2)
        assert captured / total >= 1.0 - 1e-12

    def test_impossible_rank_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_flow(4, 1, true_rank=5, n_snapshots=30, seed=0)

    def test_too_few_snapshots_for_distinct_frequencies(self):
        with pytest.raises(ValueError):
            generate_synthetic_flow(30, 1, true_rank=8, n_snapshots=10, seed=0)

    def test_none_seed_rejected(self):
        # numpy would seed itself from OS entropy, so two calls could differ.
        with pytest.raises(ValueError, match="a seed is required"):
            generate_synthetic_flow(10, 2, true_rank=3, n_snapshots=12, seed=None)

    def test_noise_perturbs_but_preserves_shape(self):
        clean = generate_synthetic_flow(10, 2, true_rank=3, n_snapshots=12, seed=5)
        noisy = generate_synthetic_flow(10, 2, true_rank=3, n_snapshots=12, seed=5,
                                        noise_sigma=0.1)
        assert clean.data.shape == noisy.data.shape
        assert not np.array_equal(clean.data, noisy.data)


class TestReconstructionStudy:
    def test_noiseless_vector_greedy_is_exact(self):
        data = generate_synthetic_flow(30, 2, true_rank=8, n_snapshots=40, seed=13)
        cfg = ExperimentConfig(r_values=(4, 8), base_seed=1, components=2,
                               n_per_component=30, trials=1,
                               methods=("vector-greedy",))
        report = run_reconstruction_study(cfg, data)
        assert report.cell("vector-greedy", 8).mean <= 1e-8

    def test_full_observation_row_present(self):
        data = generate_synthetic_flow(30, 2, true_rank=8, n_snapshots=40, seed=14)
        cfg = ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                               n_per_component=30, trials=2,
                               methods=("vector-greedy", "random"), noise_sigma=0.05)
        report = run_reconstruction_study(cfg, data)
        cell = report.cell(METHOD_FULL_OBSERVATION, 4)
        assert cell.trials == 2
        assert np.isfinite(cell.mean)

    def test_deterministic(self):
        data = generate_synthetic_flow(30, 2, true_rank=8, n_snapshots=40, seed=15)
        cfg = ExperimentConfig(r_values=(4, 8), base_seed=21, components=2,
                               n_per_component=30, trials=3,
                               methods=("vector-greedy", "random"), noise_sigma=0.02)
        a = run_reconstruction_study(cfg, data)
        b = run_reconstruction_study(cfg, data)
        assert a.as_dict(include_wall_time=False) == b.as_dict(include_wall_time=False)

    @pytest.mark.parametrize("s, r_values, methods", [
        (2, (4, 8), ("vector-greedy", "scalar-greedy-component-2", "random", "convex")),
        (3, (6,), ("convex", "scalar-greedy-component-1", "scalar-greedy-component-3",
                   "random", "vector-greedy")),
    ])
    def test_matches_per_method_reference(self, s, r_values, methods):
        # The study draws one noise field per trial and rank for all methods;
        # the reference observes through the public observe, one method at a
        # time.  Both give each element the same centered value plus noise.
        # The study's full-observation fit is the projection onto the
        # orthonormal modes, the reference's is lstsq: equal up to rounding.
        data = generate_synthetic_flow(40, s, true_rank=10, n_snapshots=30, seed=17,
                                       noise_sigma=0.01)
        cfg = ExperimentConfig(r_values=r_values, base_seed=31, components=s,
                               n_per_component=40, trials=3, methods=methods,
                               noise_sigma=0.05)
        report = run_reconstruction_study(cfg, data)
        expected = reconstruction_study_cells(cfg, data)
        assert len(report.cells) == len(expected)
        for cell in report.cells:
            key = (cell.method, cell.r)
            trials, skipped, mean, std = expected[key]
            if cell.method != METHOD_FULL_OBSERVATION:
                assert (cell.trials, cell.skipped, cell.mean, cell.std) == expected[key], key
                continue
            assert (cell.trials, cell.skipped) == (trials, skipped), key
            assert cell.mean == pytest.approx(mean, rel=1e-12), key
            assert cell.std == pytest.approx(std, rel=1e-9), key

    def test_builds_each_fixed_model_once_per_rank(self, monkeypatch):
        # One model per fixed method and r, one per random trial and r.
        built = []

        def counting_build_model(candidate, selection):
            built.append(selection.method)
            return build_model(candidate, selection)

        monkeypatch.setattr(experiments, "build_model", counting_build_model)
        data = generate_synthetic_flow(30, 2, true_rank=8, n_snapshots=40, seed=18)
        cfg = ExperimentConfig(r_values=(4, 6), base_seed=5, components=2,
                               n_per_component=30, trials=4, noise_sigma=0.05,
                               methods=("vector-greedy", "random", "convex",
                                        "scalar-greedy-component-2"))
        run_reconstruction_study(cfg, data)
        assert sorted(built) == sorted(
            ["vector-greedy", "convex", "scalar-greedy"] * 2 + ["random"] * 4 * 2
        )

    def test_rank_above_data_dimensions_rejected(self):
        # min(n_dof, n_snapshots) = 20; the config allows r up to s * n_per_component.
        data = generate_synthetic_flow(30, 2, true_rank=8, n_snapshots=20, seed=16)
        cfg = ExperimentConfig(r_values=(4, 22), base_seed=1, components=2,
                               n_per_component=30, trials=1)
        with pytest.raises(ValueError, match="rank 22 out of range"):
            run_reconstruction_study(cfg, data)

    def test_data_components_must_match_config(self):
        data = generate_synthetic_flow(30, 1, true_rank=8, n_snapshots=40, seed=16)
        cfg = ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                               n_per_component=15, trials=1)
        with pytest.raises(ValueError,
                           match="data has 1 components of 30 dof, config expects 2 of 15"):
            run_reconstruction_study(cfg, data)

    def test_data_shape_must_match_config(self):
        data = generate_synthetic_flow(30, 2, true_rank=8, n_snapshots=40, seed=16)
        cfg = ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                               n_per_component=20, trials=1)
        with pytest.raises(ValueError,
                           match="data has 2 components of 30 dof, config expects 2 of 20"):
            run_reconstruction_study(cfg, data)


class TestReportSerialization:
    def test_json_and_csv_round_trip(self, tmp_path):
        cfg = small_benchmark_config(trials=2)
        report = run_random_benchmark(cfg)
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        report.write_json(json_path)
        report.write_csv(csv_path)
        import json

        loaded = json.loads(json_path.read_text())
        assert loaded["study"] == "random-benchmark"
        assert loaded["metric"] == "log_det"
        assert len(loaded["cells"]) == len(report.cells)
        header = csv_path.read_text().splitlines()[0]
        assert header == "method,r,p,mean,std,trials,skipped"

    def test_json_key_order_and_csv_bytes_are_pinned(self, tmp_path):
        cfg = small_benchmark_config(trials=3)
        report = run_random_benchmark(cfg)
        as_dict = report.as_dict(include_wall_time=False)
        assert list(as_dict) == ["study", "metric", "base_seed", "configured_trials", "cells"]
        cell_keys = ["method", "r", "p", "mean", "std", "trials", "skipped"]
        assert [list(cell) for cell in as_dict["cells"]] == [cell_keys] * len(report.cells)
        assert list(report.as_dict()) == list(as_dict) + ["wall_time_seconds"]
        csv_path = tmp_path / "report.csv"
        report.write_csv(csv_path)
        expected = "method,r,p,mean,std,trials,skipped\r\n" + "".join(
            f"{c.method},{c.r},{c.p},{c.mean:.17g},{c.std:.17g},{c.trials},{c.skipped}\r\n"
            for c in report.cells
        )
        assert csv_path.read_bytes() == expected.encode("utf-8")

    def test_cell_lookup_missing(self):
        cfg = small_benchmark_config(trials=1)
        report = run_random_benchmark(cfg)
        with pytest.raises(KeyError):
            report.cell("vector-greedy", 99)
