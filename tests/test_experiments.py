import numpy as np
import pytest

from sensorplace.evaluate import build_model, score_logdet
from sensorplace.experiments import (
    METHOD_FULL_OBSERVATION,
    ExperimentConfig,
    _select_for_benchmark,
    generate_synthetic_flow,
    run_random_benchmark,
    run_reconstruction_study,
)
from sensorplace.pod import compute_pod


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

    def test_scalar_component_index_bounded_by_components(self):
        with pytest.raises(ValueError):
            ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                             n_per_component=10, trials=1,
                             methods=("scalar-greedy-component-3",))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(r_values=(4,), base_seed=-1, components=2,
                             n_per_component=10, trials=1)

    def test_budget_exceeding_locations_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(r_values=(8,), base_seed=1, components=2,
                             n_per_component=3, trials=1)


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

    def test_one_cell_per_method_and_rank(self):
        cfg = small_benchmark_config(trials=1)
        report = run_random_benchmark(cfg)
        assert len(report.cells) == len(cfg.methods) * len(cfg.r_values)
        assert report.cell("random", 4).std == 0.0

    def test_convex_method_runs(self):
        cfg = ExperimentConfig(r_values=(4,), base_seed=11, components=2,
                               n_per_component=12, trials=2,
                               methods=("vector-greedy", "convex", "random"))
        report = run_random_benchmark(cfg)
        assert np.isfinite(report.cell("convex", 4).mean)


    def test_step_gains_multiply_to_squared_determinant(self):
        # Step gains on a selection describe its own stacked measurement
        # matrix C: their product is det(C)^2.  A selection whose gains would
        # describe something else must carry none.
        for s in (1, 2, 3):
            cfg = ExperimentConfig(r_values=(6,), base_seed=5, n_per_component=40,
                                   components=s, trials=1)
            candidate = np.random.default_rng([90, s]).standard_normal((s * 40, 6))
            for method in cfg.methods + ("convex",):
                sel = _select_for_benchmark(method, candidate, cfg, 6 // s, 5, 6)
                if sel.step_gains is None:
                    continue
                det_sq = np.exp(2.0 * score_logdet(build_model(candidate, sel)))
                assert np.prod(sel.step_gains) == pytest.approx(det_sq, rel=1e-8), method


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

    def test_data_shape_must_match_config(self):
        data = generate_synthetic_flow(30, 2, true_rank=8, n_snapshots=40, seed=16)
        cfg = ExperimentConfig(r_values=(4,), base_seed=1, components=2,
                               n_per_component=20, trials=1)
        with pytest.raises(ValueError):
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

    def test_cell_lookup_missing(self):
        cfg = small_benchmark_config(trials=1)
        report = run_random_benchmark(cfg)
        with pytest.raises(KeyError):
            report.cell("vector-greedy", 99)
