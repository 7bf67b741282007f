import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensorplace
from sensorplace import cli, fileio
from sensorplace.evaluate import build_model, observe, reconstruct
from sensorplace.experiments import generate_synthetic_flow
from sensorplace.pod import SnapshotMatrix, compute_pod
from sensorplace.selection import select_vector_greedy


def run(args):
    return cli.main(args)


class TestPodCommand:
    def test_diag_singular_values_without_centering(self, tmp_path):
        snaps = tmp_path / "snaps.csv"
        fileio.write_matrix(snaps, np.diag([3.0, 2.0, 1.0]))
        modes = tmp_path / "modes.csv"
        sigma = tmp_path / "sigma.csv"
        code = run(["pod", str(snaps), str(modes), str(sigma),
                    "-r", "3", "--no-center"])
        assert code == 0
        np.testing.assert_allclose(fileio.read_matrix(sigma).ravel(), [3.0, 2.0, 1.0])

    def test_written_modes_match_library_bit_exactly(self, tmp_path):
        data = generate_synthetic_flow(10, 2, true_rank=4, n_snapshots=15, seed=3)
        snaps = tmp_path / "snaps.csv"
        fileio.write_matrix(snaps, data.data)
        modes = tmp_path / "modes.csv"
        sigma = tmp_path / "sigma.csv"
        assert run(["pod", str(snaps), str(modes), str(sigma), "-s", "2", "-r", "4"]) == 0
        snaps_back = SnapshotMatrix(fileio.read_matrix(snaps), components=2)
        basis = compute_pod(snaps_back, 4)
        assert np.array_equal(fileio.read_matrix(modes), basis.modes)

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        snaps = tmp_path / "snaps.csv"
        snaps.write_text("1,2\n3,nope\n")
        code = run(["pod", str(snaps), str(tmp_path / "m.csv"), str(tmp_path / "s.csv"),
                    "-r", "1"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_rank_too_large_exits_3(self, tmp_path):
        snaps = tmp_path / "snaps.csv"
        fileio.write_matrix(snaps, np.eye(3))
        code = run(["pod", str(snaps), str(tmp_path / "m.csv"), str(tmp_path / "s.csv"),
                    "-r", "9"])
        assert code == 3


class TestSelectCommand:
    def test_identity_vector_greedy_in_index_order(self, tmp_path):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(4))
        out = tmp_path / "sel.csv"
        assert run(["select", str(modes), str(out),
                    "-m", "vector-greedy", "-p", "4"]) == 0
        entries = fileio.read_selection(out)
        assert [loc for loc, _ in entries] == [0, 1, 2, 3]

    def test_random_without_seed_exits_4(self, tmp_path, capsys):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(4))
        code = run(["select", str(modes), str(tmp_path / "sel.csv"),
                    "-m", "random", "-p", "2"])
        assert code == 4
        assert "seed" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, rng.standard_normal((20, 4)))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run(["select", str(modes), str(out),
                        "-m", "random", "-p", "3", "-s", "2", "--seed", "77"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_budget_violation_exits_3_quoting_constraint(self, tmp_path, capsys):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.random.default_rng(1).standard_normal((12, 4)))
        code = run(["select", str(modes), str(tmp_path / "sel.csv"),
                    "-m", "vector-greedy", "-p", "3", "-s", "2"])
        assert code == 3
        assert "s*p <= r" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, tmp_path):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(3))
        with pytest.raises(SystemExit) as info:
            run(["select", str(modes), str(tmp_path / "sel.csv"),
                 "-m", "qr-pivot", "-p", "1"])
        assert info.value.code == 2

    def test_inputs_not_mutated(self, tmp_path):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(4))
        before = modes.read_bytes()
        run(["select", str(modes), str(tmp_path / "sel.csv"),
             "-m", "scalar-greedy", "-p", "2"])
        assert modes.read_bytes() == before


class TestReconstructCommand:
    def test_identity_model_copies_observations(self, tmp_path):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(3))
        sel = tmp_path / "sel.csv"
        sel.write_text("rank,location,row_indices\n1,0,0\n2,1,1\n3,2,2\n")
        obs = tmp_path / "obs.csv"
        y = np.arange(12.0).reshape(3, 4)
        fileio.write_matrix(obs, y)
        out = tmp_path / "amps.csv"
        assert run(["reconstruct", str(modes), str(sel), str(obs), str(out)]) == 0
        np.testing.assert_array_equal(fileio.read_matrix(out), y)

    def test_noiseless_error_printed(self, tmp_path, capsys):
        data = generate_synthetic_flow(15, 2, true_rank=4, n_snapshots=20, seed=8)
        basis = compute_pod(data, 4)
        selection = select_vector_greedy(basis, 2)
        from sensorplace.pod import mode_amplitudes

        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, basis.modes)
        sel = tmp_path / "sel.csv"
        fileio.write_selection(sel, selection)
        obs = tmp_path / "obs.csv"
        fileio.write_matrix(obs, observe(basis, selection, data))
        truth = tmp_path / "truth.csv"
        fileio.write_matrix(truth, mode_amplitudes(basis, data))
        out = tmp_path / "amps.csv"
        code = run(["reconstruct", str(modes), str(sel), str(obs), str(out),
                    "--true-amplitudes", str(truth)])
        assert code == 0
        printed_error = float(capsys.readouterr().out.strip())
        assert printed_error <= 1e-8

    def test_singular_square_matrix_exits_5(self, tmp_path, capsys):
        # The second C is singular under the zero rule of score_logdet, though
        # not under NumPy's default rcond rank rule.
        for c in ([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 2e-15]]):
            modes = tmp_path / "modes.csv"
            fileio.write_matrix(modes, np.vstack([c, [[0.0, 1.0]]]))
            sel = tmp_path / "sel.csv"
            sel.write_text("rank,location,row_indices\n1,0,0\n2,1,1\n")
            obs = tmp_path / "obs.csv"
            fileio.write_matrix(obs, np.ones((2, 2)))
            out = tmp_path / "amps.csv"
            code = run(["reconstruct", str(modes), str(sel), str(obs), str(out)])
            assert code == 5
            assert "condition" in capsys.readouterr().err
            assert not out.exists()

    def test_wide_rank_deficient_matrix_exits_5(self, tmp_path, capsys):
        # Two locations of dependent rows under three modes: no exact solution,
        # and lstsq would return amplitudes without any sign of the rank loss.
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        sel = tmp_path / "sel.csv"
        sel.write_text("rank,location,row_indices\n1,0,0\n2,1,1\n")
        obs = tmp_path / "obs.csv"
        fileio.write_matrix(obs, [[1.0], [3.0]])
        out = tmp_path / "amps.csv"
        assert run(["reconstruct", str(modes), str(sel), str(obs), str(out)]) == 5
        assert "condition number inf" in capsys.readouterr().err
        assert not out.exists()

    def test_shape_mismatch_exits_3(self, tmp_path):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(3))
        sel = tmp_path / "sel.csv"
        sel.write_text("rank,location,row_indices\n1,0,0\n")
        obs = tmp_path / "obs.csv"
        fileio.write_matrix(obs, np.ones((2, 2)))
        code = run(["reconstruct", str(modes), str(sel), str(obs),
                    str(tmp_path / "amps.csv")])
        assert code == 3


class TestPipelineFidelity:
    def test_file_pipeline_matches_library(self, tmp_path):
        data = generate_synthetic_flow(20, 2, true_rank=6, n_snapshots=30, seed=23)
        snaps = tmp_path / "snaps.csv"
        fileio.write_matrix(snaps, data.data)
        modes_f = tmp_path / "modes.csv"
        sigma_f = tmp_path / "sigma.csv"
        sel_f = tmp_path / "sel.csv"
        obs_f = tmp_path / "obs.csv"
        amps_f = tmp_path / "amps.csv"

        assert run(["pod", str(snaps), str(modes_f), str(sigma_f),
                    "-s", "2", "-r", "6"]) == 0
        assert run(["select", str(modes_f), str(sel_f),
                    "-m", "vector-greedy", "-p", "3", "-s", "2"]) == 0

        basis = compute_pod(data, 6)
        selection = select_vector_greedy(basis, 3)
        file_entries = fileio.read_selection(sel_f)
        assert tuple(loc for loc, _ in file_entries) == selection.locations

        y = observe(basis, selection, data)
        fileio.write_matrix(obs_f, y)
        assert run(["reconstruct", str(modes_f), str(sel_f), str(obs_f),
                    str(amps_f)]) == 0
        expected = reconstruct(build_model(basis, selection), y).amplitudes
        got = fileio.read_matrix(amps_f)
        assert np.max(np.abs(got - expected)) <= 1e-12


class TestBenchmarkCommand:
    def config(self, tmp_path, text):
        path = tmp_path / "bench.cfg"
        path.write_text(text)
        return path

    def test_tiny_run_writes_json_and_csv(self, tmp_path):
        cfg = self.config(tmp_path, (
            "n_per_component = 12\n"
            "components = 2\n"
            "r_values = 2,4\n"
            "trials = 1\n"
            "base_seed = 5\n"
        ))
        out = tmp_path / "report"
        assert run(["benchmark", str(cfg), "-o", str(out)]) == 0
        import json

        loaded = json.loads((tmp_path / "report.json").read_text())
        assert len(loaded["cells"]) == 4 * 2  # default methods x r values
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 2

    def test_rerun_identical_except_wall_time(self, tmp_path):
        cfg = self.config(tmp_path, (
            "n_per_component = 10\n"
            "components = 2\n"
            "r_values = 4\n"
            "trials = 2\n"
            "base_seed = 9\n"
            "methods = vector-greedy,random\n"
        ))
        import json

        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(["benchmark", str(cfg), "-o", str(out_a)]) == 0
        assert run(["benchmark", str(cfg), "-o", str(out_b)]) == 0
        j_a = json.loads((tmp_path / "a.json").read_text())
        j_b = json.loads((tmp_path / "b.json").read_text())
        j_a.pop("wall_time_seconds")
        j_b.pop("wall_time_seconds")
        assert j_a == j_b
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "r_values = 4\nbase_seed = 1\nwidgets = 9\n")
        assert run(["benchmark", str(cfg), "-o", str(tmp_path / "r")]) == 2
        assert "widgets" in capsys.readouterr().err

    def test_missing_base_seed_exits_4(self, tmp_path):
        cfg = self.config(tmp_path, "r_values = 4\n")
        assert run(["benchmark", str(cfg), "-o", str(tmp_path / "r")]) == 4

    @pytest.mark.parametrize("line, message", [
        ("n_per_component = 1.5", "bad config value"),
        ("components = two", "bad config value"),
        ("r_values = 4,x", "bad config value"),
        ("trials = x", "bad config value"),
        ("base_seed = -", "bad config value"),
        ("noise_sigma = abc", "bad config value"),
        ("noise_sigma = nan", "noise_sigma must be finite"),
        # Any comma list parses as method names; the config rejects unknown ones.
        ("methods = vector-greedy,bogus", "unknown method 'bogus'"),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, line, message):
        key = line.split()[0]
        text = "".join(f"{k} = {v}\n" for k, v in (("r_values", 4), ("base_seed", 1))
                       if k != key)
        cfg = self.config(tmp_path, text + line + "\n")
        assert run(["benchmark", str(cfg), "-o", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err


def scipy_loaded_after(code):
    """Run ``code`` in a fresh interpreter; whether ``scipy`` was imported."""
    src = str(Path(sensorplace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "\nimport sys; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return {"True": True, "False": False}[out.stdout.strip()]


def test_loading_the_cli_does_not_import_scipy():
    assert not scipy_loaded_after("import sensorplace.cli")


def test_greedy_selection_and_scoring_do_not_import_scipy():
    code = (
        "import numpy as np, sensorplace as sp\n"
        "u = np.random.default_rng(0).standard_normal((40, 6))\n"
        "for sel in (sp.select_vector_greedy(u, 3, components=2), sp.select_scalar_greedy(u, 6)):\n"
        "    assert np.isfinite(sp.score_logdet(sp.build_model(u, sel)))"
    )
    assert not scipy_loaded_after(code)


def test_the_library_does_not_import_scipy():
    code = (
        "import numpy as np, sensorplace as sp\n"
        "from sensorplace import linalg\n"
        "u = np.random.default_rng(0).standard_normal((40, 6))\n"
        "assert np.isfinite(linalg.log_abs_det(u[:6]))\n"
        "sp.select_convex(u, 3, components=2)\n"
        "sp.select_random(20, 3, seed=1, components=2)\n"
        "data = sp.generate_synthetic_flow(10, 2, true_rank=4, n_snapshots=12, seed=1)\n"
        "cfg = sp.ExperimentConfig(r_values=(4,), base_seed=1, n_per_component=10,\n"
        "                          trials=2, noise_sigma=0.1)\n"
        "sp.run_reconstruction_study(cfg, data)"
    )
    assert not scipy_loaded_after(code)
