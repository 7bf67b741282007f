import json
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
from sensorplace.selection import ConvexSolverError, select_convex, select_vector_greedy


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
                        "-m", "random", "-p", "2", "-s", "2", "--seed", "77"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("seed, code", [(-1, 2), (2**64 - 1, 0), (2**64, 2), (2**70, 2)])
    def test_seed_must_fit_64_bits(self, tmp_path, capsys, seed, code):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(4))
        out = tmp_path / "sel.csv"
        assert run(["select", str(modes), str(out), "-m", "random", "-p", "2",
                    "--seed", str(seed)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "non-negative 64-bit integer" in capsys.readouterr().err

    def test_budget_violation_exits_3_quoting_constraint(self, tmp_path, capsys):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.random.default_rng(1).standard_normal((12, 4)))
        code = run(["select", str(modes), str(tmp_path / "sel.csv"),
                    "-m", "vector-greedy", "-p", "3", "-s", "2"])
        assert code == 3
        assert "s*p <= r" in capsys.readouterr().err

    def test_random_over_budget_exits_3_quoting_constraint(self, tmp_path, capsys):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.random.default_rng(1).standard_normal((12, 4)))
        out = tmp_path / "sel.csv"
        args = ["select", str(modes), str(out), "-m", "random", "-p", "3", "-s", "2"]
        assert run(args) == 4  # the missing seed is reported first
        assert run(args + ["--seed", "5"]) == 3
        assert "s*p <= r" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_is_usage_error(self, tmp_path):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(3))
        with pytest.raises(SystemExit) as info:
            run(["select", str(modes), str(tmp_path / "sel.csv"),
                 "-m", "qr-pivot", "-p", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("seed, shape, p, s", [
        (5, (16, 4), 2, 2),
        (0, (300, 12), 1, 1),  # a wide budget, s * p < r
    ])
    def test_convex_writes_the_library_selection(self, tmp_path, seed, shape, p, s):
        candidate = np.random.default_rng(seed).standard_normal(shape)
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, candidate)
        out = tmp_path / "sel.csv"
        args = ["-m", "convex", "-p", str(p), "-s", str(s)]
        assert run(["select", str(modes), str(out), *args]) == 0
        expected = select_convex(candidate, p, components=s)
        assert fileio.read_selection(out) == [
            (loc, list(expected.selected_rows[s * k : s * k + s]))
            for k, loc in enumerate(expected.locations)
        ]

    def test_solver_non_convergence_exits_5(self, tmp_path, monkeypatch, capsys):
        def stalled(*args, **kwargs):
            raise ConvexSolverError("projected gradient did not converge")

        monkeypatch.setattr(cli, "select_convex", stalled)
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(4))
        out = tmp_path / "sel.csv"
        assert run(["select", str(modes), str(out), "-m", "convex", "-p", "2"]) == 5
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory_exits_1(self, tmp_path, capsys):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(4))
        out = tmp_path / "absent" / "sel.csv"
        assert run(["select", str(modes), str(out), "-m", "vector-greedy", "-p", "2"]) == 1
        assert "absent" in capsys.readouterr().err

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

    def test_rows_off_the_stacked_layout_exit_3_naming_the_location(self, tmp_path, capsys):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.random.default_rng(2).standard_normal((12, 4)))
        sel = tmp_path / "sel.csv"
        sel.write_text("rank,location,row_indices\n1,0,0;7\n")
        obs = tmp_path / "obs.csv"
        fileio.write_matrix(obs, np.ones((2, 1)))
        out = tmp_path / "amps.csv"
        assert run(["reconstruct", str(modes), str(sel), str(obs), str(out)]) == 3
        assert "location 0" in capsys.readouterr().err
        assert not out.exists()

    def test_location_beyond_dof_exits_3(self, tmp_path):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.random.default_rng(3).standard_normal((12, 4)))
        sel = tmp_path / "sel.csv"
        sel.write_text("rank,location,row_indices\n1,6,6;12\n")
        obs = tmp_path / "obs.csv"
        fileio.write_matrix(obs, np.ones((2, 1)))
        out = tmp_path / "amps.csv"
        assert run(["reconstruct", str(modes), str(sel), str(obs), str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("truth_text, code", [
        (None, 1),  # missing file
        ("1,2\n3,x\n", 2),
        ("\n".join(["1,2,3,4,5"] * 3) + "\n", 3),  # 3 x 5 truth for 4 x 5 amplitudes
    ], ids=["missing", "malformed", "wrong-shape"])
    def test_failed_truth_writes_no_amplitudes(self, tmp_path, truth_text, code):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.eye(4))
        sel = tmp_path / "sel.csv"
        sel.write_text("rank,location,row_indices\n1,0,0\n2,1,1\n3,2,2\n4,3,3\n")
        obs = tmp_path / "obs.csv"
        fileio.write_matrix(obs, np.ones((4, 5)))
        truth = tmp_path / "truth.csv"
        if truth_text is not None:
            truth.write_text(truth_text)
        out = tmp_path / "a.csv"
        assert run(["reconstruct", str(modes), str(sel), str(obs), str(out),
                    "--true-amplitudes", str(truth)]) == code
        assert not out.exists()

    def test_mode_rows_not_divisible_by_components_exits_3(self, tmp_path, capsys):
        modes = tmp_path / "modes.csv"
        fileio.write_matrix(modes, np.random.default_rng(4).standard_normal((5, 2)))
        sel = tmp_path / "sel.csv"
        sel.write_text("rank,location,row_indices\n1,0,0;2\n")
        obs = tmp_path / "obs.csv"
        fileio.write_matrix(obs, np.ones((2, 1)))
        out = tmp_path / "amps.csv"
        assert run(["reconstruct", str(modes), str(sel), str(obs), str(out)]) == 3
        assert "5 rows not divisible by 2 components" in capsys.readouterr().err
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

    def test_header_option_skips_one_line_in_every_command(self, tmp_path, capsys):
        # The pipeline runs twice: on plain CSVs, then on the same inputs with
        # one header line prepended and --header.  Every written file and the
        # printed error are byte-identical between the two runs.
        from sensorplace.pod import mode_amplitudes

        data = generate_synthetic_flow(20, 2, true_rank=6, n_snapshots=30, seed=29)
        basis = compute_pod(data, 6)
        selection = select_vector_greedy(basis, 3)
        outputs = []
        for header in (False, True):
            root = tmp_path / f"header-{header}"
            root.mkdir()
            flag = ["--header"] if header else []

            def given(path):
                if not header:
                    return str(path)
                headed = path.with_name(f"headed-{path.name}")
                headed.write_bytes(b"header line\n" + path.read_bytes())
                return str(headed)

            snaps, obs, truth = root / "snaps.csv", root / "obs.csv", root / "truth.csv"
            fileio.write_matrix(snaps, data.data)
            fileio.write_matrix(obs, observe(basis, selection, data, noise_sigma=0.05, seed=4))
            fileio.write_matrix(truth, mode_amplitudes(basis, data))
            written = [root / name for name in ("modes.csv", "sigma.csv", "sel.csv", "amps.csv")]
            modes, sigma, sel, amps = written
            assert run(["pod", given(snaps), str(modes), str(sigma),
                        "-s", "2", "-r", "6", *flag]) == 0
            assert run(["select", given(modes), str(sel),
                        "-m", "vector-greedy", "-p", "3", "-s", "2", *flag]) == 0
            assert run(["reconstruct", given(modes), str(sel), given(obs), str(amps),
                        "--true-amplitudes", given(truth), *flag]) == 0
            outputs.append([path.read_bytes() for path in written] + [capsys.readouterr().out])
        assert outputs[0] == outputs[1]
        assert float(outputs[1][-1]) > 0


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

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        bare = "r_values = 2,4\ntrials = 2\nbase_seed = 5\nn_per_component = 12\n"
        commented = ("# leading comment\n\nr_values = 2,4\n   # indented comment\n"
                     "trials = 2\n  \t\nbase_seed = 5\n\nn_per_component = 12\n")
        reports = []
        for name, text in (("bare", bare), ("commented", commented)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            assert run(["benchmark", str(cfg), "-o", str(tmp_path / name)]) == 0
            loaded = json.loads((tmp_path / f"{name}.json").read_text())
            loaded.pop("wall_time_seconds")
            reports.append((loaded, (tmp_path / f"{name}.csv").read_bytes()))
        assert reports[0] == reports[1]

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "r_values = 4\nbase_seed = 1\nwidgets = 9\n")
        assert run(["benchmark", str(cfg), "-o", str(tmp_path / "r")]) == 2
        assert "widgets" in capsys.readouterr().err

    def test_missing_base_seed_exits_4(self, tmp_path):
        cfg = self.config(tmp_path, "r_values = 4\n")
        assert run(["benchmark", str(cfg), "-o", str(tmp_path / "r")]) == 4

    def test_missing_base_seed_is_reported_before_bad_values(self, tmp_path):
        cfg = self.config(tmp_path, "r_values = x\ntrials = two\n")
        assert run(["benchmark", str(cfg), "-o", str(tmp_path / "r")]) == 4

    def test_missing_r_values_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "base_seed = 1\n")
        assert run(["benchmark", str(cfg), "-o", str(tmp_path / "r")]) == 2
        assert "config must set r_values" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("n_per_component = 1.5", "bad config value"),
        ("components = two", "bad config value"),
        ("r_values = 4,x", "bad config value"),
        ("trials = x", "bad config value"),
        ("base_seed = -", "bad config value"),
        # The random study draws no noise, so the key is not part of the config.
        ("noise_sigma = 0.1", "unknown config key 'noise_sigma'"),
        # Any comma list parses as method names; the config rejects unknown ones.
        ("methods = vector-greedy,bogus", "unknown method 'bogus'"),
        ("r_values 4", "expected 'key = value' (line 2)"),
        ("r_values = 2\nr_values = 4", "repeated config key 'r_values' (line 3)"),
        ("r_values = 4,4", "r_values must be unique"),
        # Unknown keys and bad values name their own line, not the last one.
        ("widgets = 9\ntrials = 2", "unknown config key 'widgets' (line 3)"),
        ("r_values = x\ntrials = 2", "bad config value: invalid literal for int() with base 10: "
                                      "'x' (line 2)"),
        # A '#' after a value is part of the value, not a comment.
        ("trials = 2 # two", "bad config value: invalid literal for int() with base 10: "
                             "'2 # two' (line 3)"),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, line, message):
        key = line.split()[0]
        text = "".join(f"{k} = {v}\n" for k, v in (("r_values", 4), ("base_seed", 1))
                       if k != key)
        cfg = self.config(tmp_path, text + line + "\n")
        assert run(["benchmark", str(cfg), "-o", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
    def test_line_ends(self, tmp_path, eol):
        lines = ["# ranks", "r_values = 2,4", "", "trials = 2", "base_seed = 5"]
        cfg = tmp_path / "bench.cfg"
        configs = []
        for ending in ("\n", eol):
            cfg.write_bytes(ending.join(lines).encode("utf-8"))
            configs.append(cli._parse_benchmark_config(cfg))
        assert configs[0] == configs[1]
        cfg.write_bytes(eol.join(lines + ["widgets = 9"]).encode("utf-8"))
        with pytest.raises(fileio.ParseError, match=r"'widgets' \(line 6\)"):
            cli._parse_benchmark_config(cfg)


@pytest.mark.parametrize("command, data, line", [
    ("pod", b"1,2\n\xff,3\n", 2),
    ("reconstruct", b"rank,location,row_indices\n1,0,0\n2,1,1\n3,\xff,2\n", 4),
    ("benchmark", b"r_values = 4\nba\xffse_seed = 1\n", 2),
], ids=["pod", "reconstruct", "benchmark"])
def test_byte_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys, command, data, line):
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    eye = tmp_path / "eye.csv"
    fileio.write_matrix(eye, np.eye(3))
    args = {
        "pod": [str(bad), str(tmp_path / "m.csv"), str(tmp_path / "s.csv"), "-r", "1"],
        "reconstruct": [str(eye), str(bad), str(eye), str(tmp_path / "amps.csv")],
        "benchmark": [str(bad), "-o", str(tmp_path / "r")],
    }[command]
    assert run([command, *args]) == 2
    assert capsys.readouterr().err.endswith(f"is not UTF-8 text (line {line})\n")


def python(*args):
    """Run a fresh interpreter that imports ``sensorplace`` from this checkout."""
    src = str(Path(sensorplace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def scipy_loaded_after(code):
    """Run ``code`` in a fresh interpreter; whether ``scipy`` was imported."""
    out = python("-c", code + "\nimport sys; print('scipy' in sys.modules)")
    out.check_returncode()
    return {"True": True, "False": False}[out.stdout.strip()]


def test_module_entry_point_prints_help_and_exits_0():
    out = python("-m", "sensorplace.cli", "--help")
    assert out.returncode == 0
    assert out.stdout.startswith("usage: sensorplace")


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
