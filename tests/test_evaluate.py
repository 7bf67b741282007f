import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorplace import linalg
from sensorplace.evaluate import (
    MeasurementModel,
    build_model,
    observe,
    reconstruct,
    reconstruction_error,
    score_logdet,
)
from sensorplace.experiments import generate_synthetic_flow
from sensorplace.pod import PODBasis, SnapshotMatrix, compute_pod, mode_amplitudes
from sensorplace.selection import (
    SensorSelection, select_random, select_scalar_greedy, select_vector_greedy
)

from oracles import det_cofactor


def selection_of(locations, components, dof, method="vector-greedy"):
    return SensorSelection(locations=tuple(locations), components=components,
                           dof_per_component=dof, method=method)


class TestBuildModel:
    def test_gathers_both_component_rows(self):
        sel = selection_of([0], components=2, dof=2)
        model = build_model(np.eye(4), sel)
        np.testing.assert_array_equal(model.c, np.eye(4)[[0, 2]])

    def test_full_scalar_selection_returns_modes(self):
        rng = np.random.default_rng(60)
        modes, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        sel = selection_of(range(5), components=1, dof=5)
        model = build_model(modes, sel)
        np.testing.assert_array_equal(model.c, modes)

    def test_rows_bit_identical(self):
        rng = np.random.default_rng(61)
        candidate = rng.standard_normal((12, 6))
        sel = selection_of([5, 1, 3], components=2, dof=6)
        model = build_model(candidate, sel)
        for k, row in enumerate(sel.selected_rows):
            assert np.array_equal(model.c[k], candidate[row])

    def test_dimension_mismatch(self):
        sel = selection_of([0], components=2, dof=3)
        with pytest.raises(ValueError, match="candidate has 4 rows, selection implies 6"):
            build_model(np.eye(4), sel)

    def test_rows_that_components_do_not_divide_are_a_mismatch(self):
        sel = selection_of([0], components=2, dof=3)
        with pytest.raises(ValueError, match="candidate has 5 rows, selection implies 6"):
            build_model(np.eye(5), sel)

    def test_overdetermined_budget_rejected(self):
        sel = selection_of([0, 1, 2], components=1, dof=4)
        with pytest.raises(ValueError, match="overdetermined recovery: 3 rows exceed rank 2"):
            build_model(np.eye(4, 2), sel)

    def test_non_finite_raw_candidate_rejected(self):
        candidate = np.eye(4)
        candidate[3, 1] = np.nan
        with pytest.raises(ValueError, match="candidate matrix contains non-finite entries"):
            build_model(candidate, selection_of([0], components=2, dof=2))

    @pytest.mark.parametrize("m, r", [(1, 1), (4, 4), (9, 9), (1, 5), (3, 7), (6, 8)])
    def test_cond_matches_numpy_on_full_rank(self, m, r):
        rng = np.random.default_rng(100 * m + r)
        for _ in range(5):
            model = build_model(rng.standard_normal((m, r)), selection_of(range(m), 1, m))
            expected = np.linalg.cond(model.c)
            assert model.cond == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_cond_of_singular_is_infinite(self):
        model = build_model(np.array([[1.0, 0.0], [1.0, 0.0]]), selection_of([0, 1], 1, 2))
        assert model.cond == math.inf

    def test_direct_model_rows_must_match_its_selection(self):
        with pytest.raises(ValueError, match=r"shape \(3, 4\) does not match 2 rows"):
            MeasurementModel(c=np.ones((3, 4)), selection=selection_of([0, 1], 1, 5))

    def test_direct_model_with_more_rows_than_rank_rejected(self):
        with pytest.raises(ValueError, match="overdetermined recovery: 3 rows exceed rank 2"):
            MeasurementModel(c=np.eye(3, 2), selection=selection_of([0, 1, 2], 1, 5))


class TestScoreLogdet:
    def test_identity(self):
        sel = selection_of(range(3), components=1, dof=3)
        assert score_logdet(build_model(np.eye(3), sel)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        sel = selection_of([0, 1], components=1, dof=2)
        model = build_model(np.diag([2.0, 3.0]), sel)
        assert score_logdet(model) == pytest.approx(math.log(6.0), rel=1e-12)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(62)
        candidate = rng.standard_normal((10, 6))
        sel = selection_of([7, 2, 9, 0, 4, 5], components=1, dof=10)
        model = build_model(candidate, sel)
        expected = math.log(abs(det_cofactor(model.c)))
        assert score_logdet(model) == pytest.approx(expected, rel=1e-9)

    def test_wide_case_consistent_with_square(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            c = rng.standard_normal((4, 4))
            sel = selection_of(range(4), components=1, dof=4)
            # score the same square matrix through both formulas
            square = score_logdet(build_model(c, sel))
            gram = 0.5 * math.log(abs(np.linalg.det(c @ c.T)))
            assert square == pytest.approx(gram, abs=1e-9)

    def test_wide_budget(self):
        rng = np.random.default_rng(64)
        candidate = rng.standard_normal((8, 6))
        sel = selection_of([1, 4], components=1, dof=8)
        model = build_model(candidate, sel)
        c = model.c
        expected = 0.5 * math.log(np.linalg.det(c @ c.T))
        assert score_logdet(model) == pytest.approx(expected, rel=1e-10)

    def test_wide_budget_keeps_condition_number(self):
        # C C^T = [[1, 1], [1, 1 + 1e-18]] rounds to a singular matrix; the
        # two rows still span an area of 1e-9.
        candidate = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1e-9, 0.0, 0.0]])
        model = build_model(candidate, selection_of([0, 1], components=1, dof=2))
        assert score_logdet(model) == pytest.approx(math.log(1e-9), rel=1e-9)

    def test_singular_gives_negative_infinity(self):
        candidate = np.vstack([np.ones((2, 2)), np.eye(2)])
        sel = selection_of([0, 1], components=1, dof=4)
        assert score_logdet(build_model(candidate, sel)) == -np.inf
        wide = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        sel = selection_of([0, 1], components=1, dof=2)
        assert score_logdet(build_model(wide, sel)) == -np.inf


def tiny_basis(seed, n=8, r=4, components=2, n_snap=10):
    rng = np.random.default_rng(seed)
    modes, _ = np.linalg.qr(rng.standard_normal((n, r)))
    amps = rng.standard_normal((r, n_snap))
    basis = PODBasis(modes=modes, singular_values=np.arange(r, 0, -1.0),
                     components=components)
    snaps = SnapshotMatrix(modes @ amps, components=components)
    return basis, snaps, amps


class TestObserve:
    def test_full_scalar_selection_returns_centered_snapshots(self):
        rng = np.random.default_rng(65)
        data = rng.standard_normal((4, 6))
        snaps = SnapshotMatrix(data)
        basis = compute_pod(snaps, 3)
        sel = selection_of(range(4), components=1, dof=4)
        obs = observe(basis, sel, snaps)
        np.testing.assert_allclose(obs, data - data.mean(axis=1, keepdims=True))

    def test_zero_field_gives_zero(self):
        basis, _, _ = tiny_basis(66)
        sel = selection_of([0, 2], components=2, dof=4)
        obs = observe(basis, sel, SnapshotMatrix(np.zeros((8, 5)), components=2))
        assert np.all(obs == 0.0)

    def test_equals_measurement_matrix_times_amplitudes(self):
        basis, snaps, amps = tiny_basis(67)
        sel = selection_of([3, 1], components=2, dof=4)
        obs = observe(basis, sel, snaps)
        model = build_model(basis, sel)
        np.testing.assert_allclose(obs, model.c @ amps, atol=1e-12)

    def test_linearity(self):
        basis, snaps, _ = tiny_basis(68)
        rng = np.random.default_rng(69)
        other = SnapshotMatrix(rng.standard_normal((8, 10)), components=2)
        sel = selection_of([0, 3], components=2, dof=4)
        combo = SnapshotMatrix(2.0 * snaps.data + 3.0 * other.data, components=2)
        lhs = observe(basis, sel, combo)
        rhs = 2.0 * observe(basis, sel, snaps) + 3.0 * observe(basis, sel, other)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_noise_is_seeded_and_location_consistent(self):
        basis, snaps, _ = tiny_basis(70)
        wide = selection_of([0, 2], components=2, dof=4)
        narrow = selection_of([2], components=2, dof=4)
        a = observe(basis, wide, snaps, noise_sigma=0.1, seed=7)
        b = observe(basis, wide, snaps, noise_sigma=0.1, seed=7)
        np.testing.assert_array_equal(a, b)
        c = observe(basis, narrow, snaps, noise_sigma=0.1, seed=7)
        # the shared location sees identical noise under both selections
        np.testing.assert_array_equal(a[[2, 3]], c)
        # the observation is the centred full-grid field plus noise, gathered at the rows
        rows = list(wide.selected_rows)
        centered = (snaps.data - basis.mean[:, None])[rows]
        noise = np.random.default_rng(7).standard_normal(snaps.data.shape)[rows]
        assert np.array_equal(observe(basis, wide, snaps), centered)
        assert np.array_equal(a, centered + 0.1 * noise)

    @pytest.mark.parametrize("method", ["vector-greedy", "scalar-greedy", "random"])
    def test_observation_is_the_gathered_noisy_centred_field_bit_for_bit(self, method):
        snaps = generate_synthetic_flow(30, 2, true_rank=6, n_snapshots=25, seed=74,
                                        noise_sigma=0.01)
        basis = compute_pod(snaps, 6)
        sel = {"vector-greedy": lambda: select_vector_greedy(basis, 3, components=2),
               "scalar-greedy": lambda: select_scalar_greedy(basis, 6),
               "random": lambda: select_random(30, 3, seed=75, components=2)}[method]()
        rows = list(sel.selected_rows)
        centred = snaps.data - basis.mean[:, None]
        assert np.array_equal(observe(basis, sel, snaps, noise_sigma=0.0, seed=None),
                              centred[rows])
        for sigma, seed in [(0.05, 7), (1e-3, 2**63 + 1), (0.05, 2**63 + 1), (1e-3, 0)]:
            noise = np.random.default_rng(seed).standard_normal(snaps.data.shape)
            assert np.array_equal(observe(basis, sel, snaps, noise_sigma=sigma, seed=seed),
                                  (centred + sigma * noise)[rows])

    def test_snapshots_of_another_size_rejected(self):
        basis, _, _ = tiny_basis(72)
        sel = selection_of([0], components=2, dof=4)
        other = SnapshotMatrix(np.ones((6, 5)), components=2)
        with pytest.raises(ValueError, match=r"snapshots \(6 dof, 2 components\) do not match "
                                             r"basis \(8 dof, 2 components\)"):
            observe(basis, sel, other)

    def test_selection_for_another_grid_rejected(self):
        basis, snaps, _ = tiny_basis(73)
        with pytest.raises(ValueError, match="selection does not match basis dimensions"):
            observe(basis, selection_of([0], components=2, dof=5), snaps)

    def test_noise_requires_seed(self):
        basis, snaps, _ = tiny_basis(71)
        sel = selection_of([0], components=2, dof=4)
        with pytest.raises(ValueError):
            observe(basis, sel, snaps, noise_sigma=0.1)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_noise_rejected(self, sigma):
        basis, snaps, _ = tiny_basis(71)
        sel = selection_of([0], components=2, dof=4)
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            observe(basis, sel, snaps, noise_sigma=sigma, seed=1)


class TestReconstruct:
    def test_identity_model(self):
        sel = selection_of(range(4), components=1, dof=4)
        model = build_model(np.eye(4), sel)
        y = np.arange(8.0).reshape(4, 2)
        out = reconstruct(model, y)
        np.testing.assert_allclose(out.amplitudes, y)
        assert not out.rank_deficient

    def test_consistent_square_system(self):
        basis, snaps, amps = tiny_basis(72)
        sel = select_vector_greedy(basis, 2)
        model = build_model(basis, sel)
        out = reconstruct(model, observe(basis, sel, snaps))
        err = np.linalg.norm(out.amplitudes - amps) / np.linalg.norm(amps)
        assert err <= 1e-10

    def test_rank_deficiency_flagged(self):
        candidate = np.vstack([np.ones((2, 2)), np.eye(2)])
        sel = selection_of([0, 1], components=1, dof=4)
        model = build_model(candidate, sel)
        out = reconstruct(model, np.ones((2, 3)))
        assert out.rank_deficient

    def test_rank_deficiency_uses_the_zero_rule_of_score_logdet(self):
        # A rank rule with NumPy's default rcond keeps the 2e-15 pivot, and a
        # solve on it returns amplitudes near 5e14; the row-norm zero rule
        # calls C singular.
        sel = selection_of([0, 1], components=1, dof=2)
        model = build_model(np.array([[1.0, 0.0], [1.0, 2e-15]]), sel)
        assert score_logdet(model) == -math.inf
        assert reconstruct(model, np.ones((2, 1))).rank_deficient

    @settings(deadline=None, max_examples=150)
    @given(
        m=st.integers(1, 6),
        spare_rank=st.integers(0, 3),
        kind=st.sampled_from(["gaussian", "graded", "rank-deficient"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_factor_scores_flags_and_solves(self, m, spare_rank, kind, seed):
        # Square and wide C: Gaussian, columns graded down to 1e-12, or with
        # one row exactly twice another (or zero when m = 1).
        r = m + spare_rank
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((m, r))
        if kind == "graded":
            c *= np.logspace(0.0, -rng.uniform(0.0, 12.0), r)
        elif kind == "rank-deficient":
            if m == 1:
                c[0] = 0.0
            else:
                i, j = rng.choice(m, size=2, replace=False)
                c[j] = 2.0 * c[i]
        model = build_model(c, selection_of(range(m), components=1, dof=m))
        y = rng.standard_normal((m, 3))
        out = reconstruct(model, y)
        score = score_logdet(model)
        assert score == float(linalg.log_row_volume(model.c))
        assert out.rank_deficient == (score == -math.inf)
        if kind == "rank-deficient":
            assert out.rank_deficient
        if not out.rank_deficient:
            expected = np.linalg.lstsq(c, y, rcond=None)[0]
            err = np.linalg.norm(out.amplitudes - expected) / np.linalg.norm(expected)
            assert err <= 1e-13 * np.linalg.cond(c)

    def test_scalar_greedy_on_a_two_component_basis(self):
        # scalar greedy treats every stacked row of a vector basis as a location
        basis, snaps, amps = tiny_basis(74, n=12, r=6)
        sel = select_scalar_greedy(basis, 6)
        assert (sel.components, sel.dof_per_component) == (1, 12)
        model = build_model(basis, sel)
        np.testing.assert_array_equal(model.c, build_model(basis.modes, sel).c)
        y = observe(basis, sel, snaps)
        amplitudes = reconstruct(model, y).amplitudes
        np.testing.assert_allclose(amplitudes, np.linalg.solve(model.c, y), rtol=1e-10,
                                   atol=1e-12)
        np.testing.assert_allclose(amplitudes, amps, atol=1e-10)

    def test_row_count_mismatch(self):
        sel = selection_of(range(3), components=1, dof=3)
        model = build_model(np.eye(3), sel)
        with pytest.raises(ValueError):
            reconstruct(model, np.ones((2, 4)))


class TestReconstructionError:
    def test_perfect(self):
        x = np.arange(6.0).reshape(2, 3) + 1.0
        assert reconstruction_error(x, x) == 0.0

    def test_zero_reconstruction(self):
        x = np.arange(6.0).reshape(2, 3) + 1.0
        assert reconstruction_error(x, np.zeros_like(x)) == pytest.approx(1.0)

    def test_doubled_reconstruction(self):
        x = np.arange(6.0).reshape(2, 3) + 1.0
        assert reconstruction_error(x, 2.0 * x) == pytest.approx(1.0)

    def test_column_permutation_invariant(self):
        rng = np.random.default_rng(74)
        x = rng.standard_normal((3, 7))
        x_rec = rng.standard_normal((3, 7))
        perm = rng.permutation(7)
        assert reconstruction_error(x, x_rec) == pytest.approx(
            reconstruction_error(x[:, perm], x_rec[:, perm]), rel=1e-14
        )

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            reconstruction_error(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_error(np.ones((2, 2)), np.ones((2, 3)))
