import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorplace import build_model, linalg, score_logdet, selection
from sensorplace.pod import PODBasis
from sensorplace.selection import (
    ConvexSolverError,
    ExhaustionError,
    SensorSelection,
    select_convex,
    select_random,
    select_scalar_greedy,
    select_vector_greedy,
    _greedy,
)

from oracles import (
    bisect_capped_simplex,
    exact_step_violations,
    exhaustive_step_argmax,
    explicit_greedy,
    slsqp_relaxation,
)


class TestSensorSelection:
    def test_selected_rows_layout(self):
        sel = SensorSelection(locations=(3, 0), components=2, dof_per_component=5,
                              method="vector-greedy")
        assert sel.selected_rows == (3, 8, 0, 5)
        assert sel.sensor_count == 2

    def test_duplicate_locations_rejected(self):
        with pytest.raises(ValueError):
            SensorSelection(locations=(1, 1), components=1, dof_per_component=4,
                            method="random")

    def test_location_out_of_range(self):
        with pytest.raises(ValueError):
            SensorSelection(locations=(4,), components=1, dof_per_component=4,
                            method="random")


# Every selector that takes a candidate matrix, called as (candidate, p) with its s.
GATED_SELECTORS = [
    pytest.param(lambda c, p: select_scalar_greedy(c, p), 1, id="scalar-greedy"),
    pytest.param(lambda c, p: select_vector_greedy(c, p, components=2), 2, id="vector-greedy"),
    pytest.param(lambda c, p: select_convex(c, p, components=2), 2, id="convex"),
]


class TestInputGate:
    @pytest.mark.parametrize("select, s", GATED_SELECTORS)
    def test_rejects_empty_over_budget_and_too_many_locations(self, select, s):
        rng = np.random.default_rng(47)
        tall = rng.standard_normal((6 * s, 2 * s))  # 6 locations, r = 2s
        with pytest.raises(ValueError, match="sensor count must be >= 1"):
            select(tall, 0)
        with pytest.raises(ValueError, match=r"s\*p <= r"):
            select(tall, 3)
        wide = rng.standard_normal((3 * s, 4 * s))  # 3 locations, r = 4s
        with pytest.raises(ValueError, match="cannot select 4 of 3 locations"):
            select(wide, 4)

    @pytest.mark.parametrize("select", [select_vector_greedy, select_convex])
    def test_components_conflicting_with_a_basis_rejected(self, select):
        modes, _ = np.linalg.qr(np.random.default_rng(49).standard_normal((20, 4)))
        basis = PODBasis(modes=modes, singular_values=np.ones(4), components=2)
        with pytest.raises(ValueError, match="components=1 conflicts with basis components=2"):
            select(basis, 2, components=1)

    def test_scalar_greedy_treats_every_basis_row_as_a_location(self):
        modes, _ = np.linalg.qr(np.random.default_rng(48).standard_normal((20, 5)))
        basis = PODBasis(modes=modes, singular_values=np.ones(5), components=2)
        sel = select_scalar_greedy(basis, 5)
        assert (sel.components, sel.dof_per_component) == (1, 20)
        assert sel.locations == select_scalar_greedy(basis.modes, 5).locations


class TestScalarGreedy:
    def test_identity_picks_index_order(self):
        sel = select_scalar_greedy(np.eye(4), 4)
        assert sel.locations == (0, 1, 2, 3)

    def test_single_argmax(self):
        rows = np.diag([1.0, 5.0, 2.0]) @ np.ones((3, 3))
        sel = select_scalar_greedy(rows, 1)
        assert sel.locations == (1,)

    def test_every_step_is_exhaustively_optimal(self):
        rng = np.random.default_rng(40)
        candidate = rng.standard_normal((30, 4))
        sel = select_scalar_greedy(candidate, 4)
        picked: list[int] = []
        for loc in sel.locations:
            oracle_loc, _ = exhaustive_step_argmax(candidate, picked, components=1)
            assert loc == oracle_loc
            picked.append(loc)

    def test_exhaustion_reports_step(self):
        rank_one = np.outer(np.arange(1.0, 5.0), np.ones(3))
        with pytest.raises(ExhaustionError) as info:
            select_scalar_greedy(rank_one, 2)
        assert info.value.step == 2

    def test_budget_exceeds_columns(self):
        with pytest.raises(ValueError):
            select_scalar_greedy(np.eye(3), 4)

    def test_monotone_nesting(self):
        rng = np.random.default_rng(41)
        candidate = rng.standard_normal((20, 6))
        seq = [select_scalar_greedy(candidate, p).locations for p in range(1, 7)]
        for shorter, longer in zip(seq, seq[1:]):
            assert longer[: len(shorter)] == shorter


class TestVectorGreedy:
    def test_reduces_to_scalar_for_single_component(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            candidate = rng.standard_normal((15, 5))
            for p in range(1, 6):
                scalar = select_scalar_greedy(candidate, p)
                vector = select_vector_greedy(candidate, p, components=1)
                assert scalar.locations == vector.locations

    def test_coplanar_location_loses(self):
        # location 0 contributes two independent rows, location 1 two
        # collinear ones; stacking order is component-major
        candidate = np.array([
            [1.0, 0.0],   # loc 0, component 0
            [1.0, 0.0],   # loc 1, component 0
            [0.0, 1.0],   # loc 0, component 1
            [2.0, 0.0],   # loc 1, component 1
        ])
        sel = select_vector_greedy(candidate, 1, components=2)
        assert sel.locations == (0,)
        assert sel.step_gains == (1.0,)

    def test_first_step_matches_gram_determinant_oracle(self):
        rng = np.random.default_rng(43)
        candidate = rng.standard_normal((16, 4))  # s=2, 8 locations
        sel = select_vector_greedy(candidate, 2, components=2)
        oracle_loc, _ = exhaustive_step_argmax(candidate, [], components=2)
        assert sel.locations[0] == oracle_loc

    def test_squared_det_equals_gain_product(self):
        rng = np.random.default_rng(44)
        candidate = rng.standard_normal((16, 4))
        sel = select_vector_greedy(candidate, 2, components=2)
        model = build_model(candidate, sel)
        det_sq = np.exp(2.0 * score_logdet(model))
        assert det_sq == pytest.approx(np.prod(sel.step_gains), rel=1e-8)

    def test_every_step_is_exhaustively_optimal(self):
        rng = np.random.default_rng(45)
        for s in (1, 2, 3):
            candidate = rng.standard_normal((s * 10, 6))
            p = 6 // s
            sel = select_vector_greedy(candidate, p, components=s)
            picked: list[int] = []
            for loc in sel.locations:
                oracle_loc, _ = exhaustive_step_argmax(candidate, picked, components=s)
                assert loc == oracle_loc
                picked.append(loc)

    def test_budget_validation(self):
        rng = np.random.default_rng(46)
        candidate = rng.standard_normal((12, 4))
        with pytest.raises(ValueError, match=r"s\*p <= r"):
            select_vector_greedy(candidate, 3, components=2)

    def test_exhaustion_when_all_locations_degenerate(self):
        candidate = np.zeros((6, 4))
        candidate[0, 0] = 1.0
        candidate[3, 1] = 1.0  # only location 0 has any volume (s=2, dof=3)
        sel = select_vector_greedy(candidate, 1, components=2)
        assert sel.locations == (0,)
        with pytest.raises(ExhaustionError) as info:
            select_vector_greedy(candidate, 2, components=2)
        assert info.value.step == 2

    def test_monotone_nesting(self):
        rng = np.random.default_rng(47)
        candidate = rng.standard_normal((20, 8))
        seq = [select_vector_greedy(candidate, p, components=2).locations
               for p in range(1, 5)]
        for shorter, longer in zip(seq, seq[1:]):
            assert longer[: len(shorter)] == shorter

    def test_scale_invariance_and_logdet_shift(self):
        rng = np.random.default_rng(48)
        candidate = rng.standard_normal((14, 6))
        base = select_vector_greedy(candidate, 3, components=2)
        base_logdet = score_logdet(build_model(candidate, base))
        for c in (1e-3, 1e3):
            scaled = select_vector_greedy(c * candidate, 3, components=2)
            assert scaled.locations == base.locations
            shifted = score_logdet(build_model(c * candidate, scaled))
            assert shifted == pytest.approx(base_logdet + 6 * np.log(c), rel=1e-9)

    @pytest.mark.parametrize("seed, rows, s, p, exponent", [(48, 14, 2, 3, -280), (3, 60, 3, 2, -200)])
    def test_picks_survive_extreme_scaling(self, seed, rows, s, p, exponent):
        # Powers of two scale exactly, so only the range of the scores could
        # change the picks: at these scales unscaled scores underflow to zero.
        candidate = np.random.default_rng(seed).standard_normal((rows, 6))
        base = select_vector_greedy(candidate, p, components=s)
        scaled = select_vector_greedy(2.0**exponent * candidate, p, components=s)
        assert scaled.locations == base.locations
        assert scaled.step_margins == base.step_margins

    def test_step_gains_saturate_under_extreme_scaling(self):
        candidate = np.random.default_rng(48).standard_normal((14, 6))
        base = select_vector_greedy(candidate, 3, components=2)
        with pytest.warns(RuntimeWarning):
            scaled = select_vector_greedy(2.0**300 * candidate, 3, components=2)
        assert scaled.locations == base.locations
        assert scaled.step_margins == base.step_margins
        assert scaled.step_gains == (np.inf,) * 3

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(49)
        candidate = rng.standard_normal((18, 6))  # s=2, 9 locations
        perm = rng.permutation(9)
        permuted = np.empty_like(candidate)
        for j in range(2):
            permuted[perm + 9 * j] = candidate[np.arange(9) + 9 * j]
        base = select_vector_greedy(candidate, 3, components=2)
        mapped = select_vector_greedy(permuted, 3, components=2)
        assert mapped.locations == tuple(perm[list(base.locations)])

    def test_accepts_pod_basis(self):
        rng = np.random.default_rng(50)
        from sensorplace.pod import SnapshotMatrix, compute_pod

        snaps = SnapshotMatrix(rng.standard_normal((12, 10)), components=2)
        basis = compute_pod(snaps, 4)
        sel = select_vector_greedy(basis, 2)
        assert sel.components == 2
        assert sel.dof_per_component == 6


def graded_candidate(components, index, smallest):
    """Raw stacked candidate with 20 locations and column scales 1 .. ``smallest``."""
    r = 8 if components < 3 else 9
    rng = np.random.default_rng([2019, components, index])
    return rng.standard_normal((components * 20, r)) * np.logspace(0.0, np.log10(smallest), r)


def exact_rank_candidate(n, r, scales, seed):
    """n x r candidate of rank len(scales): orthonormal factors times scales."""
    rng = np.random.default_rng(seed)
    k = len(scales)
    left, _ = np.linalg.qr(rng.standard_normal((n, k)))
    right, _ = np.linalg.qr(rng.standard_normal((r, k)))
    return (left * np.asarray(scales)) @ right.T


def rank_short_candidate(s, picks, short, spare_locations, seed):
    """Candidate of rank s * picks + s - short: after ``picks`` picks fewer than
    s directions remain, so every location's rows are dependent among
    themselves and its last pivot is zero."""
    short = min(short, s - 1)
    r = s * (picks + 1)
    dof = picks + 1 + spare_locations
    scales = np.random.default_rng(seed).uniform(1e-3, 1.0, r - short)
    return exact_rank_candidate(s * dof, r, scales, seed)


def planted_candidate(s, base_dof, r, rank, planted, delta, seed):
    """Stacked candidate: ``base_dof`` locations of an exactly rank-``rank``
    candidate, the first two scaled by 4 so that greedy picks them first, then
    ``planted`` locations with rows ``a x_0 + b x_1 + delta x_C`` (|a|, |b| <=
    1/2, C another base location).  Once locations 0 and 1 are picked, a
    planted location's residual is ``delta`` times that of C."""
    rng = np.random.default_rng(seed)
    base = exact_rank_candidate(s * base_dof, r, rng.uniform(0.5, 1.0, rank), seed)
    dof = base_dof + planted
    candidate = np.empty((s * dof, r))
    for j in range(s):
        block = base[j * base_dof : (j + 1) * base_dof]
        block[:2] *= 4.0
        candidate[j * dof : j * dof + base_dof] = block
        for i in range(base_dof, dof):
            a, b = rng.uniform(0.1, 0.5, size=2) * rng.choice([-1.0, 1.0], size=2)
            c_loc = rng.integers(2, base_dof)
            candidate[j * dof + i] = a * block[0] + b * block[1] + delta * block[c_loc]
    return candidate


class TestNumericalEdges:
    @pytest.mark.parametrize("smallest", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("method", ["vector", "scalar"])
    def test_graded_columns_match_exact_oracle(self, method, s, smallest):
        # Full rank but badly scaled: every pick must attain the exact
        # (rational-arithmetic) one-step maximum, never exhaust.
        for index in range(2):
            candidate = graded_candidate(s, index, smallest)
            p = candidate.shape[1] // s
            if method == "vector":
                sel = select_vector_greedy(candidate, p, components=s)
                assert exact_step_violations(candidate, list(sel.locations), s) == []
            else:
                sel = select_scalar_greedy(candidate, s * p)
                assert exact_step_violations(candidate, list(sel.locations), 1) == []

    @pytest.mark.parametrize("smallest", [5e-14, 2e-14])
    @pytest.mark.parametrize("s", [1, 2])
    def test_completed_selection_scores_finite(self, s, smallest):
        # Column scales below the 1e-12 the exact-oracle test reaches: the
        # kernel keeps every direction, so the score must be finite and
        # ln |det C| must equal half the log of the product of step gains.
        for index in range(3):
            candidate = graded_candidate(s, index, smallest)
            sel = select_vector_greedy(candidate, candidate.shape[1] // s, components=s)
            score = score_logdet(build_model(candidate, sel))
            assert np.isfinite(score)
            assert np.prod(sel.step_gains) == pytest.approx(np.exp(2.0 * score), rel=1e-9)
            # The public determinant follows the same zero rule on square C.
            c = build_model(candidate, sel).c
            assert linalg.log_abs_det(c) == pytest.approx(score, rel=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        s=st.integers(1, 3),
        picks=st.integers(1, 4),
        spare_rank=st.integers(0, 2),
        spare_locations=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_exact_rank_exhausts_right_after_rank_picks(
        self, s, picks, spare_rank, spare_locations, seed, data
    ):
        k = s * picks
        r = k + s + spare_rank
        dof = picks + 1 + spare_locations
        scales = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k))
        candidate = exact_rank_candidate(s * dof, r, scales, seed)
        with pytest.raises(ExhaustionError) as info:
            select_vector_greedy(candidate, picks + 1, components=s)
        assert info.value.step == picks + 1
        with pytest.raises(ExhaustionError) as info:
            select_scalar_greedy(candidate, k + 1)
        assert info.value.step == k + 1


class TestRecomputePath:
    """Downdated pivots that fall past the recompute test are re-formed explicitly."""

    @settings(deadline=None, max_examples=60)
    @given(
        s=st.integers(1, 3),
        picks=st.integers(3, 4),
        spare_rank=st.integers(0, 2),
        deficit=st.integers(0, 2),
        spare_locations=st.integers(0, 4),
        planted=st.integers(1, 4),
        exponent=st.floats(5.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_near_degenerate_locations_match_explicit_oracle(
        self, s, picks, spare_rank, deficit, spare_locations, planted, exponent, seed
    ):
        # Rank s * (picks - deficit) exhausts at step picks - deficit + 1; the
        # planted locations' pivots drop by delta^2 = 1e-10 .. 1e-20 mid-run.
        r = s * picks + spare_rank
        rank = s * (picks - deficit) if deficit else r
        base_dof = picks + 3 + spare_locations
        candidate = planted_candidate(s, base_dof, r, rank, planted, 10.0 ** -exponent, seed)
        for select, sensors, components in (
            (lambda: select_vector_greedy(candidate, picks, components=s), picks, s),
            (lambda: select_scalar_greedy(candidate, s * picks), s * picks, 1),
        ):
            locations, gains, step = explicit_greedy(
                candidate, sensors, components, linalg.RESIDUAL_RTOL
            )
            if step is None:
                sel = select()
                assert sel.locations == tuple(locations)
                np.testing.assert_allclose(sel.step_gains, gains, rtol=1e-12, atol=0.0)
            else:
                with pytest.raises(ExhaustionError) as info:
                    select()
                assert info.value.step == step

    @settings(deadline=None, max_examples=40)
    @given(
        s=st.integers(2, 3),
        picks=st.integers(1, 3),
        short=st.integers(1, 2),
        spare_locations=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_short_of_a_whole_location_exhausts(self, s, picks, short, spare_locations, seed):
        candidate = rank_short_candidate(s, picks, short, spare_locations, seed)
        with pytest.raises(ExhaustionError) as info:
            select_vector_greedy(candidate, picks + 1, components=s)
        assert info.value.step == picks + 1
        assert explicit_greedy(candidate, picks + 1, s, linalg.RESIDUAL_RTOL)[2] == picks + 1

    @pytest.mark.parametrize("s, picks, short, spare_locations, seed", [
        (3, 1, 1, 4, 59351364),  # last step gain 7.5e-39
        (2, 3, 1, 5, 2),  # 5.9e-37
        (3, 3, 1, 4, 1727),  # 3.9e-40
        (2, 3, 1, 5, 182),  # 1.6e-37
        (2, 2, 1, 4, 153124),  # 1.3e-37
        (2, 2, 1, 2, 31),  # 1.1e-36
        (2, 1, 1, 4, 25596516),  # 1.7e-36
        (2, 1, 1, 3, 515),  # 1.1e-35
        (3, 1, 1, 5, 66),  # 4.2e-39
    ])
    def test_rank_short_example_exhausts(self, s, picks, short, spare_locations, seed):
        # Former falsifying examples of the property test above: every pivot
        # clears the zero cutoff and the last step gained 1e-40 to 1e-35 (noted
        # per row) where fewer than s directions remain, until the sigma_min test.
        candidate = rank_short_candidate(s, picks, short, spare_locations, seed)
        with pytest.raises(ExhaustionError) as info:
            select_vector_greedy(candidate, picks + 1, components=s)
        assert info.value.step == picks + 1
        assert explicit_greedy(candidate, picks + 1, s, linalg.RESIDUAL_RTOL)[2] == picks + 1

    @pytest.mark.parametrize("units, dead", [(5.0, False), (0.5, True)])
    def test_dependent_rows_die_at_the_sigma_min_cut(self, units, dead):
        # Location 0 has rows x and 64x + delta y, so its second pivot is 64
        # times its sigma_min: at 0.5 units of r * eps * M it clears the pivot
        # cut (10 units) while the location is dead; at 5 units it lives.
        # Location 1 is zero.
        unit = 2 * np.finfo(np.float64).eps * 64.0
        candidate = np.zeros((4, 2))
        candidate[0, 0], candidate[2] = 1.0, (64.0, units * unit * np.hypot(1.0, 64.0))
        sigma = np.linalg.svd(candidate[[0, 2]], compute_uv=False)[-1] / unit
        assert units / 1.01 < sigma < units * 1.01
        if dead:
            with pytest.raises(ExhaustionError) as info:
                select_vector_greedy(candidate, 1, components=2)
            assert info.value.step == 1
        else:
            assert select_vector_greedy(candidate, 1, components=2).locations == (0,)
        assert (explicit_greedy(candidate, 1, 2, linalg.RESIDUAL_RTOL)[2] == 1) == dead

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tilt=st.floats(9.0, 13.0),
        rival=st.floats(4.0, 7.0),
    )
    def test_nearly_collinear_rows_of_one_location(self, seed, tilt, rival):
        # Location 0 has rows x and 2x + 10^-tilt y: its second pivot cancels
        # in its Gram far below rounding and must come from its rows.
        # Location 1 is small but spans a genuine plane.
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, 3))
        candidate = np.empty((4, 3))
        candidate[[0, 2]] = x, 2.0 * x + 10.0**-tilt * y
        candidate[[1, 3]] = 10.0**-rival * rng.standard_normal((2, 3))
        sel = select_vector_greedy(candidate, 1, components=2)
        assert exact_step_violations(candidate, list(sel.locations), 2) == []

    def test_a_refreshed_location_is_not_re_formed_again(self, monkeypatch):
        # The planted row 20 crosses the test once rows 0 and 1 are picked;
        # re-formed then, its 1e-5 residual stays clear of the refreshed test,
        # so it is re-formed once besides the p winners.
        rng = np.random.default_rng(56)
        candidate = rng.standard_normal((21, 8))
        candidate[:2] *= 10.0
        candidate[20] = 0.1 * (candidate[0] + candidate[1]) + 1e-5 * rng.standard_normal(8)
        calls = []
        residual = selection._residual

        def spy(stack, q, members, locs):
            calls.append(locs.tolist())
            return residual(stack, q, members, locs)

        monkeypatch.setattr(selection, "_residual", spy)
        sel = select_scalar_greedy(candidate, 6)
        winners = [[loc] for loc in sel.locations]
        assert sel.locations[:2] == (0, 1) and 20 not in sel.locations
        re_formed = [locs for locs in calls if locs not in winners]
        assert re_formed == [[20]]

    def test_step_margins_exceed_one_on_every_completed_step(self):
        rng = np.random.default_rng(57)
        for s in (1, 2, 3):
            for candidate in (
                rng.standard_normal((s * 20, 9)),
                graded_candidate(s, 0, 1e-12),
                graded_candidate(s, 1, 5e-14),
            ):
                p = candidate.shape[1] // s
                for sel in (select_vector_greedy(candidate, p, components=s),
                            select_scalar_greedy(candidate, s * p)):
                    assert len(sel.step_margins) == len(sel.step_gains) == sel.sensor_count
                    assert min(sel.step_margins) > 1.0
        assert select_random(10, 3, seed=1).step_margins is None
        assert select_convex(rng.standard_normal((10, 3)), 2).step_margins is None


class TestBatchedKernel:
    """The kernel selects on a stack of candidates exactly as on each alone."""

    @settings(deadline=None, max_examples=40)
    @given(
        s=st.integers(1, 3),
        picks=st.integers(1, 3),
        spare_rank=st.integers(0, 3),
        dof=st.integers(4, 12),
        kinds=st.lists(st.sampled_from(["gaussian", "graded", "rank"]), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_its_members(self, s, picks, spare_rank, dof, kinds, seed):
        r = s * picks + spare_rank
        rng = np.random.default_rng(seed)
        members = []
        for kind in kinds:
            if kind == "gaussian":
                members.append(rng.standard_normal((s * dof, r)))
            elif kind == "graded":
                smallest = 10.0 ** -rng.uniform(0.0, 12.0)
                scales = np.logspace(0.0, np.log10(smallest), r)
                members.append(rng.standard_normal((s * dof, r)) * scales)
            else:
                # rank s * k < s * picks: exhausts at step k + 1
                k = int(rng.integers(0, picks))
                scales = rng.uniform(1e-6, 1.0, size=s * k)
                members.append(exact_rank_candidate(s * dof, r, scales, int(rng.integers(2**32))))
        alone = []
        for member in members:
            try:
                alone.append(select_vector_greedy(member, picks, components=s))
            except ExhaustionError as exc:
                alone.append(exc.step)
        stack = np.stack([m.reshape(s, dof, r).transpose(0, 2, 1) for m in members])
        steps = [result for result in alone if isinstance(result, int)]
        if steps:
            # The batch stops at the first step where some member exhausts.
            with pytest.raises(ExhaustionError) as info:
                _greedy(stack, picks)
            assert info.value.step == min(steps)
            return
        locations, gains, margins = _greedy(stack, picks)
        assert locations.shape == gains.shape == margins.shape == (len(members), picks)
        for b, sel in enumerate(alone):
            assert tuple(locations[b].tolist()) == sel.locations
            assert tuple(gains[b].tolist()) == sel.step_gains
            assert tuple(margins[b].tolist()) == sel.step_margins

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_results_do_not_depend_on_the_stack_layout(self, s):
        # Two non-contiguous views of the same values: every other column of a
        # wider array, and the natural view of (n, r) candidates, each
        # location's r entries contiguous.
        rng = np.random.default_rng(58 + s)
        dof, r = 15, 3 * s
        rows = rng.standard_normal((4, s, dof, r)) * np.logspace(0, -9, r)
        stack = np.ascontiguousarray(rows.swapaxes(2, 3))
        big = np.zeros((4, s, r, 2 * dof))
        big[..., ::2] = stack
        expected = [a.tobytes() for a in _greedy(stack, 3)]
        for view in (big[..., ::2], rows.swapaxes(2, 3)):
            assert not view.flags.c_contiguous
            assert [a.tobytes() for a in _greedy(view, 3)] == expected

    def test_read_only_candidate_is_left_unchanged(self):
        candidate = np.random.default_rng(55).standard_normal((2 * 30, 8))
        candidate.flags.writeable = False
        before = candidate.tobytes()
        vector = select_vector_greedy(candidate, 4, components=2)
        scalar = select_scalar_greedy(candidate, 8)
        assert candidate.tobytes() == before
        writable = candidate.copy()
        assert select_vector_greedy(writable, 4, components=2) == vector
        assert select_scalar_greedy(writable, 8) == scalar


class TestScalarGreedyIsPivotedQR:
    """Scalar greedy is Businger-Golub column pivoting (LAPACK geqp3) of U^T."""

    @pytest.mark.parametrize("orthonormal", [False, True])
    def test_picks_and_gains_match_geqp3(self, orthonormal):
        # n >= 2r: a square orthonormal U has exact norm ties, which geqp3
        # breaks differently.
        rng = np.random.default_rng(54)
        for n, r in ((16, 8), (60, 12), (500, 30), (2000, 40)):
            for _ in range(3):
                candidate = rng.standard_normal((n, r))
                if orthonormal:
                    candidate, _ = np.linalg.qr(candidate)
                sel = select_scalar_greedy(candidate, r)
                _, rfac, pivots = scipy.linalg.qr(candidate.T, mode="economic", pivoting=True)
                assert sel.locations == tuple(int(i) for i in pivots[:r])
                np.testing.assert_allclose(sel.step_gains, np.diag(rfac) ** 2, rtol=1e-10)


class TestRandom:
    def test_full_draw(self):
        sel = select_random(5, 5, seed=123)
        assert sorted(sel.locations) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = select_random(50, 7, seed=99)
        b = select_random(50, 7, seed=99)
        assert a.locations == b.locations

    def test_uniform_frequencies(self):
        counts = np.zeros(4, dtype=int)
        for k in range(10_000):
            sel = select_random(4, 1, seed=k)
            counts[sel.locations[0]] += 1
        sigma = np.sqrt(10_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2500) <= 4 * sigma)

    def test_too_many_requested(self):
        with pytest.raises(ValueError):
            select_random(3, 4, seed=0)

    def test_none_seed_rejected(self):
        # numpy would seed itself from OS entropy, so two calls could differ.
        with pytest.raises(ValueError, match="a seed is required"):
            select_random(50, 3, seed=None)


class TestConvex:
    def test_budget_equals_universe(self):
        rng = np.random.default_rng(51)
        candidate = rng.standard_normal((8, 8))  # s=2, 4 locations, p=4
        sel = select_convex(candidate, 4, components=2)
        assert sorted(sel.locations) == [0, 1, 2, 3]
        # z is all ones, so the relaxation is the pick's own ln |det C|
        score = score_logdet(build_model(candidate, sel))
        assert sel.relaxation_objective == pytest.approx(score, rel=1e-6)

    def test_only_spanning_location_selected(self):
        # s=2, r=2: all blocks collinear except location 2
        candidate = np.zeros((8, 2))
        dof = 4
        for loc in range(dof):
            candidate[loc, 0] = 1.0 + loc
            candidate[loc + dof, 0] = 0.5
        candidate[2 + dof] = [0.0, 3.0]
        sel = select_convex(candidate, 1, components=2)
        assert sel.locations == (2,)

    def test_beats_most_random_selections(self):
        rng = np.random.default_rng(52)
        candidate = rng.standard_normal((2 * 30, 8))
        sel = select_convex(candidate, 4, components=2)
        val = score_logdet(build_model(candidate, sel))
        wins = 0
        for k in range(100):
            rand = select_random(30, 4, seed=k, components=2)
            wins += val >= score_logdet(build_model(candidate, rand))
        assert wins >= 90
        assert sel.relaxation_objective is not None

    def test_step_cap_raises_naming_the_gap(self, monkeypatch):
        rng = np.random.default_rng(53)
        candidate = rng.standard_normal((2 * 25, 6))
        monkeypatch.setattr(selection, "_CONVEX_MAX_ITERS", 1)
        with pytest.raises(ConvexSolverError, match=r"^duality gap \S+ above tolerance 1\.0e-04 "
                                                    r"after 1 steps$"):
            select_convex(candidate, 3, components=2)

    def test_stalled_line_search_raises_at_once(self, monkeypatch):
        # No trial step can meet this Armijo constant, so the first step's
        # backtracking runs below the smallest step and ends the solve.
        candidate = np.random.default_rng(53).standard_normal((2 * 25, 6))
        monkeypatch.setattr(selection, "_ARMIJO_C", 1e6)
        logdet, calls = selection._relaxation_logdet, []

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 48, "the solve went on after its line search stalled"
            return logdet(*args)

        monkeypatch.setattr(selection, "_relaxation_logdet", counted)
        with pytest.raises(ConvexSolverError, match=r"^duality gap \S+ above tolerance 1\.0e-04 "
                                                    r"after 0 steps, line search stalled$"):
            select_convex(candidate, 3, components=2)
        # The start, then trial steps t = 1, 1/2, ..., 2**-46; 2**-47 is below 1e-14.
        assert len(calls) == 48

    @pytest.mark.parametrize("cols, s, evaluations, picks", [
        (9, 3, 68, (84, 8, 21)),  # square budget s * p = r; its line search backtracks
        (12, 1, 404, (19,)),  # wide budget s * p < r
    ])
    def test_trial_point_sequence_is_pinned(self, monkeypatch, cols, s, evaluations, picks):
        # Every trial point costs one objective evaluation, the unit step included.
        logdet, calls = selection._relaxation_logdet, []

        def counted(*args):
            calls.append(args)
            return logdet(*args)

        monkeypatch.setattr(selection, "_relaxation_logdet", counted)
        candidate = np.random.default_rng(0).standard_normal((300, cols))
        assert select_convex(candidate, s, components=s).locations == picks
        assert len(calls) == evaluations

    def test_tall_orthonormal_candidate_keeps_its_picks(self):
        # A projection whose sum is off by about 1e-12 stalls the line search here.
        q = np.linalg.qr(np.random.default_rng(900).standard_normal((2000, 20)))[0]
        assert select_convex(q, 10, components=2).locations == (
            461, 842, 284, 934, 245, 465, 755, 142, 991, 129)

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 300),
        scale_exp=st.floats(-3.0, 3.0),
        shift=st.floats(-1e3, 1e3),
        kind=st.sampled_from(["gaussian", "ties", "start"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_projection_matches_bisection_oracle(self, n, scale_exp, shift, kind, seed, data):
        total = data.draw(st.integers(1, n), label="total")
        scale = 10.0**scale_exp
        x = np.random.default_rng(seed).standard_normal(n) * scale + shift
        if kind == "ties":
            x = np.round(x / scale, 1) * scale
        elif kind == "start":
            x = np.full(n, total / n)
        z = selection._project_capped_simplex(x, total)
        size = max(1.0, float(np.abs(x).max()))
        assert np.all((z >= 0.0) & (z <= 1.0))
        assert abs(z.sum() - total) <= 1e-9
        assert np.abs(z - bisect_capped_simplex(x, float(total))).max() <= 1e-10 * size
        taus = (x - z)[(z > 0.0) & (z < 1.0)]  # one tau fits every free entry
        assert taus.size == 0 or taus.max() - taus.min() <= 1e-12 * size

    def test_slow_gaussian_instance_converges(self):
        # Needs 354 steps to close its duality gap.
        candidate = np.random.default_rng(215).standard_normal((300, 9))
        assert select_convex(candidate, 3, components=3).locations == (67, 53, 57)

    def test_slower_gaussian_instance_converges(self):
        # Needs 1266 steps to close its duality gap, most of the 2000-step cap.
        candidate = np.random.default_rng(12).standard_normal((300, 9))
        assert select_convex(candidate, 3, components=3).locations == (95, 7, 13)

    @pytest.mark.parametrize("s, seed", [(1, 0), (1, 4), (2, 1), (2, 5), (3, 26), (3, 50)])
    def test_single_sensor_on_a_wide_budget_completes(self, s, seed):
        # A wide budget, s * p < r = 12, on 300 / s locations.
        candidate = np.random.default_rng(seed).standard_normal((300, 12))
        assert np.isfinite(select_convex(candidate, 1, components=s).relaxation_objective)

    def test_relaxation_objective_matches_slsqp(self):
        # Square and wide budgets, s = 1..3, 8-12 locations: the gap stop certifies
        # relaxation_objective to within 5e-5 below the optimum, and no feasible z beats it.
        for s in (1, 2, 3):
            for seed in range(10):
                dof, p = 8 + seed % 5, 2 + seed % 3
                for r in (s * p, s * p + 1 + seed % 3):
                    candidate = np.random.default_rng([s, seed, r]).standard_normal((s * dof, r))
                    got = select_convex(candidate, p, components=s).relaxation_objective
                    optimum = slsqp_relaxation(candidate, p, s)
                    assert optimum - 5e-5 <= got <= optimum + 1e-9, (s, seed, r)

    def test_objective_and_gradient_match_explicit_sums(self):
        rng = np.random.default_rng(54)
        s, dof, r = 2, 7, 5
        a = rng.standard_normal((s * dof, r))
        z = rng.uniform(0.0, 1.0, dof)
        ridge = 1e-3 * np.eye(r)
        blocks = [a[[i + dof * j for j in range(s)]] for i in range(dof)]
        info = sum(zi * b.T @ b for zi, b in zip(z, blocks)) + ridge
        value, chol = selection._relaxation_logdet(a, z, s, ridge)
        sign, expected = np.linalg.slogdet(info)
        assert sign > 0 and value == pytest.approx(expected, rel=1e-12)
        traces = [np.trace(np.linalg.solve(info, b.T @ b)) for b in blocks]
        np.testing.assert_allclose(selection._relaxation_gradient(a, chol, s), traces,
                                   rtol=1e-10)
        assert selection._relaxation_logdet(a, z, s, -1e3 * np.eye(r)) == (-np.inf, None)

    def test_memory_is_linear_in_the_candidate(self):
        candidate = np.random.default_rng(55).standard_normal((2 * 2000, 40))
        tracemalloc.start()
        try:
            select_convex(candidate, 20, components=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * candidate.nbytes

    def test_zero_candidate_rejected(self):
        with pytest.raises(ValueError):
            select_convex(np.zeros((6, 2)), 1, components=2)
