import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorplace import build_model, score_logdet
from sensorplace.selection import (
    ConvexOptions,
    ConvexSolverError,
    ExhaustionError,
    SelectionBudget,
    SensorSelection,
    select_convex,
    select_random,
    select_scalar_greedy,
    select_vector_greedy,
)

from oracles import exact_step_violations, exhaustive_step_argmax


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

    def test_budget_constraint(self):
        SelectionBudget(sensors=3, components=2, rank=6)
        with pytest.raises(ValueError, match=r"s\*p <= r"):
            SelectionBudget(sensors=4, components=2, rank=6)


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


class TestConvex:
    def test_budget_equals_universe(self):
        rng = np.random.default_rng(51)
        candidate = rng.standard_normal((8, 8))  # s=2, 4 locations, p=4
        sel = select_convex(candidate, 4, components=2)
        assert sorted(sel.locations) == [0, 1, 2, 3]

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

    def test_nonconvergence_raises_with_gradient_norm(self):
        rng = np.random.default_rng(53)
        candidate = rng.standard_normal((2 * 25, 6))
        opts = ConvexOptions(max_iters=1, grad_tol=1e-30)
        with pytest.raises(ConvexSolverError) as info:
            select_convex(candidate, 3, components=2, options=opts)
        assert info.value.gradient_norm > 0.0

    def test_zero_candidate_rejected(self):
        with pytest.raises(ValueError):
            select_convex(np.zeros((6, 2)), 1, components=2)
