import numpy as np
import pytest

from sensorplace import linalg
from sensorplace.pod import (
    PODBasis,
    SnapshotMatrix,
    compute_pod,
    mode_amplitudes,
)


def synthetic_snapshots(n, n_snap, rank, seed, components=1):
    """Known-rank fluctuations around a random mean."""
    rng = np.random.default_rng(seed)
    modes, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    amps = rng.standard_normal((rank, n_snap)) * (2.0 ** -np.arange(rank))[:, None]
    amps -= amps.mean(axis=1, keepdims=True)
    mean = rng.standard_normal(n)
    return SnapshotMatrix(mean[:, None] + modes @ amps, components=components)


class TestSnapshotMatrix:
    def test_rows_must_divide_by_components(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(np.ones((5, 3)), components=2)

    def test_properties(self):
        snaps = SnapshotMatrix(np.ones((6, 4)), components=2)
        assert snaps.dof_per_component == 3


class TestComputePod:
    def test_scaled_orthogonal_columns_match_svd_oracle(self):
        data = np.diag([3.0, 2.0, 1.0])
        basis = compute_pod(SnapshotMatrix(data), 3, center=False)
        _, sigma_oracle, _ = linalg.thin_svd(data, 3)
        np.testing.assert_allclose(basis.singular_values, sigma_oracle, rtol=1e-13)
        np.testing.assert_allclose(basis.singular_values, [3.0, 2.0, 1.0], atol=1e-14)

    def test_exact_truncation_at_true_rank(self):
        snaps = synthetic_snapshots(12, 9, rank=2, seed=21)
        basis = compute_pod(snaps, 2)
        recon = basis.mean[:, None] + basis.modes @ mode_amplitudes(basis, snaps)
        err = np.linalg.norm(recon - snaps.data) / np.linalg.norm(snaps.data)
        assert err <= 1e-10

    def test_first_mode_maximizes_energy(self):
        snaps = synthetic_snapshots(10, 8, rank=5, seed=22)
        basis = compute_pod(snaps, 1)
        centered = snaps.data - snaps.data.mean(axis=1, keepdims=True)
        top_energy = basis.singular_values[0] ** 2
        rng = np.random.default_rng(23)
        for _ in range(200):
            w = rng.standard_normal(10)
            w /= np.linalg.norm(w)
            probe = np.linalg.norm(centered.T @ w) ** 2
            assert top_energy >= probe - 1e-9 * top_energy

    def test_rank_out_of_range(self):
        snaps = synthetic_snapshots(6, 4, rank=2, seed=24)
        with pytest.raises(ValueError):
            compute_pod(snaps, 5)  # more modes than snapshots
        with pytest.raises(ValueError):
            compute_pod(snaps, 0)

    def test_captured_energy_non_decreasing_in_rank(self):
        snaps = synthetic_snapshots(10, 7, rank=6, seed=25)
        energies = []
        for r in range(1, 6):
            basis = compute_pod(snaps, r)
            energies.append(np.sum(basis.singular_values**2))
        assert np.all(np.diff(energies) >= 0)

    def test_mean_stored_and_zero_without_centering(self):
        snaps = synthetic_snapshots(8, 6, rank=3, seed=26)
        centered = compute_pod(snaps, 3)
        np.testing.assert_allclose(centered.mean, snaps.data.mean(axis=1))
        raw = compute_pod(snaps, 3, center=False)
        assert np.all(raw.mean == 0.0)


class TestModeAmplitudes:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(30)
        modes, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        amps = rng.standard_normal((3, 5))
        basis = PODBasis(modes=modes, singular_values=[3.0, 2.0, 1.0])
        snaps = SnapshotMatrix(modes @ amps)
        np.testing.assert_allclose(mode_amplitudes(basis, snaps), amps, atol=1e-10)

    def test_zero_snapshots_give_zero(self):
        basis = PODBasis(modes=np.eye(4, 2), singular_values=[1.0, 0.5])
        out = mode_amplitudes(basis, SnapshotMatrix(np.zeros((4, 3))))
        assert np.all(out == 0.0)

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((6, 10))
        snaps = SnapshotMatrix(data)
        basis = compute_pod(snaps, 6)
        recon = basis.mean[:, None] + basis.modes @ mode_amplitudes(basis, snaps)
        assert np.linalg.norm(recon - data) <= 1e-9 * np.linalg.norm(data)

    def test_projection_is_contractive(self):
        basis = compute_pod(synthetic_snapshots(10, 8, rank=5, seed=32), 4)
        rng = np.random.default_rng(33)
        for _ in range(50):
            w = rng.standard_normal(10)
            assert np.linalg.norm(basis.modes.T @ w) <= np.linalg.norm(w) * (1 + 1e-12)

    def test_dimension_mismatch(self):
        basis = compute_pod(synthetic_snapshots(8, 6, rank=2, seed=34), 2)
        with pytest.raises(ValueError):
            mode_amplitudes(basis, SnapshotMatrix(np.zeros((6, 3))))


class TestPODBasisInvariants:
    def test_non_orthonormal_modes_rejected(self):
        with pytest.raises(ValueError):
            PODBasis(modes=np.ones((4, 2)), singular_values=[1.0, 0.5])

    def test_increasing_singular_values_rejected(self):
        with pytest.raises(ValueError):
            PODBasis(modes=np.eye(4, 2), singular_values=[1.0, 2.0])

    @pytest.mark.parametrize("sigma", [[1.0, np.nan], [np.inf, 1.0]])
    def test_non_finite_singular_values_rejected(self, sigma):
        with pytest.raises(ValueError, match="singular values must be finite"):
            PODBasis(modes=np.eye(4, 2), singular_values=sigma)

    def test_non_finite_mean_rejected(self):
        with pytest.raises(ValueError, match="mean contains non-finite entries"):
            PODBasis(modes=np.eye(4, 2), singular_values=[2.0, 1.0], mean=[0.0, np.nan, 0.0, 0.0])

    def test_singular_value_count_must_match_rank(self):
        with pytest.raises(ValueError, match="expected 2 singular values, got 3"):
            PODBasis(modes=np.eye(4, 2), singular_values=[3.0, 2.0, 1.0])

    def test_mean_length_must_match_rows(self):
        with pytest.raises(ValueError, match="mean has length 3, expected 4"):
            PODBasis(modes=np.eye(4, 2), singular_values=[2.0, 1.0], mean=np.zeros(3))
