import math

import numpy as np
import pytest

from sensorplace import linalg
from sensorplace.evaluate import build_model, score_logdet
from sensorplace.pod import SnapshotMatrix, compute_pod
from sensorplace.selection import SensorSelection

from oracles import det_cofactor


class TestThinSvd:
    def test_diagonal(self):
        u, s, v = linalg.thin_svd(np.diag([3.0, 2.0, 1.0]), 3)
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-14)
        # signed permutation of the identity
        np.testing.assert_allclose(np.abs(u), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-14)

    def test_rank_one_exact(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(7)
        b = rng.standard_normal(5)
        m = np.outer(a, b)
        u, s, v = linalg.thin_svd(m, 1)
        recon = s[0] * np.outer(u[:, 0], v[:, 0])
        assert np.linalg.norm(m - recon) <= 1e-12 * np.linalg.norm(m)

    def test_orthonormal_columns_and_gram_eigenvalues(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((20, 8))
        u, s, v = linalg.thin_svd(m, 8)
        np.testing.assert_allclose(u.T @ u, np.eye(8), atol=1e-12)
        # singular values vs. eigenvalues of the 8x8 Gram matrix
        eigs = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        np.testing.assert_allclose(s**2, eigs, rtol=1e-10)
        assert np.all(np.diff(s) <= 0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            linalg.thin_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            linalg.thin_svd(np.eye(3), 0)


    def test_lapack_failure_becomes_non_convergence(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        snapshots = SnapshotMatrix(np.random.default_rng(5).standard_normal((6, 4)))
        with pytest.raises(linalg.NonConvergenceError, match="SVD did not converge"):
            compute_pod(snapshots, 2)


# ln |det| of a square matrix, by both public entry points.
LOG_DETS = (linalg.log_abs_det, lambda m: float(linalg.log_row_volume(m)))


@pytest.mark.parametrize("log_det", LOG_DETS, ids=["log_abs_det", "log_row_volume"])
class TestLogAbsDet:
    def test_identity(self, log_det):
        assert log_det(np.eye(5)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self, log_det):
        assert log_det(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0), rel=1e-12)

    def test_matches_cofactor_expansion(self, log_det):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.standard_normal((6, 6))
            expected = math.log(abs(det_cofactor(m)))
            assert log_det(m) == pytest.approx(expected, rel=1e-9)

    def test_multiplicative(self, log_det):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            lhs = log_det(a @ b)
            rhs = log_det(a) + log_det(b)
            assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("m", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [1.0, 2e-15]]])
def test_singular_is_minus_inf_as_score_logdet_reports_it(m):
    # Exactly dependent rows, and a second pivot below the zero rule's cutoff.
    model = build_model(np.array(m), SensorSelection((0, 1), 1, 2, "file"))
    assert score_logdet(model) == -np.inf
    assert linalg.log_abs_det(m) == -np.inf
    assert linalg.log_row_volume(m) == -np.inf


def test_log_abs_det_rejects_non_square():
    with pytest.raises(ValueError, match="matrix must be square"):
        linalg.log_abs_det(np.ones((2, 3)))


class TestLogRowVolume:
    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ValueError, match="rows span no volume in 2 dimensions"):
            linalg.log_row_volume(np.ones((3, 2)))


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_matrix(np.array([[1.0, np.nan]]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_matrix(np.ones(3))
