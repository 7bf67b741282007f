import math

import numpy as np
import pytest

from sensorplace import linalg

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


class TestLogAbsDet:
    def test_identity(self):
        assert linalg.log_abs_det(np.eye(5)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert linalg.log_abs_det(np.diag([2.0, 3.0])) == pytest.approx(
            math.log(6.0), rel=1e-12
        )

    def test_matches_cofactor_expansion(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.standard_normal((6, 6))
            expected = math.log(abs(det_cofactor(m)))
            assert linalg.log_abs_det(m) == pytest.approx(expected, rel=1e-9)

    def test_multiplicative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            lhs = linalg.log_abs_det(a @ b)
            rhs = linalg.log_abs_det(a) + linalg.log_abs_det(b)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_singular_reports_pivot(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(linalg.SingularMatrixError) as info:
            linalg.log_abs_det(m)
        assert info.value.pivot_index == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linalg.log_abs_det(np.ones((2, 3)))


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_matrix(np.array([[1.0, np.nan]]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_matrix(np.ones(3))
