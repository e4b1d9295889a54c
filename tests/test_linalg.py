"""Kernel tests: thin SVD, least squares, seeded RNG."""

import numpy as np
import pytest

from seminmf.linalg import (
    as_matrix,
    best_rank_error,
    least_squares_left,
    random_gaussian,
    random_uniform,
    thin_svd,
)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_matrix([[np.inf, 1.0]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix([1.0, 2.0])


class TestTruncatedSvd:
    """thin_svd and its rank-k truncations Svd.pair(k)."""

    def test_diagonal_values(self):
        M = np.diag([3.0, 2.0, 1.0])
        svd = thin_svd(M)
        np.testing.assert_allclose(svd.S[:2], [3.0, 2.0])
        A, B = svd.pair(2)
        assert np.linalg.norm(M - A @ B) == pytest.approx(1.0, rel=1e-12)
        assert svd.tail_error(2) == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix(self):
        svd = thin_svd(np.zeros((4, 5)))
        np.testing.assert_allclose(svd.S, 0.0)
        A, B = svd.pair(1)
        assert np.linalg.norm(A @ B) == 0.0
        assert svd.tail_error(1) == 0.0

    def test_residual_matches_gram_eigenvalues(self):
        # independent oracle: eigendecomposition of M'M gives sigma_i^2
        M = random_gaussian(20, 30, seed=42)
        k = 5
        svd = thin_svd(M)
        A, B = svd.pair(k)
        resid = np.linalg.norm(M - A @ B)
        eigs = np.sort(np.linalg.eigvalsh(M @ M.T))[::-1]
        expected = np.sqrt(np.sum(eigs[k:]))
        assert resid == pytest.approx(expected, rel=1e-8)
        assert svd.tail_error(k) == pytest.approx(expected, rel=1e-8)

    def test_orthonormality(self):
        M = random_gaussian(15, 10, seed=3)
        svd = thin_svd(M)
        assert svd.U.shape == (15, 10) and svd.Vt.shape == (10, 10)
        np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(10), atol=1e-8)
        np.testing.assert_allclose(svd.Vt @ svd.Vt.T, np.eye(10), atol=1e-8)
        assert np.all(np.diff(svd.S) <= 0) and np.all(svd.S >= 0)

    def test_pythagoras(self):
        for seed in range(5):
            M = random_gaussian(12, 9, seed=seed)
            svd = thin_svd(M)
            for k in (1, 3, 7):
                A, B = svd.pair(k)
                resid2 = np.linalg.norm(M - A @ B) ** 2
                total = resid2 + np.sum(svd.S[:k] ** 2)
                assert total == pytest.approx(np.linalg.norm(M) ** 2, rel=1e-6)
                assert svd.tail_error(k) ** 2 == pytest.approx(resid2, rel=1e-6)

    def test_scale_left(self):
        # pair folds the singular values into the left factor
        M = random_gaussian(6, 8, seed=0)
        svd = thin_svd(M)
        A, B = svd.pair(2)
        np.testing.assert_allclose(A @ B, svd.U[:, :2] @ np.diag(svd.S[:2]) @ svd.Vt[:2])

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="out of range"):
            thin_svd(np.eye(3)).pair(k)


class TestBestRankError:
    def test_full_rank_request(self):
        assert best_rank_error(np.eye(3), 3) == 0.0

    def test_diagonal(self):
        assert best_rank_error(np.diag([3.0, 2.0, 1.0]), 1) == pytest.approx(np.sqrt(5.0))

    @pytest.mark.parametrize("k", [-600, 600])
    def test_power_of_two_scale(self, k):
        # sigma^2 under- or overflows at 2**-600 and 2**600; the tail does not
        M = random_gaussian(20, 30, seed=0)
        scaled = best_rank_error(np.ldexp(M, k), 4)
        assert scaled == pytest.approx(np.ldexp(best_rank_error(M, 4), k), rel=1e-12, abs=0.0)


class TestLeastSquaresLeft:
    def test_identity(self):
        V = np.eye(4)
        X = least_squares_left(V, V)
        np.testing.assert_allclose(X, np.eye(4), atol=1e-12)

    def test_scalar_multiple(self):
        V = random_gaussian(3, 7, seed=2)
        X = least_squares_left(2.0 * V, V)
        np.testing.assert_allclose(X, 2.0 * np.eye(3), atol=1e-10)

    def test_gradient_and_random_probe_dominance(self):
        M = random_gaussian(10, 15, seed=7)
        V = random_gaussian(3, 15, seed=8)
        X = least_squares_left(M, V)
        grad = (X @ V - M) @ V.T
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(M) * np.linalg.norm(V)
        resid = np.linalg.norm(M - X @ V)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            cand = X + 0.1 * rng.standard_normal(X.shape)
            assert resid <= np.linalg.norm(M - cand @ V) + 1e-12


    def test_rank_deficient_min_norm(self):
        # duplicated rows make V rank deficient; the minimizer must be
        # orthogonal to every perturbation that leaves X V unchanged
        base = random_gaussian(2, 10, seed=5)
        V = np.vstack([base, base[0]])
        M = random_gaussian(4, 10, seed=6)
        X = least_squares_left(M, V)
        grad = (X @ V - M) @ V.T
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(M) * np.linalg.norm(V)
        null_dir = np.array([1.0, 0.0, -1.0])  # (row0 - row2) of V is zero
        np.testing.assert_allclose(null_dir @ V, 0, atol=1e-12)
        # minimum-norm solution has no component along the null direction
        np.testing.assert_allclose(X @ null_dir, 0, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="column mismatch"):
            least_squares_left(np.ones((2, 3)), np.ones((2, 4)))

    def test_rejects_non_finite_stack(self):
        V = np.ones((2, 2, 3))
        V[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="V contains NaN or Inf entries"):
            least_squares_left(np.ones((2, 3)), V)

    def test_qr_path_matches_lstsq_when_ill_conditioned(self, lstsq_calls):
        # V = Q1 diag(s) Q2' with cond(V) = 1e6 still takes the QR path
        Q1, _ = np.linalg.qr(random_gaussian(8, 8, seed=30))
        Q2, _ = np.linalg.qr(random_gaussian(40, 8, seed=31))
        V = (Q1 * np.logspace(0, -6, 8)) @ Q2.T
        M = random_gaussian(12, 40, seed=32)
        Xt, *_ = np.linalg.lstsq(V.T, M.T, rcond=None)
        want = np.linalg.norm(M - Xt.T @ V)
        lstsq_calls.clear()
        X = least_squares_left(M, V)
        assert lstsq_calls == []
        assert abs(np.linalg.norm(M - X @ V) - want) <= 1e-12 * want

    def test_more_rows_than_columns_falls_back_to_min_norm(self, lstsq_calls):
        # r > n: V has a null space of dimension r - n, so only the
        # pseudoinverse gives the minimum-norm minimizer M pinv(V)
        V = random_gaussian(5, 3, seed=33)
        M = random_gaussian(4, 3, seed=34)
        X = least_squares_left(M, V)
        assert len(lstsq_calls) == 1
        np.testing.assert_allclose(X, M @ np.linalg.pinv(V), atol=1e-12)
        np.testing.assert_allclose(X @ V, M, atol=1e-12)

    def test_stack_is_bitwise_each_solve(self, lstsq_calls):
        # a stack mixing full-rank items with one that has a zero row: each
        # item takes its own path and returns the bits, and the layout, of
        # its own call
        M = random_gaussian(7, 12, seed=35)
        Vs = np.stack([random_uniform(4, 12, seed=36 + k) for k in range(3)])
        Vs[1, 2] = 0.0
        X = least_squares_left(M, Vs)
        assert len(lstsq_calls) == 1
        for Xk, V in zip(X, Vs):
            want = least_squares_left(M, V)
            assert np.array_equal(Xk, want)
            assert Xk.strides == want.strides
        assert len(lstsq_calls) == 2


class TestRandom:
    def test_uniform_range(self):
        U = random_uniform(2, 2, seed=9)
        assert np.all(U >= 0.0) and np.all(U < 1.0)

    def test_gaussian_moments(self):
        G = random_gaussian(1000, 1, seed=10)
        assert abs(G.mean()) < 0.1
        assert abs(G.var() - 1.0) < 0.15

    def test_determinism(self):
        a = random_uniform(5, 4, seed=11)
        b = random_uniform(5, 4, seed=11)
        assert np.array_equal(a, b)
        g1 = random_gaussian(5, 4, seed=11)
        g2 = random_gaussian(5, 4, seed=11)
        assert np.array_equal(g1, g2)

    def test_seeds_differ(self):
        assert not np.array_equal(random_uniform(4, 4, seed=1), random_uniform(4, 4, seed=2))

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 2)])
    def test_bad_dims(self, m, n):
        for draw in (random_uniform, random_gaussian):
            with pytest.raises(ValueError, match=f"dimensions must be positive, got {m}x{n}"):
                draw(m, n, seed=0)

    def test_bad_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            random_uniform(2, 2, seed=-1)
