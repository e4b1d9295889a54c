"""Coordinate descent tests: descent, KKT optimality, oracles."""

import numpy as np
import pytest

from seminmf.linalg import least_squares_left, random_gaussian, random_uniform
from seminmf.solver import cd_semi_nmf

from oracles import residual_row_update

TIGHT_2x3 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])


def monotone_slack(errors, M):
    return 1e-12 * max(errors[0], float(np.linalg.norm(M)))


class TestCdSemiNmf:
    def test_exact_start_stays_exact(self):
        U = random_gaussian(6, 3, seed=1)
        V = random_uniform(3, 9, seed=2) + 0.01
        M = U @ V
        fact, trace = cd_semi_nmf(M, V, max_iter=5)
        assert trace.errors[0] <= 1e-10 * np.linalg.norm(M)
        assert fact.frob_error <= 1e-10 * np.linalg.norm(M)
        assert np.all(trace.errors <= trace.errors[0] + monotone_slack(trace.errors, M))

    def test_plane_spanning_fixture_reaches_zero(self):
        # width 3 admits an exact factorization of this 2x3 matrix
        V0 = random_uniform(3, 3, seed=5)
        fact, trace = cd_semi_nmf(TIGHT_2x3, V0, max_iter=500)
        assert fact.frob_error <= 1e-6

    def test_monotone_descent(self):
        for seed in range(5):
            M = random_gaussian(12, 18, seed=seed)
            V0 = random_uniform(4, 18, seed=seed + 10)
            _, trace = cd_semi_nmf(M, V0, max_iter=60)
            slack = monotone_slack(trace.errors, M)
            assert np.all(np.diff(trace.errors) <= slack)

    def test_v_stays_nonnegative(self):
        M = random_gaussian(8, 11, seed=3)
        V0 = random_uniform(3, 11, seed=4)
        fact, _ = cd_semi_nmf(M, V0, max_iter=30)
        assert fact.V.min() >= 0.0

    def test_early_stop(self):
        M = random_gaussian(10, 14, seed=6)
        V0 = random_uniform(3, 14, seed=7)
        _, trace = cd_semi_nmf(M, V0, max_iter=500, rel_tol=1e-5)
        assert trace.iterations_run < 500

    def test_kkt_at_convergence(self):
        # rank-one runs converge at a linear rate, so the stall tolerance
        # leaves them at a genuine stationary point
        for seed in range(6):
            M = random_gaussian(7, 9, seed=seed)
            V0 = random_uniform(1, 9, seed=seed + 100)
            fact, _ = cd_semi_nmf(M, V0, max_iter=2000, rel_tol=1e-15)
            U, V = fact.U, fact.V
            gi = (M - U @ V).T @ U[:, 0]
            gi /= np.linalg.norm(M) * np.linalg.norm(U[:, 0])
            active = V[0] > 0
            assert np.all(np.abs(gi[active]) <= 1e-6)
            assert np.all(gi[~active] <= 1e-6)

    def test_kkt_at_exact_solution(self):
        # exact-width instances converge to zero error where the
        # stationarity conditions hold trivially
        U = random_gaussian(8, 3, seed=50)
        V = random_uniform(3, 12, seed=51) + 0.01
        M = U @ V
        fact, _ = cd_semi_nmf(M, random_uniform(3, 12, seed=52), max_iter=400)
        G = (M - fact.U @ fact.V).T @ fact.U
        assert fact.frob_error <= 1e-8 * np.linalg.norm(M)
        assert np.abs(G).max() <= 1e-6 * np.linalg.norm(M) * np.linalg.norm(fact.U)

    def test_rejects_negative_v0(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cd_semi_nmf(np.ones((2, 3)), -np.ones((2, 3)), max_iter=1)

    def test_rejects_bad_maxiter(self):
        with pytest.raises(ValueError, match="max_iter"):
            cd_semi_nmf(np.ones((2, 3)), np.ones((2, 3)), max_iter=0)

    def test_zero_v0_row_recovers(self):
        # a zero V0 row yields a zero U column after the first solve; the
        # re-seed gives it the leading residual direction and the row
        # becomes active without breaking descent
        M = random_gaussian(6, 9, seed=12)
        V0 = random_uniform(3, 9, seed=13)
        V0[2] = 0.0
        fact, trace = cd_semi_nmf(M, V0, max_iter=40)
        slack = monotone_slack(trace.errors, M)
        assert np.all(np.diff(trace.errors) <= slack)
        assert np.linalg.norm(fact.V[2]) > 0


class TestResidualRowUpdate:
    def test_rank1_matches_grid_search(self):
        # dense grid over v >= 0 as an independent oracle for 2x2 inputs
        M = np.array([[1.0, -0.4], [0.3, 2.0]])
        u = np.array([[0.8], [-0.6]])
        V = np.zeros((1, 2))
        row = residual_row_update(M, u, V, 0)
        grid = np.linspace(0.0, 5.0, 401)
        best = None
        for v0 in grid:
            for v1 in grid:
                err = np.linalg.norm(M - u @ np.array([[v0, v1]]))
                if best is None or err < best[0]:
                    best = (err, v0, v1)
        got = np.linalg.norm(M - u @ row[None, :])
        assert got <= best[0] + 1e-6
        np.testing.assert_allclose(row, [best[1], best[2]], atol=2e-2)

    def test_kkt_signs_after_update(self):
        M = random_gaussian(7, 10, seed=20)
        U = random_gaussian(7, 3, seed=21)
        V = random_uniform(3, 10, seed=22)
        for i in range(3):
            V[i] = residual_row_update(M, U, V, i)
            g = (M - U @ V).T @ U[:, i]
            scale = np.linalg.norm(M) * np.linalg.norm(U[:, i])
            assert np.all(g[V[i] > 0] <= 1e-8 * scale)
            assert np.all(np.abs(g[V[i] > 0]) <= 1e-8 * scale)
            assert np.all(g[V[i] == 0] <= 1e-8 * scale)

    def test_idempotent(self):
        M = random_gaussian(6, 8, seed=23)
        U = random_gaussian(6, 2, seed=24)
        V = random_uniform(2, 8, seed=25)
        V[0] = residual_row_update(M, U, V, 0)
        again = residual_row_update(M, U, V, 0)
        np.testing.assert_allclose(again, V[0], rtol=0, atol=1e-14)

    def test_rejects_zero_column(self):
        U = np.ones((4, 2))
        U[:, 1] = 0.0
        with pytest.raises(ValueError, match="numerically zero"):
            residual_row_update(np.ones((4, 5)), U, np.ones((2, 5)), 1)

    def test_each_update_descends(self):
        M = random_gaussian(9, 12, seed=26)
        U = random_gaussian(9, 4, seed=27)
        V = random_uniform(4, 12, seed=28)
        err = np.linalg.norm(M - U @ V)
        for i in range(4):
            V[i] = residual_row_update(M, U, V, i)
            new_err = np.linalg.norm(M - U @ V)
            assert new_err <= err + 1e-12 * max(err, np.linalg.norm(M))
            err = new_err


class TestRankOneIdentity:
    def test_error_identity(self):
        # for unit v and u = M v the squared error is ||M||^2 - v'(M'M)v
        rng = np.random.default_rng(30)
        for _ in range(100):
            M = rng.standard_normal((6, 5))
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            u = M @ v
            lhs = np.linalg.norm(M - np.outer(u, v)) ** 2
            rhs = np.linalg.norm(M) ** 2 - v @ (M.T @ M) @ v
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
