"""Coordinate descent tests: descent, KKT optimality, oracles."""

import numpy as np
import pytest

from seminmf.linalg import least_squares_left, random_gaussian, random_uniform
from seminmf.solver import cd_semi_nmf

from oracles import residual_row_update

TIGHT_2x3 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
ILL_POSED_2x3 = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])


def zero_v0_row_input():
    M = random_gaussian(6, 9, seed=12)
    V0 = random_uniform(3, 9, seed=13)
    V0[2] = 0.0
    return M, V0


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

    def test_kkt_at_convergence(self):
        # rank-one runs converge at a linear rate: each of these stalls to
        # a relative improvement of 1e-15 within 90 iterations, so 500
        # leave them at a genuine stationary point
        for seed in range(6):
            M = random_gaussian(7, 9, seed=seed)
            V0 = random_uniform(1, 9, seed=seed + 100)
            fact, _ = cd_semi_nmf(M, V0, max_iter=500)
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
        M, V0 = zero_v0_row_input()
        fact, trace = cd_semi_nmf(M, V0, max_iter=40)
        slack = monotone_slack(trace.errors, M)
        assert np.all(np.diff(trace.errors) <= slack)
        assert np.linalg.norm(fact.V[2]) > 0

    def test_u_norms_grow_on_an_unattained_infimum(self):
        # ILL_POSED_2x3 has no best width-2 semi-NMF: the error keeps
        # falling while ||U||_F grows without bound (ratio 8.0-9.3 here);
        # exact-width products converge with ||U||_F settled (1.001 on
        # test_kkt_at_exact_solution's product, at most 1.12 on others)
        for seed in range(3):
            V0 = random_uniform(2, 3, seed=seed)
            _, trace = cd_semi_nmf(ILL_POSED_2x3, V0, max_iter=1000)
            assert trace.u_norms.shape == trace.errors.shape
            assert trace.u_norms[999] / trace.u_norms[9] > 5
        M = random_gaussian(8, 3, seed=50) @ (random_uniform(3, 12, seed=51) + 0.01)
        _, trace = cd_semi_nmf(M, random_uniform(3, 12, seed=52), max_iter=1000)
        assert trace.u_norms[999] / trace.u_norms[9] < 1.01
        for seed in range(5):
            M = random_gaussian(8, 3, seed=100 + seed) @ (random_uniform(3, 12, seed=200 + seed) + 0.01)
            _, trace = cd_semi_nmf(M, random_uniform(3, 12, seed=300 + seed), max_iter=1000)
            assert trace.u_norms[999] / trace.u_norms[9] < 1.2

    def test_u_norms_and_phase_times(self):
        M = random_gaussian(10, 14, seed=6)
        fact, trace = cd_semi_nmf(M, random_uniform(3, 14, seed=7), max_iter=20)
        assert trace.u_norms[-1] == pytest.approx(np.linalg.norm(fact.U), rel=1e-12)
        phases = (trace.lstsq_s, trace.sweep_s, trace.error_s)
        assert all(t > 0.0 for t in phases)
        assert sum(phases) <= trace.wall_time


class TestOneIteration:
    """One CD iteration against least_squares_left plus the from-scratch row oracle."""

    @staticmethod
    def reference(M, V0):
        U = least_squares_left(M, V0)
        V = V0.copy()
        skipped = []
        for i in range(V.shape[0]):
            try:
                V[i] = residual_row_update(M, U, V, i)
            except ValueError:
                skipped.append(i)
        return U, V, skipped

    def check(self, M, V0):
        U, V, skipped = self.reference(M, V0)
        fact, trace = cd_semi_nmf(M, V0, max_iter=1)
        assert np.linalg.norm(fact.U - U) <= 1e-12 * np.linalg.norm(U)
        assert np.linalg.norm(fact.V - V) <= 1e-12 * np.linalg.norm(V)
        err = np.linalg.norm(M - U @ V)
        assert abs(trace.errors[0] - err) <= 1e-12 * np.linalg.norm(M)
        return skipped, fact

    def test_generic_start(self):
        for seed in range(4):
            M = random_gaussian(9, 13, seed=seed + 70)
            V0 = random_uniform(4, 13, seed=seed + 80)
            skipped, _ = self.check(M, V0)
            assert skipped == []

    def test_degenerate_column_is_skipped(self):
        # M = A V0[:2] + E with the rows of E orthogonal to the row space
        # of V0: the least-squares U is [A, ~0], so U's last column is
        # degenerate while its V row is nonzero (no re-seed) and the
        # sweep must leave that row alone
        V0 = random_uniform(3, 12, seed=90)
        A = random_gaussian(7, 2, seed=91)
        N = random_gaussian(7, 12, seed=92)
        E = N - least_squares_left(N, V0) @ V0
        M = A @ V0[:2] + E
        skipped, fact = self.check(M, V0)
        assert skipped == [2]
        np.testing.assert_array_equal(fact.V[2], V0[2])
        assert np.any(fact.V[:2] != V0[:2])


class TestUSolveBranch:
    """least_squares_left's pseudoinverse fallback runs only on rank-deficient V."""

    def test_full_rank_run_never_falls_back(self, lstsq_calls):
        M = random_gaussian(50, 100, seed=40)
        V0 = random_uniform(10, 100, seed=41)
        _, trace = cd_semi_nmf(M, V0, max_iter=100)
        assert trace.iterations_run == 100
        assert len(lstsq_calls) == 0

    def test_zero_v0_row_falls_back_once(self, lstsq_calls):
        # the zero row makes the first solve rank-deficient; after the
        # re-seed the row is active and every later solve takes the QR path
        M, V0 = zero_v0_row_input()
        cd_semi_nmf(M, V0, max_iter=40)
        assert len(lstsq_calls) == 1


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
