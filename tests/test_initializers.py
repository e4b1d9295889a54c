"""Initializer tests: the four strategies and their guarantees."""

import numpy as np
import pytest

from seminmf.bench import quality
from seminmf.halfspace import lp_feasibility, nonzero_columns
from seminmf.initializers import InitStrategy, init_a2, init_a3, init_km, init_rd, initialize
from seminmf.linalg import (
    best_rank_error,
    least_squares_left,
    random_gaussian,
    random_uniform,
    thin_svd,
)
from seminmf.factors import sign_flip
from seminmf.solver import cd_semi_nmf


class TestRd:
    def test_range_and_shape(self):
        M = random_gaussian(6, 11, seed=0)
        V0 = init_rd(M, 4, seed=1)
        assert V0.shape == (4, 11)
        assert np.all(V0 >= 0) and np.all(V0 < 1)

    def test_deterministic(self):
        M = random_gaussian(4, 7, seed=0)
        assert np.array_equal(init_rd(M, 3, seed=5), init_rd(M, 3, seed=5))

    def test_seeds_differ(self):
        M = random_gaussian(4, 7, seed=0)
        assert (init_rd(M, 3, seed=1) != init_rd(M, 3, seed=2)).any()


class TestKm:
    def test_indicator_plus_offset(self):
        M = random_gaussian(5, 12, seed=2)
        V0 = init_km(M, 3, seed=3)
        for j in range(12):
            col = np.sort(V0[:, j])
            np.testing.assert_allclose(col[:-1], 0.2)
            assert col[-1] == pytest.approx(1.2)

    def test_column_sums(self):
        M = random_gaussian(5, 9, seed=4)
        V0 = init_km(M, 4, seed=5)
        np.testing.assert_allclose(V0.sum(axis=0), 1.0 + 0.2 * 4)

    def test_r_equals_one(self):
        M = random_gaussian(3, 6, seed=6)
        np.testing.assert_allclose(init_km(M, 1, seed=7), 1.2)


class TestA2:
    def test_exactly_representable_matrix(self):
        # a rank-2 matrix at r = 3 starts with zero error
        M = random_gaussian(8, 2, seed=8) @ random_gaussian(2, 10, seed=9)
        U0, V0 = init_a2(M, 3)
        assert np.linalg.norm(M - U0 @ V0) <= 1e-8 * np.linalg.norm(M)

    def test_error_equals_tail(self):
        M = random_gaussian(30, 40, seed=9)
        U0, V0 = init_a2(M, 5)
        err = np.linalg.norm(M - U0 @ V0)
        assert err == pytest.approx(best_rank_error(M, 4), rel=1e-8)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_power_of_two_scale(self, k):
        # the start's error is the rank-3 tail, scaled by 2**k
        M = random_gaussian(20, 30, seed=0)
        U0, V0 = init_a2(np.ldexp(M, k), 4)
        assert V0.min() >= 0.0
        err = np.linalg.norm(M - np.ldexp(U0, -k) @ V0)
        assert err == pytest.approx(best_rank_error(M, 3), rel=1e-12, abs=0.0)

    def test_v0_nonnegative(self):
        for seed in range(5):
            M = random_gaussian(10, 13, seed=seed)
            _, V0 = init_a2(M, 4)
            assert V0.min() >= 0.0

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError, match="r >= 2"):
            init_a2(random_gaussian(5, 5, seed=0), 1)

    def test_descent_stays_below_tail_bound(self):
        M = random_gaussian(20, 25, seed=10)
        r = 4
        _, V0 = init_a2(M, r)
        bound = best_rank_error(M, r - 1) * (1 + 1e-8)
        _, trace = cd_semi_nmf(M, V0, max_iter=40)
        assert np.all(trace.errors <= bound)


class TestA3:
    def test_positive_matrix_is_optimal(self):
        M = random_uniform(15, 25, seed=11) + 0.01
        U0, V0, bis = init_a3(M, 5)
        assert bis.epsilon_star == 0.0
        assert quality(M, U0, V0, 5) <= 1e-6

    def test_semi_nonnegative_product_exact(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((40, 10)) @ rng.random((10, 80))
        U0, V0, bis = init_a3(M, 10)
        assert bis.epsilon_star == 0.0
        assert np.linalg.norm(M - U0 @ V0) <= 1e-6 * np.linalg.norm(M)

    def test_gaussian_v0_still_nonnegative(self):
        M = random_gaussian(20, 40, seed=13)
        _, V0, bis = init_a3(M, 3)
        assert V0.min() >= 0.0

    def test_epsilon_zero_iff_right_factor_fits_half_space(self):
        for seed in range(12):
            M = random_gaussian(8, 14, seed=seed)
            r = 3
            _, B = sign_flip(*thin_svd(M).pair(r))
            _, _, bis = init_a3(M, r)
            assert (bis.epsilon_star == 0.0) == lp_feasibility(B).feasible

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="out of range"):
            init_a3(random_gaussian(4, 6, seed=0), 5)

    def test_epsilon_zero_start_keeps_full_rank_on_the_pole(self):
        # the rank-2 part is test_factors.POLE_CASES[1], whose centroid
        # witness puts the unguarded correction on the Sherman-Morrison
        # pole; the block [0.5] sets a nonzero best rank-2 error
        M = np.zeros((6, 8))
        M[:5, :7] = [
            [2, 4, -1, 1, 2, 1, 4],
            [4, 2, 1, 2, 4, 2, 2],
            [0, 2, -1, 0, 0, 0, 2],
            [0, 2, -1, 0, 0, 0, 2],
            [4, 4, 0, 2, 4, 2, 4],
        ]
        M[5, 7] = 0.5
        svd = thin_svd(M)
        U0, V0, bis = init_a3(M, 2)
        assert bis.epsilon_star == 0.0
        _, B = sign_flip(*svd.pair(2))
        C = B[:, nonzero_columns(B)]
        alpha = np.maximum(0.0, (-C / (C.T @ bis.y_star)).max(axis=1))
        assert abs(1.0 + bis.y_star @ alpha) < 0.5
        assert V0.min() >= 0.0
        assert np.linalg.matrix_rank(V0) == 2
        err = np.linalg.norm(M - U0 @ V0)
        assert err == pytest.approx(svd.tail_error(2), rel=1e-12)


class TestDispatch:
    def test_kinds(self):
        M = random_uniform(8, 12, seed=14) + 0.1
        for kind in ("rd", "km", "a2", "a3"):
            res = initialize(M, 3, InitStrategy(kind=kind, seed=9), thin_svd(M))
            assert res.V0.shape == (3, 12)
            assert res.V0.min() >= 0.0
            if kind in ("a2", "a3"):
                assert res.U0 is not None
            if kind == "a3":
                assert res.bisection is not None

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda M: init_rd(M, 0, seed=0), "r must be >= 1"),
            (lambda M: init_a2(M, 6), "r=6 out of range for a 5x7 matrix"),
        ],
        ids=["rd", "a2"],
    )
    def test_rejects_rank_out_of_range(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(random_gaussian(5, 7, seed=16))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            InitStrategy(kind="xx")

    def test_rd_init_error_matches_least_squares(self):
        M = random_gaussian(7, 10, seed=15)
        res = initialize(M, 3, InitStrategy(kind="rd", seed=16), thin_svd(M))
        U = least_squares_left(M, res.V0)
        assert np.isfinite(np.linalg.norm(M - U @ res.V0))
