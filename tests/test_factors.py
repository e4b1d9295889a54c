"""Exact construction tests: lift, sign flip, rank-preserving correction, semi rank."""

import numpy as np
import pytest

from seminmf.exceptions import NumericalError
from seminmf.factors import (
    _clamp_dust,
    exact_semi_nmf_same_rank,
    lift_rank_plus_one,
    semi_rank,
    sign_flip,
)
from seminmf.halfspace import (
    ZERO_TOL,
    closed_form_certificate,
    lp_feasibility,
    nnls_certificate,
    nonzero_columns,
)
from seminmf.linalg import pow2_scale, random_gaussian, random_uniform, thin_svd

from oracles import oracle_sign_flip

TIGHT_2x3 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
ASYM_3x3 = np.array([[-1.0, 0.0, -1.0], [0.0, -1.0, -1.0], [1.0, 1.0, 2.0]])


# dust is measured against max|V| alone, so the verdict does not depend on
# the scale of V: at 2**-600 an entry of -max|V|/2 is still rejected
@pytest.mark.parametrize("k", [-600, 0, 600])
class TestClampDust:
    def test_clamps_dust(self, k):
        V, clamped = _clamp_dust(np.ldexp([[1.0, -1e-13], [0.0, 1.0]], k))
        assert V.min() == 0.0
        assert clamped == np.ldexp(1e-13, k)

    def test_rejects_genuine_negative(self, k):
        with pytest.raises(NumericalError, match="negative"):
            _clamp_dust(np.ldexp([[1.0, -0.5], [0.0, 1.0]], k))


class TestLift:
    def test_hand_worked_example(self):
        A = np.array([[1.0], [1.0]])
        B = np.array([[1.0, -1.0]])
        U, V = lift_rank_plus_one(A, B)
        np.testing.assert_allclose(U, [[1.0, -1.0], [1.0, -1.0]])
        np.testing.assert_allclose(V, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(U @ V, A @ B, atol=1e-15)

    def test_nonnegative_b_gets_no_shift(self):
        A = random_gaussian(4, 2, seed=1)
        B = random_uniform(2, 5, seed=2)
        _, V = lift_rank_plus_one(A, B)
        np.testing.assert_allclose(V[:2], B)
        np.testing.assert_allclose(V[2], 0.0)

    def test_exact_product_and_nonnegativity(self):
        A = random_gaussian(5, 3, seed=3)
        B = random_gaussian(3, 8, seed=4)
        U, V = lift_rank_plus_one(A, B)
        assert V.min() >= 0.0
        assert np.linalg.norm(A @ B - U @ V) <= 1e-10 * np.linalg.norm(A @ B)

    def test_property_sweep(self):
        # exactness and nonnegativity across many shapes (acceptance-grade)
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, k, n = rng.integers(1, 21, size=3)
            A = rng.standard_normal((m, k))
            B = rng.standard_normal((k, n))
            U, V = lift_rank_plus_one(A, B)
            assert V.min() >= 0.0
            assert np.linalg.norm(A @ B - U @ V) <= 1e-10 * max(np.linalg.norm(A @ B), 1e-30)


class TestSignFlip:
    def test_negative_row_flips(self):
        A = np.ones((2, 1))
        B = np.array([[-1.0, -2.0]])
        A2, B2 = sign_flip(A, B)
        np.testing.assert_array_equal(B2, [[1.0, 2.0]])
        np.testing.assert_array_equal(A2, -A)

    def test_positive_row_unchanged(self):
        A = np.ones((2, 1))
        B = np.array([[1.0, 2.0]])
        A2, B2 = sign_flip(A, B)
        np.testing.assert_array_equal(B2, B)
        np.testing.assert_array_equal(A2, A)

    def test_product_exactly_preserved(self):
        for seed in range(10):
            A = random_gaussian(6, 4, seed=seed)
            B = random_gaussian(4, 9, seed=seed + 100)
            A2, B2 = sign_flip(A, B)
            assert np.array_equal(A2 @ B2, A @ B)

    def test_rows_end_with_positive_max(self):
        for seed in range(10):
            B = random_gaussian(5, 7, seed=seed)
            _, B2 = sign_flip(np.eye(5), B)
            assert np.all(B2.max(axis=1) > 0)

    @pytest.mark.parametrize("k", [-600, 0, 600])
    def test_matches_the_row_loop_oracle(self, k):
        rng = np.random.default_rng(k + 600)
        B = np.ldexp(rng.standard_normal((9, 6)), k)
        B[0] = np.ldexp([1.0, -1.0, 0.5, -0.5, 0.0, 0.0], k)  # tie: min = -max
        B[1] = np.ldexp([-2.0, 2.0, 1.0, 0.0, -1.0, 0.0], k)  # tie through a zero
        B[2] = 0.0
        B[3] = -0.0
        B[4] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
        B[5] = np.abs(B[5])
        B[6] = -np.abs(B[6])
        A = np.ldexp(rng.standard_normal((4, 9)), k)
        A[:, 3] = -0.0
        cases = [(A, B), (A[:, :0], B[:0]), (A, B[:, :0]), (A[:, :1], B[:1])]
        for A_, B_ in cases:
            got, want = sign_flip(A_, B_), oracle_sign_flip(A_, B_)
            for x, y in zip(got, want):
                assert x.shape == y.shape
                # bitwise, so the sign of every zero counts too
                assert x.tobytes() == y.tobytes()


class TestExactSameRank:
    def test_nonnegative_b_identity(self):
        A = random_gaussian(5, 3, seed=5)
        B = random_uniform(3, 7, seed=6) + 0.05
        y = np.ones(3) / B.sum(axis=0).min() * 1.01  # positive-margin witness
        U, V, _ = exact_semi_nmf_same_rank(A, B, y)
        np.testing.assert_allclose(V, B, atol=1e-12)
        np.testing.assert_allclose(U, A, atol=1e-12)

    def test_fixture_rank2(self):
        rep = semi_rank(ASYM_3x3)
        assert rep.semi_rank == 2
        assert rep.factorization.frob_error <= 1e-9

    def test_random_semi_nonnegative_exact(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((8, 3)) @ rng.random((3, 12))
        rep = semi_rank(M)
        assert rep.rank == 3 and rep.semi_rank == 3
        assert rep.factorization.frob_error <= 1e-8 * np.linalg.norm(M)
        assert rep.factorization.V.min() >= 0.0

    def test_y_alpha_strictly_above_minus_one(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            M = rng.standard_normal((6, 3)) @ rng.random((3, 10))
            A, B = sign_flip(*thin_svd(M).pair(3))
            cert = lp_feasibility(B)
            assert cert.feasible
            alpha_parts = np.maximum(0.0, (-B / np.maximum(B.T @ cert.z, 1e-12)).max(axis=1))
            assert float(cert.z @ alpha_parts) > -1.0 + 1e-9

    def test_witness_with_tiny_x_is_exact(self):
        # x = B'y = (3 - 1e-13, 1e-13): alpha divides by x_2 itself, so the
        # -1 entry clears exactly and no V entry is clamped as dust
        A, B = np.eye(2), np.array([[1.0, -1.0], [1.0, 2.0]])
        U, V, clamped = exact_semi_nmf_same_rank(A, B, np.array([2.0 - 1e-13, 1.0]))
        assert clamped == 0.0
        assert np.linalg.norm(A @ B - U @ V) == 0.0

    def test_rank_zero_is_returned_unchanged(self):
        A, B = np.zeros((3, 0)), np.zeros((0, 4))
        U, V, clamped = exact_semi_nmf_same_rank(A, B, np.zeros(0))
        assert U.shape == (3, 0) and V.shape == (0, 4) and clamped == 0.0

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: lift_rank_plus_one(np.ones((3, 2)), np.ones((3, 4))), "not conformable"),
            (lambda: sign_flip(np.ones((3, 2)), np.ones((3, 4))), "not conformable"),
            (lambda: exact_semi_nmf_same_rank(np.ones((3, 2)), np.ones((2, 4)), np.ones(3)),
             "inconsistent shapes"),
            (lambda: exact_semi_nmf_same_rank(np.ones((3, 2)), np.ones((2, 4)), -np.ones(2)),
             "does not satisfy B.T y > 0"),
        ],
        ids=["lift", "sign_flip", "same_rank-shapes", "same_rank-witness"],
    )
    def test_rejects_inconsistent_input(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_requires_positive_row_max(self):
        A = np.eye(2)
        B = np.array([[-1.0, -2.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="positive maximum"):
            exact_semi_nmf_same_rank(A, B, np.array([1.0, 1.0]))


# rank 2 with a feasible certificate, where the first correction lands on
# y.alpha = -1 (the Sherman-Morrison pole) and alpha has to be scaled
POLE_CASES = [
    [[-2, -1, 3, 3], [-3, -3, -3, 3]],
    [
        [2, 4, -1, 1, 2, 1, 4],
        [4, 2, 1, 2, 4, 2, 2],
        [0, 2, -1, 0, 0, 0, 2],
        [0, 2, -1, 0, 0, 0, 2],
        [4, 4, 0, 2, 4, 2, 4],
    ],
]


def right_factor_columns(M, r):
    """The nonzero columns of M's sign-flipped rank-r right factor, as
    ``semi_rank`` tests them."""
    M = M / pow2_scale(M)
    _, B = sign_flip(*thin_svd(M).pair(r))
    return B[:, nonzero_columns(B)]


@pytest.mark.parametrize("rows", POLE_CASES)
def test_nnls_witness_on_the_pole(rows):
    # the correction stays exact when the witness comes from NNLS
    M = np.array(rows, dtype=float)
    M = M / pow2_scale(M)
    A, B = sign_flip(*thin_svd(M).pair(2))
    cert = nnls_certificate(B[:, nonzero_columns(B)])
    assert cert.feasible and cert.method == "nnls"
    U, V, _ = exact_semi_nmf_same_rank(A, B, cert.z)
    assert V.min() >= 0.0
    assert np.linalg.norm(M - U @ V) <= 1e-9 * np.linalg.norm(M)


def test_centroid_witness_on_the_pole():
    # the centroid of the normalized columns of POLE_CASES[1]'s right factor
    # puts the first correction on the pole; the scaled one must be exact
    M = np.array(POLE_CASES[1], dtype=float)
    M = M / pow2_scale(M)
    A, B = sign_flip(*thin_svd(M).pair(2))
    keep = nonzero_columns(B)
    C = B[:, keep]
    y = (C / np.linalg.norm(C, axis=0)).sum(axis=1)
    x = C.T @ y
    assert x.min() > 0.0
    alpha = np.maximum(0.0, (-C / x).max(axis=1))
    assert abs(1.0 + y @ alpha) < 0.5
    U, V, _ = exact_semi_nmf_same_rank(A, B, y)
    assert V.min() >= 0.0
    assert np.linalg.norm(M - U @ V) <= 1e-9 * np.linalg.norm(M)


class TestSemiRank:
    @pytest.mark.parametrize("rows", POLE_CASES)
    def test_pole_of_the_correction_is_avoided(self, rows):
        M = np.array(rows, dtype=float)
        rep = semi_rank(M)
        assert (rep.rank, rep.semi_rank) == (2, 2)
        assert rep.certificate.feasible
        assert rep.factorization.V.min() >= 0.0
        err = np.linalg.norm(M - rep.factorization.U @ rep.factorization.V)
        assert err <= 1e-9 * np.linalg.norm(M)

    @pytest.mark.parametrize("k", [-600, 0, 600])
    @pytest.mark.parametrize("feasible", [True, False])
    def test_power_of_two_scale_invariance(self, k, feasible):
        # at 2**-600 the column norms underflow and at 2**600 the error
        # overflows unless the matrix is normalized first
        if feasible:
            M = random_gaussian(6, 9, seed=5)
        else:
            M = random_gaussian(6, 3, seed=5) @ random_gaussian(3, 9, seed=6)
        ref, rep = semi_rank(M), semi_rank(np.ldexp(M, k))
        assert (rep.rank, rep.semi_rank) == (ref.rank, ref.semi_rank)
        assert rep.certificate.feasible == ref.certificate.feasible == feasible
        if feasible:
            assert np.array_equal(rep.certificate.z, ref.certificate.z)
            assert rep.certificate.margin == ref.certificate.margin
        f, f0 = rep.factorization, ref.factorization
        assert np.array_equal(f.V, f0.V)
        assert np.array_equal(f.U, np.ldexp(f0.U, k))
        assert f.frob_error == np.ldexp(f0.frob_error, k)
        assert np.isfinite(f.U).all() and np.isfinite(f.frob_error)
        assert f0.frob_error <= 1e-9 * np.linalg.norm(M)

    def test_plane_spanning_fixture(self):
        rep = semi_rank(TIGHT_2x3)
        assert (rep.rank, rep.semi_rank) == (2, 3)
        assert not rep.certificate.feasible
        assert rep.factorization.frob_error <= 1e-9
        assert rep.factorization.V.min() >= 0.0

    def test_transpose_asymmetry(self):
        assert semi_rank(ASYM_3x3).semi_rank == 2
        assert semi_rank(ASYM_3x3.T).semi_rank == 3

    @pytest.mark.parametrize(
        "right, method, lp_calls", [("uniform", "e1", 0), ("gaussian", "nnls", 0)]
    )
    def test_nnls_only_when_the_closed_form_misses(
        self, simplex_pivots, right, method, lp_calls
    ):
        # exact-rank-shaped products: a nonnegative right factor puts the
        # leading right singular vector in the open positive orthant; the
        # Gaussian twin is infeasible and settled by NNLS, with no LP
        rng = np.random.default_rng(2026)
        A = rng.standard_normal((200, 80))
        B = rng.random((80, 400)) if right == "uniform" else rng.standard_normal((80, 400))
        rep = semi_rank(A @ B)
        assert rep.rank == 80
        assert rep.certificate.method == method
        assert rep.certificate.feasible == (right == "uniform")
        assert len(simplex_pivots) == lp_calls
        assert rep.certificate.pivots == sum(simplex_pivots)
        if method == "nnls":
            assert rep.certificate.support.size <= rep.rank + 1
            assert rep.certificate.distance <= ZERO_TOL

    def test_gordan_support_indexes_columns_of_m(self):
        # zero columns are dropped before the test; the reported support
        # must still name columns of M.  The weights are on the normalized
        # right-factor columns b_j, so weights / ||b_j|| combine M's to 0
        M = np.hstack([np.zeros((2, 2)), TIGHT_2x3[:, :2], np.zeros((2, 1)), TIGHT_2x3[:, 2:]])
        cert = semi_rank(M).certificate
        assert not cert.feasible
        np.testing.assert_array_equal(cert.support, [2, 3, 5])
        b_norms = np.linalg.norm(thin_svd(M).Vt[:2, cert.support], axis=0)
        assert np.linalg.norm(M[:, cert.support] @ (cert.weights / b_norms)) <= ZERO_TOL

    @pytest.mark.parametrize("lift", [1e-17, 1e-13, 1.8e-12, 1e-9, 1e-6])
    def test_borderline_lift_verdict(self, lift):
        # TIGHT_2x3 lifted by a first row of relative size lift: feasible
        # exactly when the closed form certifies the right factor or the
        # NNLS witness verifies, and exact with V >= 0 either way
        M = np.vstack([lift * np.linalg.norm(TIGHT_2x3, axis=0), TIGHT_2x3])
        rep = semi_rank(M)
        C = right_factor_columns(M, rep.rank)
        expected = closed_form_certificate(C) is not None or nnls_certificate(C).feasible
        assert rep.certificate.feasible == expected
        assert rep.semi_rank == rep.rank + (not expected)
        f = rep.factorization
        assert f.V.min() >= 0.0
        assert np.linalg.norm(M - f.U @ f.V) <= 1e-9 * np.linalg.norm(M)

    def test_one_svd(self, svd_calls):
        semi_rank(random_gaussian(6, 9, seed=1))
        assert len(svd_calls) == 1

    def test_certificate_tests_the_columns_v_keeps(self):
        # M = u v^T with v_2 at 3e-13 of max v: column 2 of the right factor
        # is below the zero-column cutoff, so V[:, 2] = 0, and the witness
        # must not be set by it (with it, ||z|| ~ 6.5e12)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(100)
        v = rng.uniform(0.5, 1.5, 6)
        v[2] = 3e-13 * v.max()
        M = np.outer(u, v)
        rep = semi_rank(M)
        C = right_factor_columns(M, rep.rank)
        expected = closed_form_certificate(C) or nnls_certificate(C)
        np.testing.assert_array_equal(rep.certificate.z, expected.z)
        assert np.linalg.norm(rep.certificate.z) < 10.0
        np.testing.assert_array_equal(rep.factorization.V[:, 2], 0.0)
        assert rep.factorization.frob_error <= 1e-9 * np.linalg.norm(M)

    def test_zero_matrix(self):
        rep = semi_rank(np.zeros((3, 5)))
        assert (rep.rank, rep.semi_rank) == (0, 0)
        assert rep.factorization.U.shape == (3, 0)
        assert rep.factorization.V.shape == (0, 5)
        assert rep.factorization.frob_error == 0.0

    def test_gap_is_zero_or_one(self):
        for seed in range(15):
            M = random_gaussian(4, 8, seed=seed)
            rep = semi_rank(M)
            assert rep.semi_rank - rep.rank in (0, 1)
            assert (rep.semi_rank == rep.rank) == rep.certificate.feasible

    def test_nonnegative_matrices_have_equal_ranks(self):
        for seed in range(15):
            M = random_uniform(5, 9, seed=seed)
            rep = semi_rank(M)
            assert rep.semi_rank == rep.rank
            assert rep.factorization.frob_error <= 1e-8 * np.linalg.norm(M)

    def test_full_column_rank_equals_n(self):
        for seed in range(15):
            M = random_gaussian(9, 4, seed=seed)
            rep = semi_rank(M)
            assert rep.rank == 4 and rep.semi_rank == 4

    def test_zero_columns_map_to_zero_columns(self):
        M = random_gaussian(4, 5, seed=99)
        M[:, 2] = 0.0
        rep = semi_rank(M)
        np.testing.assert_array_equal(rep.factorization.V[:, 2], 0.0)
        assert rep.factorization.frob_error <= 1e-8 * np.linalg.norm(M)

    def test_lift_zeroes_columns_below_the_cutoff(self):
        # a nonzero column below the cutoff is zeroed before the lift,
        # whose shift would otherwise leave it nonzero in V
        M = np.hstack([TIGHT_2x3, [[3e-14], [-1e-14]]])
        rep = semi_rank(M)
        assert rep.semi_rank == 3
        np.testing.assert_array_equal(rep.factorization.V[:, 3], 0.0)
        assert rep.factorization.frob_error <= 1e-13

    def test_matrix_level_cross_check(self):
        # the verdict on the rank-revealing right factor must agree with
        # testing the matrix columns directly
        for seed in range(12):
            M = random_gaussian(5, 9, seed=seed)
            rep = semi_rank(M)
            assert lp_feasibility(M).feasible == rep.certificate.feasible

    def test_perturbation_preserves_feasibility(self):
        # columns closer to M than their half-space margin stay feasible
        rng = np.random.default_rng(13)
        for seed in range(10):
            M = random_gaussian(6, 4, seed=seed) @ random_uniform(4, 10, seed=seed + 50)
            cert = lp_feasibility(M)
            assert cert.feasible
            z = cert.z / np.linalg.norm(cert.z)
            margins = M.T @ z
            E = rng.standard_normal(M.shape)
            E *= 0.9 * margins / np.linalg.norm(E, axis=0)
            assert lp_feasibility(M + E).feasible
