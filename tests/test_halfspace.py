"""Half-space certificate and bisection tests."""

import math

import numpy as np
import pytest

from seminmf.bench import gen_noisy_semi
from seminmf.exceptions import NumericalError
from seminmf.factors import sign_flip
import seminmf.halfspace
from seminmf.halfspace import (
    ZERO_TOL,
    _nnls,
    bisection_epsilon,
    closed_form_certificate,
    halfspace_feasible,
    lp_feasibility,
    nnls_certificate,
    nonzero_columns,
)
from seminmf.initializers import init_a3
from seminmf.linalg import random_gaussian, thin_svd
from seminmf.simplex import SimplexResult

from oracles import oracle_nnls

TIGHT_2x3 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])  # spans the whole plane
BOUNDARY_2x3 = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])  # two antipodal columns


def check_witness(M, cert, zero_tol=1e-12):
    scale = np.abs(M).max(initial=0.0)
    keep = np.linalg.norm(M, axis=0) > zero_tol * scale
    if keep.any():
        assert np.min(M[:, keep].T @ cert.z) >= 1.0 - 1e-9


class TestHalfspaceFeasible:
    def test_plane_spanning_columns_infeasible(self):
        assert not halfspace_feasible(TIGHT_2x3).feasible

    def test_antipodal_boundary_infeasible(self):
        assert not halfspace_feasible(BOUNDARY_2x3).feasible

    def test_positive_matrix_feasible(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M = rng.random((4, 7)) + 0.01
            cert = halfspace_feasible(M)
            assert cert.feasible
            check_witness(M, cert)

    def test_zero_matrix_vacuous(self):
        cert = halfspace_feasible(np.zeros((3, 4)))
        assert cert.feasible and cert.margin == np.inf

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            M = random_gaussian(3, 6, seed=seed)
            scales = rng.uniform(0.2, 5.0, size=6)
            assert (
                halfspace_feasible(M).feasible
                == halfspace_feasible(M * scales).feasible
            )

    def test_zero_column_append_invariance(self):
        for seed in range(8):
            M = random_gaussian(3, 6, seed=seed)
            M_aug = np.hstack([M, np.zeros((3, 2))])
            assert halfspace_feasible(M).feasible == halfspace_feasible(M_aug).feasible

    def test_full_column_rank_feasible_on_right_factor(self):
        # a matrix of rank n has a positive vector in its row space, and
        # a rank-revealing right factor must certify it
        for seed in range(10):
            M = random_gaussian(9, 5, seed=seed)
            _, _, Vt = np.linalg.svd(M, full_matrices=False)
            assert halfspace_feasible(Vt).feasible


class TestPowerOfTwoScale:
    """Verdicts, pivots, witnesses and margins do not depend on a 2**k scale."""

    MATRICES = {
        "infeasible": random_gaussian(3, 9, seed=5),
        "feasible": random_gaussian(6, 3, seed=5) @ np.random.default_rng(1).random((3, 9)),
    }

    @pytest.mark.parametrize("test", [halfspace_feasible, lp_feasibility])
    @pytest.mark.parametrize("kind", sorted(MATRICES))
    @pytest.mark.parametrize("k", [-600, -540, 540, 600])
    def test_extreme_scales_match_unit_scale(self, test, kind, k):
        M = self.MATRICES[kind]
        base, scaled = test(M), test(np.ldexp(M, k))
        assert base.feasible == (kind == "feasible")
        assert scaled.feasible == base.feasible
        assert scaled.pivots == base.pivots > 0
        if base.feasible:
            assert np.array_equal(scaled.z, np.ldexp(base.z, -k))
            assert scaled.margin == base.margin


class TestLpFeasibility:
    def test_single_column(self):
        c = np.array([[3.0], [4.0]])
        cert = lp_feasibility(c)
        assert cert.feasible
        assert float(c[:, 0] @ cert.z) >= 1.0 - 1e-9

    def test_antipodal_infeasible(self):
        C = np.array([[1.0, -1.0], [2.0, -2.0]])
        assert not lp_feasibility(C).feasible

    def test_rejects_zero_column(self):
        with pytest.raises(ValueError, match="nonzero"):
            lp_feasibility(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_unit_vectors_within_half_plane(self):
        rng = np.random.default_rng(11)
        angles = rng.uniform(0.0, 2.8, size=20)  # span < pi
        C = np.vstack([np.cos(angles), np.sin(angles)])
        cert = lp_feasibility(C)
        assert cert.feasible
        # angular-gap oracle: wrap-around gap exceeds pi
        s = np.sort(angles)
        gaps = np.append(np.diff(s), 2 * np.pi - (s[-1] - s[0]))
        assert gaps.max() > np.pi
        check_witness(C, cert)

    def test_witness_margin_normalized(self):
        C = np.array([[2.0, 1.0], [0.5, 3.0]])
        cert = lp_feasibility(C)
        assert cert.margin == pytest.approx(1.0, abs=1e-9)

    def test_failed_witness_verification_raises(self, monkeypatch):
        # an optimum with t = 0 but z+ = z- = 0 has no direction to verify
        def zero_solution(cost, A, b, **kwargs):
            return SimplexResult(x=np.zeros(A.shape[1]), objective=0.0, iterations=1)

        monkeypatch.setattr(seminmf.halfspace, "simplex_min", zero_solution)
        with pytest.raises(NumericalError, match="failed verification"):
            lp_feasibility(np.array([[2.0, 1.0], [0.5, 3.0]]))


def agreement_inputs():
    """Seeded small inputs: Gaussian, semi-nonnegative products, 40%-sparse
    Gaussian and integer matrices, 60 of each."""
    for seed in range(240):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 9), rng.integers(2, 30)
        kind = seed % 4
        if kind == 0:
            M = rng.standard_normal((m, n))
        elif kind == 1:
            k = rng.integers(1, m + 1)
            M = rng.standard_normal((m, k)) @ rng.random((k, n))
        elif kind == 2:
            M = rng.standard_normal((m, n)) * (rng.random((m, n)) > 0.4)
        else:
            M = rng.integers(-3, 4, size=(m, n)).astype(float)
        yield M


def columns_of(M):
    """The nonzero columns of M and of its sign-flipped SVD right factor."""
    svd = thin_svd(M)
    r = int(np.sum(svd.S > 1e-9 * svd.S[0]))
    for X in (M, sign_flip(*svd.pair(r))[1]) if r else (M,):
        yield X[:, nonzero_columns(X)]


class TestClosedForm:
    """closed_form_certificate: verified witnesses, never a boundary input,
    and the LP's verdict on seeded inputs."""

    @pytest.mark.parametrize("C", [TIGHT_2x3, BOUNDARY_2x3], ids=["tight", "boundary"])
    def test_boundary_fixtures_are_not_certified(self, C):
        assert closed_form_certificate(C) is None

    @pytest.mark.parametrize("noise", [1e-17, 1e-13])
    def test_noise_level_margin_is_left_to_the_lp(self, noise):
        # TIGHT_2x3 lifted by a first row of relative size noise: e1 is a
        # witness in exact arithmetic, but below the ZERO_TOL floor
        C = np.vstack([noise * np.linalg.norm(TIGHT_2x3, axis=0), TIGHT_2x3])
        assert np.min(C[0]) > 0.0
        assert closed_form_certificate(C) is None
        assert not lp_feasibility(C).feasible

    def test_antipodal_pairs_one_ulp_apart_stay_infeasible(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 3, 5):
            c = rng.standard_normal(m)
            for i in range(m):
                for toward in (-np.inf, np.inf):
                    d = -c
                    d[i] = np.nextafter(d[i], toward)
                    C = np.column_stack([c, d])
                    assert closed_form_certificate(C) is None
                    assert not lp_feasibility(C).feasible

    def test_verdicts_agree_with_the_lp(self):
        methods = {"e1": 0, "centroid": 0, None: 0}
        for M in agreement_inputs():
            for C in columns_of(M):
                cert = closed_form_certificate(C)
                lp = lp_feasibility(C)
                methods[cert.method if cert else None] += 1
                assert lp.passes == 0
                if cert is not None:
                    assert lp.feasible
                    assert cert.feasible and cert.pivots == cert.passes == 0
                    # the witness, checked without the solver
                    assert np.min(C.T @ cert.z) >= 1.0 - 1e-9
                    assert cert.margin == pytest.approx(1.0, abs=1e-9)
        # both candidates certify, and many inputs are left to the LP
        assert min(methods.values()) >= 50 and sum(methods.values()) >= 400

    @pytest.mark.parametrize("k", [-600, 600])
    def test_power_of_two_scale(self, k):
        decided = set()
        for M in list(agreement_inputs())[:40]:
            for C in columns_of(M):
                base, scaled = closed_form_certificate(C), closed_form_certificate(np.ldexp(C, k))
                if base is None:
                    assert scaled is None
                    continue
                decided.add(base.method)
                assert scaled.method == base.method
                assert np.array_equal(scaled.z, np.ldexp(base.z, -k))
                assert scaled.margin == base.margin
        assert decided == {"e1", "centroid"}

    def test_empty_input_is_left_to_the_lp(self):
        assert closed_form_certificate(np.zeros((3, 0))) is None
        assert lp_feasibility(np.zeros((3, 0))).method == "vacuous"

    def test_unrepresentable_witness_raises(self):
        # every witness of columns of size 2**-1066 lies beyond the float range
        tiny = np.ldexp(np.array([[1.0, 2.0], [1.0, 1.0]]), -1066)
        for test in (closed_form_certificate, nnls_certificate, lp_feasibility):
            with pytest.raises(NumericalError, match="scale 2\\*\\*-10"):
                test(tiny)
        with pytest.raises(NumericalError, match="scale"):
            bisection_epsilon(np.ldexp(TIGHT_2x3, -1066))


def exact_rank_columns(right, seed=2026):
    """The nonzero columns of a seeded 200x400 product with a Gaussian or
    uniform rank-80 right factor, and of its sign-flipped SVD right factor."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((200, 80))
    B = rng.standard_normal((80, 400)) if right == "gaussian" else rng.random((80, 400))
    yield from columns_of(A @ B)


def adversarial_columns():
    """Seeded column sets on which an entering column could look dependent
    or take a nonpositive weight, 100 of each family: near-duplicate
    columns 1e-14 to 1e-6 apart, rows scaled by 1e-8 to 1, a positive
    first row at 1e-12 to 1e-3, and low rank."""
    for seed in range(400):
        rng = np.random.default_rng(seed)
        m, p = rng.integers(2, 9), rng.integers(4, 30)
        C = rng.standard_normal((m, p))
        family = seed % 4
        if family == 0:
            k = p // 2
            C[:, k : 2 * k] = C[:, :k] + 10.0 ** rng.uniform(-14, -6) * rng.standard_normal((m, k))
        elif family == 1:
            C *= 10.0 ** rng.uniform(-8, 0, (m, 1))
        elif family == 2:
            C[0] = 10.0 ** rng.uniform(-12, -3) * np.abs(C[0])
        else:
            k = rng.integers(1, m)
            C = rng.standard_normal((m, k)) @ rng.standard_normal((k, p))
        yield C[:, nonzero_columns(C)]


def least_distance_problem(C):
    """(E, f) of nnls_certificate's NNLS on the columns C."""
    Cn = C / np.linalg.norm(C, axis=0)
    E = np.vstack([Cn, np.ones((1, C.shape[1]))])
    return E, np.eye(E.shape[0])[-1]


def compare_with_the_oracle(cases):
    """Run _nnls and oracle_nnls on each column set.  Asserts equal passes,
    equal nearest points E x, and that each column taken in place of the
    oracle's equals it to rounding.  Returns the support ties, the cases
    that dropped a column, and the largest weight gap on equal supports."""
    ties, drops, weight_gap = 0, 0, 0.0
    for C in cases:
        E, f = least_distance_problem(C)
        x, passes = _nnls(E, f)
        x_ref, passes_ref, drops_ref = oracle_nnls(E, f)
        drops += drops_ref > 0
        assert passes == passes_ref
        # the nearest point E x of the cone is unique, the weights only without ties
        assert np.linalg.norm(E @ (x - x_ref)) <= 1e-12
        support, support_ref = np.flatnonzero(x), np.flatnonzero(x_ref)
        if np.array_equal(support, support_ref):
            weight_gap = max(weight_gap, np.abs(x - x_ref).max())
            continue
        ties += 1
        new, old = np.setdiff1d(support, support_ref), np.setdiff1d(support_ref, support)
        gaps = np.linalg.norm(E[:, new, None] - E[:, None, old], axis=0)
        assert new.size == old.size and (gaps.min(axis=1) <= 1e-12).all()
    return ties, drops, weight_gap


class TestNnlsCertificate:
    """nnls_certificate: each verdict checked without the solver, the LP's
    verdict, invariance, and the iteration cap."""

    @staticmethod
    def check(C, cert):
        if cert.feasible:
            assert cert.method in ("nnls", "vacuous")
            assert np.min(C.T @ cert.z) >= 1.0 - 1e-9
            return
        m = C.shape[0]
        mu, Cn = cert.weights, C[:, cert.support] / np.linalg.norm(C[:, cert.support], axis=0)
        assert cert.method == "nnls" and cert.z is None
        assert cert.support.size <= m + 1 and np.all(np.diff(cert.support) > 0)
        assert mu.min() >= 0.0 and mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert cert.distance == pytest.approx(np.linalg.norm(Cn @ mu), rel=1e-6, abs=1e-15)

    def test_verdicts_verify_and_agree_with_the_lp(self):
        verdicts = []
        for M in agreement_inputs():
            for C in columns_of(M):
                cert = nnls_certificate(C)
                self.check(C, cert)
                assert cert.feasible == lp_feasibility(C).feasible
                verdicts.append(cert.feasible)
        assert len(verdicts) == 480 and 100 <= sum(verdicts) <= 380

    @pytest.mark.parametrize("right", ["gaussian", "uniform"])
    def test_exact_rank_shape(self, right):
        for C in exact_rank_columns(right):
            cert = nnls_certificate(C)
            self.check(C, cert)
            assert cert.feasible == (right == "uniform") == lp_feasibility(C).feasible
            if not cert.feasible:
                assert cert.distance <= ZERO_TOL

    @pytest.mark.parametrize("C", [TIGHT_2x3, BOUNDARY_2x3], ids=["tight", "boundary"])
    def test_boundary_fixtures_are_infeasible_at_distance_zero(self, C):
        cert = nnls_certificate(C)
        self.check(C, cert)
        assert not cert.feasible and not lp_feasibility(C).feasible
        assert cert.distance <= ZERO_TOL

    @pytest.mark.parametrize("lift", [1e-17, 1e-13, 1.8e-12, 1e-9, 1e-7, 1e-6])
    def test_borderline_lift(self, lift):
        # TIGHT_2x3 lifted by a first row of relative size lift is feasible
        # (e1 is a witness in exact arithmetic) at distance about lift.  The
        # NNLS witness verifies only from a distance of about 1e-6; the closed
        # form certifies every lift above ZERO_TOL
        C = np.vstack([lift * np.linalg.norm(TIGHT_2x3, axis=0), TIGHT_2x3])
        cert = nnls_certificate(C)
        self.check(C, cert)
        assert cert.feasible == (lift >= 1e-7)
        if not cert.feasible:
            assert cert.distance == pytest.approx(lift, rel=1e-3, abs=1e-15)
        assert (closed_form_certificate(C) or cert).feasible == (lift > ZERO_TOL)

    def test_pass_counts_are_pinned(self):
        # counted with the refactor-every-pass solver (tests/oracles.py):
        # updating the factorization leaves the pass sequence where it was
        assert [nnls_certificate(C).passes for C in exact_rank_columns("gaussian")] == [82, 82]
        assert nnls_certificate(TIGHT_2x3).passes == 4

    def test_matches_the_refactoring_oracle(self):
        # the Gaussian product of seed 2022 drops a column twice on its right factor
        drop_case = list(exact_rank_columns("gaussian", seed=2022))[1]
        assert oracle_nnls(*least_distance_problem(drop_case))[2] == 2
        cases = [C for M in agreement_inputs() for C in columns_of(M)]
        cases += [C for right in ("gaussian", "uniform") for C in exact_rank_columns(right)]
        ties, drops, weight_gap = compare_with_the_oracle(cases + [drop_case])
        assert weight_gap <= 1e-12
        # agreement input 114 (a 40%-sparse Gaussian) has duplicate unit columns
        assert ties <= 1 and drops >= 100

    def test_matches_the_oracle_on_adversarial_columns(self):
        # the oracle keeps the pass-over rule, so equal passes show that it
        # never fires.  Row scaling leaves the weights ill-conditioned (they
        # differ by up to 5e-11 on equal supports) while E x agrees to 1e-15,
        # and a solver without the reorthogonalization misses E x by 8e-11
        ties, drops, _ = compare_with_the_oracle(adversarial_columns())
        # the low-rank family at rank 1 has columns equal to rounding
        assert ties <= 7 and drops >= 100

    def test_residual_matches_scipy(self):
        nnls = pytest.importorskip("scipy.optimize").nnls
        checked = 0
        for M in list(agreement_inputs())[:60]:
            for C in columns_of(M):
                E, f = least_distance_problem(C)
                _, rnorm = nnls(E, f)
                assert np.linalg.norm(E @ _nnls(E, f)[0] - f) == pytest.approx(rnorm, abs=1e-12)
                checked += 1
        assert checked == 120

    @pytest.mark.parametrize("k", [-600, 600])
    def test_power_of_two_scale_is_bitwise(self, k):
        verdicts = set()
        for M in list(agreement_inputs())[:40]:
            for C in columns_of(M):
                base, scaled = nnls_certificate(C), nnls_certificate(np.ldexp(C, k))
                verdicts.add(base.feasible)
                assert scaled.feasible == base.feasible
                if base.feasible:
                    assert np.array_equal(scaled.z, np.ldexp(base.z, -k))
                    assert scaled.margin == base.margin
                else:
                    assert np.array_equal(scaled.support, base.support)
                    assert np.array_equal(scaled.weights, base.weights)
                    assert scaled.distance == base.distance
        assert verdicts == {True, False}

    def test_column_order_does_not_change_the_verdict(self):
        rng = np.random.default_rng(7)
        for M in list(agreement_inputs())[:80]:
            for C in columns_of(M):
                perm = rng.permutation(C.shape[1])
                cert = nnls_certificate(C[:, perm])
                self.check(C[:, perm], cert)
                assert cert.feasible == nnls_certificate(C).feasible

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(seminmf.halfspace, "NNLS_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="NNLS iteration limit"):
            nnls_certificate(TIGHT_2x3)

    def test_empty_input_is_vacuous(self):
        cert = nnls_certificate(np.zeros((3, 0)))
        assert cert.feasible and cert.method == "vacuous" and cert.passes == 0


class TestBisection:
    def test_nonnegative_b_returns_zero(self):
        # e1 certifies eps = 0 in closed form: no LP is solved
        B = np.random.default_rng(4).random((3, 6)) + 0.1
        res = bisection_epsilon(B)
        assert res.epsilon_star == 0.0
        assert res.lp_calls == res.pivots == 0
        assert np.min(B.T @ res.y_star) >= 1.0 - 1e-9

    def test_plane_spanning_fixture(self):
        res = bisection_epsilon(TIGHT_2x3)
        assert res.epsilon_star > 0.0
        assert res.epsilon_plus == 1.0
        assert res.lp_calls <= 11

    def test_witness_at_epsilon_star(self):
        for seed in range(6):
            B = random_gaussian(3, 8, seed=seed)
            res = bisection_epsilon(B)
            shifted = B + res.epsilon_star
            keep = np.linalg.norm(shifted, axis=0) > 1e-12 * np.abs(shifted).max()
            if keep.any():
                assert np.min(shifted[:, keep].T @ res.y_star) >= 1.0 - 1e-9

    def test_endpoint_feasible_with_scaled_ones(self):
        for seed in range(6):
            B = random_gaussian(4, 6, seed=seed)
            eps_plus = max(0.0, -B.min())
            shifted = B + eps_plus
            keep = np.linalg.norm(shifted, axis=0) > 1e-12 * np.abs(shifted).max()
            y = np.ones(4) / shifted[:, keep].sum(axis=0).min()
            assert np.min(shifted[:, keep].T @ y) >= 1.0 - 1e-12

    def test_epsilon_plus_endpoint_witness(self):
        # every shift below 1 leaves the columns -1+eps and 1+eps antipodal,
        # so all ten midpoints fail and the endpoint's all-ones witness is returned
        B = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        res = bisection_epsilon(B)
        assert res.epsilon_star == res.epsilon_plus == 1.0
        assert res.trace[1] == (1.0, True)
        assert len(res.trace) == 12 and not any(ok for _, ok in res.trace[2:])
        assert res.lp_calls == 11
        assert res.y_star.tolist() == [0.25, 0.25]
        top = B + 1.0
        assert np.min(top[:, nonzero_columns(top)].T @ res.y_star) >= 1.0 - 1e-12

    def test_trace_bracketing(self):
        for seed in range(6):
            B = random_gaussian(4, 10, seed=seed)
            res = bisection_epsilon(B)
            inf_eps = [e for e, ok in res.trace if not ok]
            feas_eps = [e for e, ok in res.trace if ok]
            if inf_eps and feas_eps:
                assert max(inf_eps) < min(feas_eps)

    def test_interval_width_at_default_precision(self):
        B = random_gaussian(5, 12, seed=42)
        res = bisection_epsilon(B)
        if res.epsilon_star > 0:
            inf_eps = [e for e, ok in res.trace if not ok]
            assert res.epsilon_star - max(inf_eps) <= 1e-3 * res.epsilon_plus + 1e-15

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            bisection_epsilon(np.zeros((0, 3)))

    @pytest.mark.parametrize("k", [-600, 0, 600])
    def test_fixed_number_of_halvings(self, k):
        # the eps = 0 test, the eps_plus endpoint and exactly ten halvings,
        # at any scale; the slack covers the rounding of the midpoints
        cases = [TIGHT_2x3] + [random_gaussian(4, 10, seed=seed) for seed in range(8)]
        checked = 0
        for B in cases:
            res = bisection_epsilon(np.ldexp(B, k))
            if res.trace[0][1]:
                continue
            checked += 1
            assert len(res.trace) == 12
            assert res.lp_calls == 11
            inf_eps = max(e for e, ok in res.trace if not ok)
            assert res.epsilon_star - inf_eps <= 2**-10 * res.epsilon_plus * (1 + 1e-12)
        assert checked >= 5


class TestPivotCounts:
    """Pivot counters on the result dataclasses, pinned on seeded inputs.

    The pinned figures are the simplex pivot path of these inputs; a
    change to the pivoting rules or the tableau arithmetic moves them.
    """

    def test_containment_pivots(self, simplex_pivots):
        rng = np.random.default_rng(2026)
        F = rng.standard_normal((20, 20)) @ rng.random((20, 200))
        G = rng.standard_normal((20, 200))
        feasible, infeasible = lp_feasibility(F), lp_feasibility(G)
        assert feasible.feasible and not infeasible.feasible
        assert (feasible.pivots, infeasible.pivots) == (204, 244)
        assert simplex_pivots == [204, 244]

    def test_no_lp_means_no_pivots(self, simplex_pivots):
        assert halfspace_feasible(np.zeros((3, 4))).pivots == 0
        assert bisection_epsilon(np.zeros((3, 4))).pivots == 0
        assert simplex_pivots == []

    @pytest.mark.parametrize(
        "m, n, r, delta, lp_calls, pivots",
        [(50, 100, 10, 5.0, 11, 1441), (100, 200, 80, math.inf, 11, 4711)],
    )
    def test_a3_bisection_pivots(self, simplex_pivots, m, n, r, delta, lp_calls, pivots):
        _, _, bis = init_a3(gen_noisy_semi(m, n, r, delta, seed=1), r)
        assert bis.lp_calls == len(simplex_pivots) == lp_calls
        assert bis.pivots == sum(simplex_pivots) == pivots
