"""Half-space certificate and bisection tests."""

import math

import numpy as np
import pytest

import seminmf.halfspace
from seminmf.bench import gen_noisy_semi
from seminmf.halfspace import bisection_epsilon, halfspace_feasible, lp_feasibility
from seminmf.initializers import init_a3
from seminmf.linalg import random_gaussian

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


class TestBisection:
    def test_nonnegative_b_returns_zero(self):
        B = np.random.default_rng(4).random((3, 6)) + 0.1
        res = bisection_epsilon(B)
        assert res.epsilon_star == 0.0
        assert res.lp_calls == 1

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


@pytest.fixture
def simplex_pivots(monkeypatch):
    """Pivot counts of every simplex solve the half-space layer makes."""
    counts = []
    solve = seminmf.halfspace.simplex_min

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        counts.append(res.iterations)
        return res

    monkeypatch.setattr(seminmf.halfspace, "simplex_min", counted)
    return counts


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
