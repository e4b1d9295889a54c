"""Two-phase simplex tests against hand solutions and a vertex-enumeration oracle."""

import itertools

import numpy as np
import pytest

import seminmf.simplex
from seminmf.exceptions import LpInfeasible, LpUnbounded, NumericalError
from seminmf.simplex import simplex_min

from oracles import oracle_dense_pivot


def brute_force_vertices(c, A, b):
    """Optimal value by enumerating basic feasible solutions (tiny LPs only)."""
    m, n = A.shape
    best = np.inf
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x_b = np.linalg.solve(sub, b)
        if np.any(x_b < -1e-9):
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        best = min(best, float(c @ x))
    return best


# max x + y  s.t. x + 2y <= 4, 3x + y <= 6  ->  x=8/5, y=6/5
SIMPLE_MAX = (
    np.array([-1.0, -1.0, 0.0, 0.0]),
    np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]]),
    np.array([4.0, 6.0]),
)

# Beale's cycling example (standard form); Dantzig cycles on it without
# an anti-cycling rule
BEALE = (
    np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]),
    np.array(
        [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    ),
    np.array([0.0, 0.0, 1.0]),
)


class TestKnownSolutions:
    def test_simple_max(self):
        res = simplex_min(*SIMPLE_MAX)
        assert res.objective == pytest.approx(-14.0 / 5.0)
        np.testing.assert_allclose(res.x[:2], [8.0 / 5.0, 6.0 / 5.0])

    def test_equality_constraints(self):
        # min x1 + x2  s.t. x1 + x2 + x3 = 2, x1 - x3 = 0
        c = np.array([1.0, 1.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]])
        b = np.array([2.0, 0.0])
        res = simplex_min(c, A, b)
        assert res.objective == pytest.approx(1.0)  # x1 = x3 = 1, x2 = 0

    def test_negative_rhs_rows_are_flipped(self):
        # -x1 = -3  ->  x1 = 3
        res = simplex_min(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]))
        assert res.x[0] == pytest.approx(3.0)

    def test_infeasible(self):
        # x1 + x2 = -1 with x >= 0
        with pytest.raises(LpInfeasible):
            simplex_min(np.zeros(2), np.array([[1.0, 1.0]]), np.array([-1.0]))

    def test_unbounded(self):
        # min -x1  s.t. x1 - x2 = 0
        with pytest.raises(LpUnbounded):
            simplex_min(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))

    def test_degenerate_cycling_guard(self):
        res = simplex_min(*BEALE)
        assert res.objective == pytest.approx(-0.05)
        assert res.iterations == 5

    def test_bland_rule_after_one_stalled_pivot(self, monkeypatch):
        # the first degenerate pivot switches to Bland's rule, which takes
        # a longer path to the same optimum
        monkeypatch.setattr(seminmf.simplex, "STALL_LIMIT", 1)
        res = simplex_min(*BEALE)
        assert res.objective == pytest.approx(-0.05)
        assert res.iterations == 7

    def test_pivot_budget_exhausted(self):
        with pytest.raises(NumericalError, match="iteration limit"):
            simplex_min(*SIMPLE_MAX, max_iter=1)

    def test_redundant_rows_dropped(self):
        # duplicated constraint leaves an artificial basic at zero
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0])
        res = simplex_min(np.array([0.0, 1.0]), A, b)
        assert res.objective == pytest.approx(0.0)
        assert res.x[0] == pytest.approx(1.0)


class TestRandomAgainstVertexOracle:
    def test_random_lps(self):
        rng = np.random.default_rng(123)
        solved = 0
        for _ in range(60):
            m, n = 3, 6
            A = rng.standard_normal((m, n))
            x_feas = rng.random(n)  # guarantees feasibility of Ax = b
            b = A @ x_feas
            c = rng.standard_normal(n)
            oracle = brute_force_vertices(c, A, b)
            try:
                res = simplex_min(c, A, b)
            except LpUnbounded:
                # unbounded iff no vertex is optimal in a feasible LP with
                # full-row-rank A; the oracle cannot certify that, skip
                continue
            assert res.objective == pytest.approx(oracle, rel=1e-8, abs=1e-8)
            assert np.all(res.x >= -1e-9)
            np.testing.assert_allclose(A @ res.x, b, atol=1e-8)
            solved += 1
        assert solved >= 30


def feasibility_lp(C):
    """The LP of ``lp_feasibility`` on the columns of C: min t, C_n'z + t - s = b."""
    m, p = C.shape
    Cn = C / np.linalg.norm(C, axis=0)
    A = np.hstack([Cn.T, -Cn.T, np.ones((p, 1)), -np.eye(p)])
    b = 1.0 + 1e-3 * (np.arange(p) + 1.0) / p
    cost = np.zeros(2 * m + 1 + p)
    cost[2 * m] = 1.0
    return cost, A, b


class TestSparsePivotAgainstDense:
    """The pivot updates only the columns the pivot row touches; the dense
    rank-1 update of every column must give the same pivots and outputs."""

    @staticmethod
    def _both(monkeypatch, *lp, **kwargs):
        sparse = simplex_min(*lp, **kwargs)
        with monkeypatch.context() as mp:
            mp.setattr(seminmf.simplex, "_pivot", oracle_dense_pivot)
            dense = simplex_min(*lp, **kwargs)
        assert np.array_equal(sparse.x, dense.x)
        assert sparse.objective == dense.objective
        assert sparse.iterations == dense.iterations
        return sparse

    @pytest.mark.parametrize("lp", [BEALE, SIMPLE_MAX], ids=["beale", "simple_max"])
    def test_textbook_lps(self, monkeypatch, lp):
        self._both(monkeypatch, *lp)

    # 200x241 is the gauss-a3 shape (r=20), 100x121 and 100x181 the
    # paper-desk shapes (r=10 and r=40)
    @pytest.mark.parametrize("m, p", [(20, 200), (10, 100), (40, 100)])
    @pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
    def test_feasibility_lps(self, monkeypatch, m, p, feasible):
        rng = np.random.default_rng(m + p)
        # nonnegative combinations of m vectors lie in a half space; p
        # Gaussian columns in R^m almost surely do not
        C = rng.standard_normal((m, m))
        C = C @ rng.random((m, p)) if feasible else rng.standard_normal((m, p))
        lp = feasibility_lp(C)
        assert lp[1].shape == (p, 2 * m + 1 + p)
        res = self._both(monkeypatch, *lp, objective_floor=0.0)
        assert (res.x[2 * m] < 0.5) == feasible
        assert res.iterations > 0
