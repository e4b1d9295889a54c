"""Two-phase simplex tests against hand solutions and a vertex-enumeration oracle."""

import itertools

import numpy as np
import pytest

import seminmf.simplex
from seminmf.exceptions import LpInfeasible, LpUnbounded, NumericalError
from seminmf.simplex import PIVOT_TOL, _ratio_row, simplex_min

from oracles import oracle_dense_pivot, oracle_dense_ratio_row


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

    def test_drive_out_pivots_are_counted(self, monkeypatch):
        # phase 1 ends after one pivot with two artificials basic at zero;
        # driving them out takes two more pivots, and every one counts
        calls = []
        pivot = seminmf.simplex._pivot
        monkeypatch.setattr(
            seminmf.simplex, "_pivot", lambda *args: (calls.append(args[2:]), pivot(*args))
        )
        A = [[1, 1, 0, 0], [1, 0, 1, 0], [2, 0, 0, 1]]
        res = simplex_min([-1, 0, 0, 0], A, [1, 1, 2])
        assert res.objective == -1.0
        assert len(calls) == res.iterations == 3


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


def random_feasibility_lp(m, p, feasible):
    """``feasibility_lp`` on p columns in R^m, in a half space or not."""
    rng = np.random.default_rng(m + p)
    # nonnegative combinations of m vectors lie in a half space; p
    # Gaussian columns in R^m almost surely do not
    C = rng.standard_normal((m, m))
    C = C @ rng.random((m, p)) if feasible else rng.standard_normal((m, p))
    return feasibility_lp(C)


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
        lp = random_feasibility_lp(m, p, feasible)
        assert lp[1].shape == (p, 2 * m + 1 + p)
        res = self._both(monkeypatch, *lp, objective_floor=0.0)
        assert (res.x[2 * m] < 0.5) == feasible
        assert res.iterations > 0


# the second pivot ties rows 1 and 2 at ratio 0.5/0.5 = 1 exactly; row 2
# holds basis id 2 and row 1 holds 6, so row 2 leaves, not the first tie
TIED_RATIOS = (
    np.array([-2.0, -1.0, 1.0, 1.0, -1.0]),
    np.array([[1.0, 1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 2.0, 1.0, 0.0]]),
    np.array([2.0, 1.0, 1.0]),
)


class TestRatioTestAgainstDense:
    """The ratio test divides only the eligible rows; the full-column
    ratio test must pick the same row on every pivot, so the pivot count
    and the solution are bitwise the same."""

    @staticmethod
    def _both(monkeypatch, *lp, **kwargs):
        """The solve with each ratio test; None where it is unbounded."""
        calls = []

        def counted(tcol, rhs, basis):
            calls.append(1)
            return oracle_dense_ratio_row(tcol, rhs, basis)

        results = []
        for ratio_row in (_ratio_row, counted):
            with monkeypatch.context() as mp:
                mp.setattr(seminmf.simplex, "_ratio_row", ratio_row)
                try:
                    results.append(simplex_min(*lp, **kwargs))
                except LpUnbounded:
                    results.append(None)
        fast, dense = results
        assert calls, "the patched ratio test never ran"
        if fast is None or dense is None:
            assert fast is dense
            return None
        assert fast.iterations == dense.iterations
        assert fast.x.tobytes() == dense.x.tobytes()
        assert fast.objective == dense.objective
        return fast

    @pytest.mark.parametrize("m, p", [(20, 200), (10, 100), (40, 100)])
    @pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
    def test_feasibility_lps(self, monkeypatch, m, p, feasible):
        res = self._both(monkeypatch, *random_feasibility_lp(m, p, feasible), objective_floor=0.0)
        assert (res.x[2 * m] < 0.5) == feasible

    @pytest.mark.parametrize(
        "lp", [BEALE, SIMPLE_MAX, TIED_RATIOS], ids=["beale", "simple_max", "tied_ratios"]
    )
    def test_hand_built_lps(self, monkeypatch, lp):
        self._both(monkeypatch, *lp)

    def test_exact_tie_goes_to_the_smallest_basis_id(self):
        # rows 0, 2 and 4 tie at ratio 1 exactly; row 3 is ineligible
        tcol = np.array([2.0, 1.0, 4.0, PIVOT_TOL, 0.5])
        rhs = np.array([2.0, 3.0, 4.0, 0.0, 0.5])
        basis = np.array([7, 5, 3, 0, 6])
        assert _ratio_row(tcol, rhs, basis) == oracle_dense_ratio_row(tcol, rhs, basis) == 2

    @pytest.mark.parametrize(
        "tied, want", [(1.0 + 1e-11, 0), (1.0 + PIVOT_TOL * (1.0 + 1.0), 0), (1.0 + 1e-9, 1)]
    )
    def test_tie_within_tolerance(self, tied, want):
        # a ratio ties the minimum 1 up to and at 1 + PIVOT_TOL * (1 + 1)
        tcol = np.ones(3)
        rhs = np.array([tied, 1.0, 1.0 + 1e-9])
        basis = np.array([0, 4, 2])
        assert _ratio_row(tcol, rhs, basis) == oracle_dense_ratio_row(tcol, rhs, basis) == want

    # two to three pivots each, the first on a tie of two or three rows;
    # seed 0 ends on a column with no eligible row
    @pytest.mark.parametrize("seed", [0, 2, 7, 10])
    def test_zero_right_hand_side(self, monkeypatch, seed):
        # b = 0: phase 1 ends at once, and every phase-2 ratio is zero, so
        # the basis ids decide each pivot
        rng = np.random.default_rng(seed)
        A = rng.integers(-2, 3, (4, 8)).astype(float)
        c = rng.integers(-1, 3, 8).astype(float)
        res = self._both(monkeypatch, c, A, np.zeros(4))
        assert (res is None) == (seed == 0)
        if res is not None:
            assert res.objective == 0.0

    @pytest.mark.parametrize(
        "tcol, rhs",
        [
            ([0.0, -1.0, PIVOT_TOL], [1.0, 1.0, 1.0]),  # no eligible row
            ([1.0, -1.0], [np.inf, 1.0]),  # an eligible row, no finite ratio
            ([1.0, 1.0], [np.nan, 1.0]),  # the first minimum is NaN
        ],
        ids=["no_eligible_row", "infinite_ratio", "nan_ratio"],
    )
    def test_unbounded_column(self, tcol, rhs):
        tcol, rhs, basis = np.array(tcol), np.array(rhs), np.arange(len(tcol))
        for ratio_row in (_ratio_row, oracle_dense_ratio_row):
            with pytest.raises(LpUnbounded):
                ratio_row(tcol, rhs, basis)

    def test_unbounded_lp(self, monkeypatch):
        # min -x1  s.t. x1 - x2 = 0: x1 enters on a column with no eligible row
        lp = (np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
        assert self._both(monkeypatch, *lp) is None

    def test_random_columns(self):
        # entries on and around PIVOT_TOL, ties, zeros of both signs and
        # non-finite right-hand sides
        rng = np.random.default_rng(0)
        tvals = np.array([-1.0, -0.0, 0.0, PIVOT_TOL, 2 * PIVOT_TOL, 0.5, 1.0, 2.0])
        rvals = np.array([-0.0, 0.0, 1e-11, 0.5, 1.0, 1.0 + 1e-11, 2.0, np.inf])
        for _ in range(2000):
            p = int(rng.integers(1, 9))
            tcol, rhs = rng.choice(tvals, p), rng.choice(rvals, p)
            basis = rng.permutation(3 * p)[:p]
            try:
                want = oracle_dense_ratio_row(tcol, rhs, basis)
            except LpUnbounded:
                with pytest.raises(LpUnbounded):
                    _ratio_row(tcol, rhs, basis)
            else:
                assert _ratio_row(tcol, rhs, basis) == want
