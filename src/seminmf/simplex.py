"""Dense two-phase tableau simplex for small linear programs.

Solves  min c.x  subject to  A x = b,  x >= 0.

Pivoting uses Dantzig's rule (most negative reduced cost) and switches
permanently to Bland's rule after a run of non-improving pivots, which
rules out cycling while keeping the common case fast.  Problem sizes in
this package are a few hundred rows and columns, so a dense tableau is
the right tool: every verdict we need (feasible / infeasible to a fixed
tolerance) comes straight off the optimal basis.

Phase 1 keeps no artificial columns: the tableau is [A | b], and the
artificials survive only as basis ids n..n+m-1 for the ratio tie rule.
That is exact.  A basic artificial is a unit column with reduced cost
exactly 0, so it never enters; one that leaves may not re-enter (as in
the textbook two-phase method); and a pivot updates each stored column
independently of the others.

The tableau is stored column-major, so ``T.T`` holds each tableau column
as one contiguous row.  A pivot updates only the columns whose entry in
the normalized pivot row is nonzero.  That is exact: the dense rank-1
update would give such a column x - f*0 = x, the same value up to the
sign of a zero, and no test of the ratio or the entering rule can tell
+0 from -0.  It also pays: every basic column is exactly a unit vector,
so the pivot row is zero at every basic column but its own.  The A3
bisection's feasibility LP on p columns of length r has p rows and
2r + 1 + p variables, so a pivot touches at most 2r + 3 of the
2r + 2 + p stored columns.

The rest of a pivot reads only what it needs.  The ratio test divides
just the rows whose entering-column entry exceeds PIVOT_TOL and scans
those ratios once for the minimum and once for its ties.  The update
multiplies by the pivot column in place rather than by a copy; the
pivot row it spoils is rewritten at once from the normalized row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import LpInfeasible, LpUnbounded, NumericalError

__all__ = ["SimplexResult", "simplex_min"]

RCOST_TOL = 1e-9  # reduced cost below -RCOST_TOL enters the basis
PIVOT_TOL = 1e-10  # tableau entries above this are eligible pivots
STALL_LIMIT = 64  # non-improving pivots before Bland's rule takes over
FLOOR_TOL = 1e-11  # stop once the objective is this close to a known bound


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int


def _pivot(T: np.ndarray, red: np.ndarray, row: int, col: int) -> None:
    """Pivot on T[row, col] in place; T is column-major.

    The rank-1 update runs on the rows of ``T.T`` (the tableau columns)
    whose normalized pivot-row entry is nonzero; any other column would
    get x - f*0 = x, its own value up to the sign of a zero.  The pivot
    column is read in place: the update writes wrong values into the
    pivot row, but ``prow`` overwrites that row right after, and every
    other entry gets the same single rounded product x - f*t.
    """
    Tt = T.T
    prow = Tt[:, row] / Tt[col, row]
    nz = prow.nonzero()[0]
    pnz = prow[nz]
    Tt[nz] -= pnz[:, None] * Tt[col]
    Tt[:, row] = prow
    red[nz] -= red[col] * pnz


def _ratio_row(tcol: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> int:
    """Leaving row of the ratio test on entering column ``tcol``.

    Only the rows with ``tcol > PIVOT_TOL`` are divided.  The row is the
    first minimum ratio; ratios within PIVOT_TOL * (1 + |min|) of it tie,
    and a tie goes to the smallest basis id (part of Bland's rule).
    Raises LpUnbounded when no ratio is finite.
    """
    cand = (tcol > PIVOT_TOL).nonzero()[0]
    if not cand.size:
        raise LpUnbounded("objective unbounded below")
    ratios = rhs[cand] / tcol[cand]
    k = ratios.argmin()
    rmin = ratios[k]
    if not np.isfinite(rmin):
        raise LpUnbounded("objective unbounded below")
    ties = (ratios <= rmin + PIVOT_TOL * (1.0 + abs(rmin))).nonzero()[0]
    if ties.size > 1:
        return int(cand[ties[basis[cand[ties]].argmin()]])
    return int(cand[k])


def _run(T, red, basis, max_iter, it_start, bland, floor=None):
    """Drive the tableau to optimality; returns (iterations, bland_mode).

    When a lower bound ``floor`` on the objective is known (phase 1, and
    feasibility LPs whose objective is a nonnegative slack), the loop
    stops as soon as the objective reaches it; this sidesteps the long
    degenerate walks an optimal face can otherwise demand from Bland's
    rule.

    Per pivot the loop picks the entering column from the reduced costs,
    runs ``_ratio_row`` on that column, which divides only its eligible
    rows, and calls ``_pivot``, which updates only the columns the pivot
    row touches.  The reduced-cost and right-hand-side views and the
    floor threshold are taken once, before the loop; ``red`` and ``T``
    change in place, so the views stay current.
    """
    it = it_start
    stall = 0
    best = -red[-1]
    rc, rhs = red[:-1], T[:, -1]
    stop = None if floor is None else floor + FLOOR_TOL * (1.0 + abs(floor))
    while True:
        if stop is not None and -red[-1] <= stop:
            return it, bland
        if bland:
            cand = (rc < -RCOST_TOL).nonzero()[0]
            if cand.size == 0:
                return it, bland
            col = int(cand[0])
        else:
            col = int(rc.argmin())
            if rc[col] >= -RCOST_TOL:
                return it, bland
        row = _ratio_row(T[:, col], rhs, basis)
        _pivot(T, red, row, col)
        basis[row] = col
        it += 1
        if it > max_iter:
            raise NumericalError(
                f"simplex iteration limit exceeded ({max_iter} pivots, "
                f"objective {-red[-1]:.6e})"
            )
        obj = -red[-1]
        if obj < best - 1e-12 * (1.0 + abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True


def simplex_min(
    c, A, b, max_iter: int | None = None, objective_floor: float | None = None
) -> SimplexResult:
    """Minimize c.x over {A x = b, x >= 0}.

    ``objective_floor`` is an optional known lower bound on the optimum;
    the solve stops early once the objective reaches it.  Raises
    LpInfeasible / LpUnbounded for those outcomes and NumericalError
    when the pivot budget runs out.
    """
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if max_iter is None:
        max_iter = max(2000, 50 * (m + n))

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial basis (ids only), minimize the sum of artificials
    T = np.asfortranarray(np.hstack([A, b[:, None]]))
    basis = np.arange(n, n + m)
    red = np.append(-A.sum(axis=0), -b.sum())
    it, bland = _run(T, red, basis, max_iter, 0, bland=False, floor=0.0)

    if -red[-1] > 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0))):
        raise LpInfeasible(f"phase-1 optimum {-red[-1]:.6e} > 0")

    # drive leftover artificials out of the basis, counting each pivot in
    # ``it`` (so in the iterations and the budget); drop redundant rows
    keep = np.ones(m, dtype=bool)
    for row in range(m):
        if basis[row] < n:
            continue
        cols = np.flatnonzero(np.abs(T[row, :n]) > RCOST_TOL)
        if cols.size:
            _pivot(T, red, row, int(cols[0]))
            basis[row] = int(cols[0])
            it += 1
        else:
            keep[row] = False
    T = np.ascontiguousarray(T[keep])
    basis = basis[keep]

    # phase 2: original objective.  The reduced costs are formed on a
    # row-major T: BLAS sums a product in an order that depends on the
    # layout, and these sums set the pivot path.
    red = np.empty(n + 1)
    red[:n] = c - c[basis] @ T[:, :n]
    red[-1] = -float(c[basis] @ T[:, -1])
    T = np.asfortranarray(T)
    it, _ = _run(T, red, basis, max_iter, it, bland, floor=objective_floor)

    x = np.zeros(n)
    x[basis] = T[:, -1]
    return SimplexResult(x=x, objective=float(c @ x), iterations=it)
