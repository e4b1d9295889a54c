"""Independent brute-force oracles for cross-checking the main code paths.

They live with the tests, not in the package: each is a slow, obviously
correct reference for one question the library answers fast.
"""

import math

import numpy as np

from seminmf.exceptions import NumericalError
from seminmf.halfspace import NNLS_MAX_ITER, ZERO_TOL
from seminmf.linalg import as_matrix
from seminmf.solver import DEGENERATE_RTOL


def oracle_rank1_grid(M, grid_density: int = 40):
    """Best value of v' (M'M) v over a grid of the nonnegative unit sphere.

    Brute force for n <= 4: every nonzero lattice direction in the unit
    cube, normalized.  Returns (best value, resolution bound) where the
    true optimum is at most ``best + bound``.
    """
    M = as_matrix(M, "M")
    n = M.shape[1]
    if n > 4:
        raise ValueError("grid oracle is limited to n <= 4")
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    Q = M.T @ M
    axes = [np.linspace(0.0, 1.0, grid_density + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    norms = np.linalg.norm(grid, axis=1)
    grid = grid[norms > 0] / norms[norms > 0, None]
    vals = np.einsum("ij,jk,ik->i", grid, Q, grid)
    best = float(vals.max())
    # gradient of v'Qv on the sphere is bounded by 2||Q||; nearest grid
    # direction is within ~sqrt(n)/grid_density of any unit vector
    h = math.sqrt(n) / grid_density
    bound = 2.0 * float(np.linalg.norm(Q)) * h
    return best, bound


def oracle_halfplane_2d(M, zero_tol: float = 1e-12) -> bool:
    """Half-plane interior containment for 2-row matrices via angular gaps.

    Feasible exactly when the largest angular gap between the sorted
    directions of the nonzero columns exceeds pi.
    """
    M = as_matrix(M, "M")
    if M.shape[0] != 2:
        raise ValueError("oracle requires a 2-row matrix")
    scale = float(np.max(np.abs(M), initial=0.0))
    norms = np.linalg.norm(M, axis=0)
    cols = M[:, norms > zero_tol * scale]
    if cols.shape[1] == 0:
        return True
    angles = np.sort(np.arctan2(cols[1], cols[0]))
    gaps = np.diff(angles)
    wrap = 2.0 * math.pi - (angles[-1] - angles[0])
    return bool(max(gaps.max(initial=0.0), wrap) > math.pi)


def oracle_dense_pivot(T: np.ndarray, red: np.ndarray, row: int, col: int) -> None:
    """Pivot on T[row, col] in place with a dense rank-1 update of every column.

    The reference for ``seminmf.simplex._pivot``, which updates only the
    columns the pivot row touches; same signature, any tableau layout.
    """
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    red -= red[col] * T[row]


def residual_row_update(M, U, V, i: int) -> np.ndarray:
    """Optimal nonnegative row i of V with everything else fixed.

    Returns max(0, (M - U(:,I) V(I,:)).T u / ||u||^2) for u = U(:,i) and
    I the other row indices, formed from scratch: the reference for the
    solver's incremental row sweep.  Raises ValueError when u is
    numerically zero (no division by ~0 is ever performed).
    """
    M = as_matrix(M, "M")
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    r = U.shape[1]
    if not 0 <= i < r or V.shape[0] != r:
        raise ValueError("row index out of range or U, V not conformable")
    u = U[:, i]
    nu2 = float(u @ u)
    if nu2 <= DEGENERATE_RTOL * float(np.sum(U * U)):
        raise ValueError(f"column {i} of U is numerically zero")
    Ri = M - U @ V + np.outer(u, V[i])
    return np.maximum(0.0, (Ri.T @ u) / nu2)


def oracle_nnls(E: np.ndarray, f: np.ndarray):
    """argmin ||E x - f|| over x >= 0, refactoring on every pass.

    Lawson and Hanson's active set method with the pass rules of
    ``seminmf.halfspace._nnls`` (entering column, drop step, pass cap),
    but every solve is a fresh thin QR of the passive columns and an LU
    solve of R: the reference for the updated factorization.  It keeps
    the pass-over rule that ``_nnls`` dropped (a column whose |R_kk| is
    <= ZERO_TOL or whose new weight is <= 0 does not enter), so passes
    equal to ``_nnls``'s show that the rule never fires.
    Returns (x, passes, drops): the loop passes run, counting the last,
    and how many of them dropped a column.
    """
    p = E.shape[1]
    x = np.zeros(p)
    w = E.T @ f
    passive: list[int] = []  # in order of entry, so the entering column is last in R
    passed_over = np.zeros(p, dtype=bool)
    s = None  # passive-set solution not yet taken as the iterate
    drops = 0
    for passes in range(1, NNLS_MAX_ITER * p + 1):
        if s is not None and (s <= 0.0).any():
            xp = x[passive]
            neg = np.flatnonzero(s <= 0.0)
            ratios = xp[neg] / (xp[neg] - s[neg])
            k = int(np.argmin(ratios))
            xp += ratios[k] * (s - xp)
            xp[neg[k]] = 0.0
            x[passive] = np.maximum(xp, 0.0)
            passive = [j for j in passive if x[j] > 0.0]
            Q, R = np.linalg.qr(E[:, passive])
            s = np.linalg.solve(R, Q.T @ f)
            drops += 1
            continue
        if s is not None:
            x[:] = 0.0
            x[passive] = s
            w = E.T @ (f - E @ x)
            s = None
        gain = np.where(passed_over, -np.inf, w)
        gain[passive] = -np.inf
        t = int(np.argmax(gain))
        if not gain[t] > ZERO_TOL:
            return x, passes, drops
        Q, R = np.linalg.qr(E[:, passive + [t]])
        s = np.linalg.solve(R, Q.T @ f) if abs(R[-1, -1]) > ZERO_TOL else None
        if s is None or not s[-1] > 0.0:
            passed_over[t] = True
            s = None
            continue
        passive.append(t)
        passed_over[:] = False
    raise NumericalError(f"NNLS iteration limit exceeded ({NNLS_MAX_ITER * p} passes, {p} columns)")
