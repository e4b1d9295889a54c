"""Independent brute-force oracles for cross-checking the main code paths.

They live with the tests, not in the package: each is a slow, obviously
correct reference for one question the library answers fast.
"""

import math

import numpy as np

from seminmf.linalg import as_matrix


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
