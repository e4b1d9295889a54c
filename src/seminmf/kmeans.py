"""Lloyd's k-means on matrix columns with k-means++ seeding.

Columns of the input matrix are the points.  The algorithm is fully
deterministic for a fixed seed: seeding draws come from a PCG64 stream
and all tie-breaks resolve to the lowest index.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, make_rng, pow2_scale

__all__ = ["kmeans"]

MAX_ITER = 100  # Lloyd iterations per run


def _sq_dists_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = points - center[:, None]
    return np.einsum("ij,ij->j", d, d)


def _plusplus_seed(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centers (columns of X), shape (m, k)."""
    n = X.shape[1]
    centers = np.empty((X.shape[0], k))
    first = int(rng.integers(n))
    centers[:, 0] = X[:, first]
    closest = _sq_dists_to(X, centers[:, 0])
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            # D^2 sampling via inverse CDF keeps the draw deterministic
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), u, side="right"))
            idx = min(idx, n - 1)
        centers[:, c] = X[:, idx]
        closest = np.minimum(closest, _sq_dists_to(X, centers[:, c]))
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # squared distances matrix (k, n) without forming (m, k, n) temporaries
    x2 = np.einsum("ij,ij->j", X, X)
    c2 = np.einsum("ij,ij->j", centers, centers)
    d2 = c2[:, None] - 2.0 * (centers.T @ X) + x2[None, :]
    return np.argmin(d2, axis=0)


def _lloyd(X, k, seed, max_iter):
    """Run at most max_iter Lloyd iterations; returns the assignments."""
    rng = make_rng(seed)
    centers = _plusplus_seed(X, k, rng)
    assign = _assign(X, centers)
    for _ in range(max_iter):
        # fill empty clusters with the point farthest from its own centroid
        counts = np.bincount(assign, minlength=k)
        for c in np.flatnonzero(counts == 0):
            resid = X - centers[:, assign]
            dists = np.einsum("ij,ij->j", resid, resid)
            far = int(np.argmax(dists))
            centers[:, c] = X[:, far]
            assign[far] = c
        # centroid update
        for c in range(k):
            mask = assign == c
            if mask.any():
                centers[:, c] = X[:, mask].mean(axis=1)
        new_assign = _assign(X, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def kmeans(M, k: int, seed: int) -> np.ndarray:
    """Cluster the columns of M into k groups; returns one index per column.

    Raises ValueError when k is out of range.  Runs at most MAX_ITER
    Lloyd iterations.  Deterministic for a fixed seed; empty clusters
    are re-seeded to the column farthest from its assigned centroid.
    M is divided by ``pow2_scale(M)`` first: the division is exact, so
    the assignment is the same at every power-of-two scale of M, and
    squared distances can neither overflow nor underflow.
    """
    X = as_matrix(M, "M")
    n = X.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} columns")
    return _lloyd(X / pow2_scale(X), k, seed, MAX_ITER)
