"""Block coordinate descent for factorizations with a nonnegative right factor.

Each iteration solves the left factor exactly by least squares, then
sweeps the rows of the right factor in index order; every row update is
the closed-form nonnegative minimizer with all other rows fixed, so the
objective never increases across any half-step.

The sweep works in Gram form, the hierarchical-ALS row update of
Gillis & Glineur (Neural Computation 2012) applied to the one
nonnegative factor: with G = U'U and P = U'M formed once per iteration,
row i becomes max(0, V[i] + (P[i] - G[i] V) / G[i, i]), which is the
same minimizer as max(0, (M - U V + u_i V[i])' u_i / ||u_i||^2) at
O(r n) per row instead of O(m n).  The error is taken once per
iteration from the explicit residual ||M - U V||_F, never from Gram
quantities, which cancel near an exact fit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .factors import make_factorization
from .linalg import as_matrix, least_squares_left, pow2_scale, thin_svd

__all__ = ["SolveTrace", "cd_semi_nmf"]

# squared column norms below DEGENERATE_RTOL * ||U||_F^2 skip their row update
DEGENERATE_RTOL = 1e-14


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration Frobenius errors and ||U||_F, iteration count, timings.

    ``wall_time`` is the whole solve; ``lstsq_s``, ``sweep_s`` and
    ``error_s`` split it into the U least-squares solves, the Gram
    products with re-seed and V row sweep, and the residual norms.
    """

    errors: np.ndarray
    u_norms: np.ndarray
    iterations_run: int
    wall_time: float
    lstsq_s: float
    sweep_s: float
    error_s: float


def _reseed_zero_rows(M, U, V):
    """Give degenerate U columns whose V row is exactly zero a useful direction.

    Replacing such a column leaves U @ V unchanged, so monotone descent
    is preserved; the new direction is the residual's leading left
    singular vector.  Returns G = U'U for the (possibly updated) U.
    """
    G = U.T @ U
    norms2 = np.diag(G)
    reseeded = False
    for i in np.flatnonzero(norms2 < DEGENERATE_RTOL * norms2.sum()):
        if np.any(V[i] != 0.0):
            continue
        U[:, i] = thin_svd(M - U @ V).U[:, 0]
        reseeded = True
    return U.T @ U if reseeded else G


def cd_semi_nmf(M, V0, max_iter: int):
    """Alternating exact solves: unconstrained U, then per-row nonnegative V.

    Parameters
    ----------
    M : array_like, shape (m, n)
    V0 : array_like, shape (r, n)
        Nonnegative start for the right factor; no all-zero rows.
    max_iter : int
        Number of full iterations (values between 100 and 500 are
        typical).  Always runs exactly this many.

    Returns
    -------
    (Factorization, SolveTrace)

    The sweep runs on M / s, where s = ``pow2_scale(M)`` is a power of
    two, so the iterates neither under- nor overflow at any scale of M;
    the division is exact, and U, the errors and the ``u_norms`` are
    scaled back by s.  Raises NumericalError when a residual norm is NaN
    or Inf.
    """
    M = as_matrix(M, "M")
    V = as_matrix(V0, "V0").copy()
    if V.shape[1] != M.shape[1]:
        raise ValueError("V0 must have the same number of columns as M")
    if V.min(initial=0.0) < 0.0:
        raise ValueError("V0 must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    # all-zero V0 rows are tolerated: they surface as degenerate U columns
    # and get re-seeded to the residual's leading direction

    start = time.perf_counter()
    s = pow2_scale(M)
    X = M / s
    errors, u_norms = [], []
    lstsq_s = sweep_s = error_s = 0.0
    U = None
    for _ in range(max_iter):
        t0 = time.perf_counter()
        U = least_squares_left(X, V)
        t1 = time.perf_counter()
        G = _reseed_zero_rows(X, U, V)
        P = U.T @ X
        norms2 = np.diag(G)
        active = np.flatnonzero(norms2 >= DEGENERATE_RTOL * norms2.sum())
        for i in active:
            V[i] = np.maximum(0.0, V[i] + (P[i] - G[i] @ V) / G[i, i])
        u_norms.append(math.sqrt(norms2.sum()))
        t2 = time.perf_counter()
        errors.append(float(np.linalg.norm(X - U @ V)))
        t3 = time.perf_counter()
        lstsq_s += t1 - t0
        sweep_s += t2 - t1
        error_s += t3 - t2
        if not math.isfinite(errors[-1]):
            raise NumericalError(f"residual norm {errors[-1]} at CD iteration {len(errors)}")

    trace = SolveTrace(
        errors=np.array(errors) * s,
        u_norms=np.array(u_norms) * s,
        iterations_run=len(errors),
        wall_time=time.perf_counter() - start,
        lstsq_s=lstsq_s,
        sweep_s=sweep_s,
        error_s=error_s,
    )
    return make_factorization(M, U * s, V), trace
