"""Block coordinate descent for factorizations with a nonnegative right factor.

Each iteration solves the left factor exactly by least squares, then
sweeps the rows of the right factor in index order; every row update is
the closed-form nonnegative minimizer with all other rows fixed, so the
objective never increases across any half-step.

The residual R = M - U V is maintained incrementally through the row
sweep (two rank-one updates per row), which keeps the per-row cost at
O(m n).  R is rebuilt from scratch after each least-squares solve so
floating point drift cannot accumulate across iterations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .factors import make_factorization
from .linalg import as_matrix, least_squares_left, truncated_svd

__all__ = ["SolveTrace", "cd_semi_nmf"]

# squared column norms below DEGENERATE_RTOL * ||U||_F^2 skip their row update
DEGENERATE_RTOL = 1e-14


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration Frobenius errors, iteration count, and wall time."""

    errors: np.ndarray
    iterations_run: int
    wall_time: float


def _reseed_zero_rows(M, U, V, norms2, total2):
    """Give degenerate U columns whose V row is exactly zero a useful direction.

    Replacing such a column leaves U @ V unchanged, so monotone descent
    is preserved; the new direction is the residual's leading left
    singular vector.
    """
    degenerate = np.flatnonzero(norms2 < DEGENERATE_RTOL * total2)
    for i in degenerate:
        if np.any(V[i] != 0.0):
            continue
        lead = truncated_svd(M - U @ V, 1).A[:, 0]
        U[:, i] = lead
        norms2[i] = float(lead @ lead)
    return norms2


def cd_semi_nmf(M, V0, max_iter: int, rel_tol: float | None = None):
    """Alternating exact solves: unconstrained U, then per-row nonnegative V.

    Parameters
    ----------
    M : array_like, shape (m, n)
    V0 : array_like, shape (r, n)
        Nonnegative start for the right factor; no all-zero rows.
    max_iter : int
        Number of full iterations (values between 100 and 500 are
        typical).  Runs exactly this many unless ``rel_tol`` is set.
    rel_tol : float, optional
        Early stop once the per-iteration improvement drops to
        ``rel_tol * errors[0]``.  Off by default.

    Returns
    -------
    (Factorization, SolveTrace)

    Raises NumericalError when a residual norm is NaN or Inf.
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

    r = V.shape[0]
    start = time.perf_counter()
    errors = []
    U = None
    for _ in range(max_iter):
        U = least_squares_left(M, V)
        norms2 = np.einsum("ij,ij->j", U, U)
        total2 = float(norms2.sum())
        norms2 = _reseed_zero_rows(M, U, V, norms2, total2)
        total2 = float(norms2.sum())
        R = M - U @ V
        for i in range(r):
            nu2 = norms2[i]
            if nu2 < DEGENERATE_RTOL * total2:
                continue
            u = U[:, i]
            R += np.outer(u, V[i])
            V[i] = np.maximum(0.0, (R.T @ u) / nu2)
            R -= np.outer(u, V[i])
        errors.append(float(np.linalg.norm(R)))
        if not math.isfinite(errors[-1]):
            raise NumericalError(f"residual norm {errors[-1]} at CD iteration {len(errors)}")
        if rel_tol is not None and len(errors) >= 2:
            if errors[-2] - errors[-1] <= rel_tol * errors[0]:
                break

    trace = SolveTrace(
        errors=np.array(errors),
        iterations_run=len(errors),
        wall_time=time.perf_counter() - start,
    )
    return make_factorization(M, U, V), trace
