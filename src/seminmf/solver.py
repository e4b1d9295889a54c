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
O(r n) per row instead of O(m n).  A degenerate row, whose ||u_i||^2 is
at or below DEGENERATE_RTOL ||U||_F^2 (U = 0 included), divides by inf
instead and so takes a zero step.  The error is taken once per iteration
from the explicit residual ||M - U V||_F, never from Gram quantities,
which cancel near an exact fit.

Several starts on one M are solved as a stack.  V is held as (s, r, n),
and each iteration makes one batched least-squares solve for U, one
G = U'U and one P = U'M over the stack, one row loop that updates row i
of every start at once (a stacked vector-matrix product, then the
subtract, divide, add and clamp of the single-start update in its
operand order), and one residual norm per start.  A stacked LAPACK or
BLAS call does, item by item, what the call on that item alone does,
and elementwise arithmetic does not look at neighbouring entries, so
each start's iterates are bitwise those of solving it alone.  That holds
only while every item keeps the single solve's memory layout, because a
BLAS result can depend on strides: a C-ordered copy of U changes U'M in
the last bit, and a row stride of s n instead of n in V changes G[i] V.
So V[k] is a C-ordered r x n block, and U[k] is the transpose of the
solve's C-ordered output, as ``least_squares_left`` returns it.  The
re-seed and the failure rule stay per start: a start whose residual
norm is not finite fails alone and leaves the stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .factors import Factorization
from .linalg import as_matrix, least_squares_left, pow2_scale, thin_svd

__all__ = ["SolveTrace", "cd_semi_nmf", "cd_semi_nmf_stack"]

# squared column norms at or below DEGENERATE_RTOL * ||U||_F^2 are degenerate
DEGENERATE_RTOL = 1e-14


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration Frobenius errors and ||U||_F, iteration count, timings.

    ``wall_time`` is the whole solve; ``lstsq_s``, ``sweep_s`` and
    ``error_s`` split it into the U least-squares solves, the Gram
    products with re-seed and V row sweep, and the residual norms.  All
    four are the stack's times: every start of a stack carries the same.
    """

    errors: np.ndarray
    u_norms: np.ndarray
    iterations_run: int
    wall_time: float
    lstsq_s: float
    sweep_s: float
    error_s: float


def _reseed_zero_rows(M, U, V, degenerate) -> bool:
    """Give degenerate U columns whose V row is exactly zero a useful direction.

    Replacing such a column leaves U @ V unchanged, so monotone descent
    is preserved; the new direction is the residual's leading left
    singular vector.  Returns whether a column was replaced.
    """
    reseeded = False
    for i in np.flatnonzero(degenerate):
        if np.any(V[i] != 0.0):
            continue
        U[:, i] = thin_svd(M - U @ V).U[:, 0]
        reseeded = True
    return reseeded


def _column_norms(G):
    """Squared column norms of each U in the stack, and their sums."""
    norms2 = np.diagonal(G, axis1=1, axis2=2)
    return norms2, norms2.sum(axis=1)


def cd_semi_nmf(M, V0, max_iter: int):
    """Alternating exact solves: unconstrained U, then per-row nonnegative V.

    Parameters
    ----------
    M : array_like, shape (m, n)
    V0 : array_like, shape (r, n)
        Nonnegative start for the right factor; all-zero rows, even all
        of them, are re-seeded to the residual's leading direction.
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
    or Inf.  This is :func:`cd_semi_nmf_stack` on a stack of one.
    """
    (result,) = cd_semi_nmf_stack(M, [V0], max_iter)
    if isinstance(result, Exception):
        raise result
    return result


def cd_semi_nmf_stack(M, V0s, max_iter: int) -> list:
    """:func:`cd_semi_nmf` from each start in ``V0s`` (all r x n), as one stack.

    Returns one entry per start: its (Factorization, SolveTrace), bitwise
    what ``cd_semi_nmf(M, V0, max_iter)`` returns, or the NumericalError
    that failed it.  Raises ValueError for an invalid start or max_iter.
    """
    M = as_matrix(M, "M")
    V0s = [as_matrix(V0, "V0") for V0 in V0s]
    if any(V0.shape[1] != M.shape[1] for V0 in V0s):
        raise ValueError("V0 must have the same number of columns as M")
    if len({V0.shape for V0 in V0s}) > 1:
        raise ValueError("the starts of a stack must have the same shape")
    if any(V0.min(initial=0.0) < 0.0 for V0 in V0s):
        raise ValueError("V0 must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not V0s:
        return []

    start = time.perf_counter()
    results: list = [None] * len(V0s)
    s = pow2_scale(M)
    X = M / s
    V = np.array(V0s)
    live = np.arange(len(V0s))  # the start each stack item belongs to
    errors = np.empty((len(V0s), max_iter))
    u_norms = np.empty((len(V0s), max_iter))
    lstsq_s = sweep_s = error_s = 0.0
    for it in range(max_iter):
        t0 = time.perf_counter()
        U = least_squares_left(X, V)
        Ut = U.transpose(0, 2, 1)
        t1 = time.perf_counter()
        G = Ut @ U
        norms2, total = _column_norms(G)
        act = norms2 > DEGENERATE_RTOL * total[:, None]
        if not act.all():
            for k in np.flatnonzero(~act.all(axis=1)):
                # not ~act[k]: a NaN column is neither active nor re-seeded
                degenerate = norms2[k] <= DEGENERATE_RTOL * total[k]
                if _reseed_zero_rows(X, U[k], V[k], degenerate):
                    G[k] = Ut[k] @ U[k]
            norms2, total = _column_norms(G)
            act = norms2 > DEGENERATE_RTOL * total[:, None]
        P = Ut @ X
        # G[k, i, i] repeated along row i, so that no update broadcasts; a
        # degenerate row divides by inf and so takes a zero step
        D = np.repeat(np.where(act, norms2, np.inf), V.shape[2], axis=1).reshape(V.shape)
        out = np.empty((len(live), 1, V.shape[2]))
        o = out[:, 0]
        # step i yields row i of every start, G[:, i:i+1], P[:, i], D[:, i]
        # and V[:, i], as views made without indexing in the loop
        for g, p, d, row in zip(*(a.swapaxes(0, 1) for a in (G[:, :, None], P, D, V))):
            np.matmul(g, V, out=out)
            np.subtract(p, o, out=o)
            np.divide(o, d, out=o)
            np.add(row, o, out=o)
            np.maximum(0.0, o, out=row)
        u_norms[:, it] = np.sqrt(total)
        t2 = time.perf_counter()
        R = U @ V
        np.subtract(X, R, out=R)
        errors[:, it] = [np.linalg.norm(Rk) for Rk in R]
        t3 = time.perf_counter()
        lstsq_s += t1 - t0
        sweep_s += t2 - t1
        error_s += t3 - t2
        finite = np.isfinite(errors[:, it])
        if finite.all():
            continue
        for k in np.flatnonzero(~finite):
            msg = f"residual norm {float(errors[k, it])} at CD iteration {it + 1}"
            results[live[k]] = NumericalError(msg)
        live, V, Ut = live[finite], V[finite], Ut[finite]
        errors, u_norms = errors[finite], u_norms[finite]
        if not live.size:
            return results

    wall_time = time.perf_counter() - start
    for k, j in enumerate(live):
        trace = SolveTrace(
            errors=errors[k] * s,
            u_norms=u_norms[k] * s,
            iterations_run=max_iter,
            wall_time=wall_time,
            lstsq_s=lstsq_s,
            sweep_s=sweep_s,
            error_s=error_s,
        )
        # Ut[k].T, not U[k]: a failed start's removal copies Ut, and only
        # Ut's items keep the solve's layout through the copy
        fact = Factorization(U=Ut[k].T * s, V=V[k], frob_error=float(trace.errors[-1]))
        results[j] = (fact, trace)
    return results
