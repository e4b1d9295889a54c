"""Exact factorization constructions and the semi-nonnegative rank.

Three building blocks:

* ``lift_rank_plus_one`` turns any product A @ B into a factorization
  with one extra inner dimension whose right factor is nonnegative,
  by appending the balancing column -A.sum(axis=1) and shifting each
  column of B just enough to clear its most negative entry.

* ``exact_semi_nmf_same_rank`` keeps the inner dimension: given a
  witness y with B.T y > 0 on the nonzero columns, a rank-one row
  correction  V = B + alpha x^T  (x = B.T y) makes V nonnegative, and
  U absorbs the inverse correction through the Sherman-Morrison
  identity so that U @ V = A @ B exactly.

* ``semi_rank`` combines both: the semi-nonnegative rank of a matrix is
  its rank when the nonzero columns of a rank-revealing right factor
  fit in an open half space, and rank + 1 otherwise, and an exact
  nonnegative-right factorization is produced either way.  The half
  space test is the closed form, then a least-distance (NNLS) problem
  of rank + 1 rows; no LP is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .halfspace import (
    ZERO_TOL,
    HalfspaceCertificate,
    closed_form_certificate,
    lp_feasibility,  # noqa: F401  unused here, but perfbench/tracer.py wraps this name
    nnls_certificate,
    nonzero_columns,
)
from .linalg import as_matrix, frob, pow2_scale, thin_svd

__all__ = [
    "Factorization",
    "SemiRankReport",
    "make_factorization",
    "lift_rank_plus_one",
    "sign_flip",
    "exact_semi_nmf_same_rank",
    "semi_rank",
]

# numerical-rank cutoff: sigma_i <= max(m, n) * sigma_1 * RANK_RTOL is zero
RANK_RTOL = 1e-10
CLAMP_TOL = 1e-12  # relative size of negative V dust that is clamped, not rejected
X_FLOOR = 1e-12  # floor on x entries before dividing in the alpha step


@dataclass(frozen=True)
class Factorization:
    """A pair (U, V) with V >= 0 and its Frobenius error against a source matrix.

    ``clamped`` records the largest magnitude of negative roundoff dust
    that was zeroed out of V at construction time.
    """

    U: np.ndarray
    V: np.ndarray
    frob_error: float
    clamped: float = 0.0


def make_factorization(M, U, V) -> Factorization:
    """Build a Factorization, clamping negative dust in V to zero.

    Entries of V below ``-CLAMP_TOL * max(1, max|V|)`` are treated as a
    bug in the caller and rejected.
    """
    M = as_matrix(M, "M")
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    scale = max(1.0, float(np.max(np.abs(V), initial=0.0)))
    low = float(V.min(initial=0.0))
    if low < -CLAMP_TOL * scale:
        raise ValueError(f"V has a negative entry {low:.3e} beyond roundoff dust")
    clamped = max(0.0, -low)
    V = np.maximum(V, 0.0)
    return Factorization(U=U, V=V, frob_error=frob(M - U @ V), clamped=clamped)


def lift_rank_plus_one(A, B) -> Factorization:
    """Exact factorization of A @ B with nonnegative right factor and rank + 1 width.

    U = [A, -A e];  V stacks B over a zero row and shifts each column j by
    max(0, -min_i B_ij), which cancels in the product because the columns
    of U sum to zero.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[1] != B.shape[0]:
        raise ValueError("A and B are not conformable")
    k, n = B.shape
    U = np.hstack([A, -A.sum(axis=1, keepdims=True)])
    shift = np.maximum(0.0, -B.min(axis=0, initial=0.0))
    V = np.vstack([B, np.zeros((1, n))]) + shift
    return make_factorization(A @ B, U, V)


def sign_flip(A, B):
    """Negate matched (column of A, row of B) pairs to push B's rows positive.

    Row i flips when min_j B_ij <= min_j(-B_ij); the product A @ B is
    unchanged exactly.  Returns new arrays.
    """
    A = as_matrix(A, "A").copy()
    B = as_matrix(B, "B").copy()
    if A.shape[1] != B.shape[0]:
        raise ValueError("A and B are not conformable")
    for i in range(B.shape[0]):
        if B.shape[1] and B[i].min() <= (-B[i]).min():
            B[i] = -B[i]
            A[:, i] = -A[:, i]
    return A, B


def exact_semi_nmf_same_rank(A, B, y) -> Factorization:
    """Rank-preserving exact factorization A @ B = U @ V with V >= 0.

    Requires x = B.T y > 0 on the nonzero columns of B (y comes from a
    half-space certificate) and every row of B to have a positive
    maximum (arrange with ``sign_flip`` first).  Columns of B below the
    zero tolerance map to exactly zero columns of V.

    alpha_i is the smallest nonnegative shift that clears row i of B on
    the nonzero columns.  Any multiple c * alpha with c >= 1 keeps V >= 0,
    because alpha_i x_j >= 0 there, and Sherman-Morrison keeps U @ V equal
    to A @ B for every c.  So c = 1 unless |1 + y.alpha| < 1/2, where
    c = 2 / |y.alpha| (which lies in (4/3, 4)) makes 1 + c y.alpha = -1.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    y = np.asarray(y, dtype=np.float64)
    r, n = B.shape
    if A.shape[1] != r or y.shape != (r,):
        raise ValueError("A, B, y have inconsistent shapes")
    if r == 0:
        return make_factorization(A @ B, A.copy(), B.copy())

    keep = nonzero_columns(B)
    if B[:, keep].size and B[:, keep].max(axis=1).min() <= 0.0:
        raise ValueError("every row of B needs a positive maximum; sign_flip first")
    x = B.T @ y
    if keep.any() and x[keep].min() <= 0.0:
        raise ValueError("witness y does not satisfy B.T y > 0 on nonzero columns")

    alpha = np.zeros(r)
    if keep.any():
        xk = np.maximum(x[keep], X_FLOOR)
        alpha = np.maximum(0.0, (-B[:, keep] / xk).max(axis=1))
    ya = float(y @ alpha)
    if abs(1.0 + ya) < 0.5:
        # near the Sherman-Morrison pole: c = 2 / |y.alpha| (see above)
        alpha = (2.0 / abs(ya)) * alpha
        ya = float(y @ alpha)

    V = B + np.outer(alpha, x)
    V[:, ~keep] = 0.0
    U = A - np.outer(A @ alpha, y) / (1.0 + ya)
    return make_factorization(A @ B, U, V)


@dataclass(frozen=True)
class SemiRankReport:
    """Rank, semi-nonnegative rank, the half-space certificate that
    separates the two cases, and an exact factorization of the input."""

    rank: int
    semi_rank: int
    certificate: HalfspaceCertificate
    factorization: Factorization


def semi_rank(M, zero_tol: float = ZERO_TOL) -> SemiRankReport:
    """Semi-nonnegative rank of M with an exact witnessing factorization.

    The rank is the numerical rank from the SVD.  The certificate tests
    the rank-revealing right factor restricted to the nonzero columns of
    M, first in closed form (``closed_form_certificate``) and by NNLS
    (``nnls_certificate``) only when that leaves the question open; when
    it is feasible the factorization keeps the same inner dimension,
    otherwise the lift adds one, and the certificate's ``support``
    indexes columns of M.

    Columns with 2-norm at most ``zero_tol * max|M|`` count as zero;
    ``zero_tol`` must lie in [0, 1), so the column holding max|M| stays.

    The work is done on M / s, where s = ``pow2_scale(M)`` is a power of
    two.  The division is exact, so the rank, the certificate and V do
    not depend on the scale of M, and column norms neither underflow nor
    overflow; U and the error are scaled back by s.
    """
    M = as_matrix(M, "M")
    if not 0.0 <= zero_tol < 1.0:
        raise ValueError(f"zero_tol must lie in [0, 1), got {zero_tol!r}")
    m, n = M.shape
    s = pow2_scale(M)
    M = M / s
    svd = thin_svd(M)
    S = svd.S
    cutoff = max(m, n) * RANK_RTOL * (S[0] if S.size else 0.0)
    r = int(np.sum(S > cutoff))

    if r == 0:
        cert = HalfspaceCertificate(feasible=True, z=np.ones(0), margin=np.inf, method="vacuous")
        fact = Factorization(U=np.zeros((m, 0)), V=np.zeros((0, n)), frob_error=frob(M) * s)
        return SemiRankReport(rank=0, semi_rank=0, certificate=cert, factorization=fact)

    A, B = svd.pair(r)
    scale = float(np.max(np.abs(M)))
    keep = np.linalg.norm(M, axis=0) > zero_tol * scale
    keep &= np.linalg.norm(B, axis=0) > 0.0
    # zeroed first, a dropped column cannot decide the sign of a row
    A, B = sign_flip(A, np.where(keep, B, 0.0))
    C = B[:, keep]
    cert = closed_form_certificate(C) or nnls_certificate(C)
    if cert.support is not None:
        cert = replace(cert, support=np.flatnonzero(keep)[cert.support])

    if cert.feasible:
        inner = exact_semi_nmf_same_rank(A, B, cert.z)
        rs = r
    else:
        inner = lift_rank_plus_one(A, B)
        rs = r + 1
    V = inner.V.copy()
    V[:, ~keep] = 0.0
    fact = Factorization(
        U=inner.U * s, V=V, frob_error=frob(M - inner.U @ V) * s, clamped=inner.clamped
    )
    return SemiRankReport(rank=r, semi_rank=rs, certificate=cert, factorization=fact)
