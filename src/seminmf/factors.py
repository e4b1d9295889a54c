"""Exact factorization constructions and the semi-nonnegative rank.

Three building blocks; the two constructions are exact by design, so they
return their factor pair and measure no error:

* ``lift_rank_plus_one`` turns any product A @ B into a factor pair
  (U, V) with one extra inner dimension whose right factor is
  nonnegative, by appending the balancing column -A.sum(axis=1) and
  shifting each column of B just enough to clear its most negative entry.

* ``exact_semi_nmf_same_rank`` keeps the inner dimension: given a
  witness y with B.T y > 0 on the nonzero columns, a rank-one row
  correction  V = B + alpha x^T  (x = B.T y) makes V nonnegative, and
  U absorbs the inverse correction through the Sherman-Morrison
  identity so that U @ V = A @ B exactly.

* ``semi_rank`` combines both: the semi-nonnegative rank of a matrix M
  is its rank when the nonzero columns of a rank-revealing right factor
  fit in an open half space, and rank + 1 otherwise; either way it
  returns a ``Factorization`` with its error measured against M.  The
  half space test is the closed form, then a least-distance (NNLS)
  problem of rank + 1 rows; no LP is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .halfspace import (
    HalfspaceCertificate,
    _vacuous,
    closed_form_certificate,
    lp_feasibility,  # noqa: F401  unused here, but perfbench/tracer.py wraps this name
    nnls_certificate,
    nonzero_columns,
)
from .linalg import as_matrix, frob, pow2_scale, thin_svd

__all__ = [
    "Factorization",
    "SemiRankReport",
    "lift_rank_plus_one",
    "sign_flip",
    "exact_semi_nmf_same_rank",
    "semi_rank",
]

# numerical-rank cutoff: sigma_i <= max(m, n) * sigma_1 * RANK_RTOL is zero
RANK_RTOL = 1e-10
CLAMP_TOL = 1e-12  # relative size of negative V dust that is clamped, not rejected


@dataclass(frozen=True)
class Factorization:
    """A pair (U, V) with V >= 0 and its Frobenius error against the matrix M it factors.

    Built only by ``semi_rank`` and the CD solver.  ``clamped`` is the
    largest magnitude of negative roundoff dust that the same-rank
    correction zeroed out of V; it is always 0 for the CD solver.
    """

    U: np.ndarray
    V: np.ndarray
    frob_error: float
    clamped: float = 0.0


def _clamp_dust(V):
    """Zero V's negative roundoff dust; returns (max(V, 0), the largest dust magnitude).
    An entry below ``-CLAMP_TOL * max|V|`` is an arithmetic failure, not dust."""
    low = float(V.min(initial=0.0))
    if low < -CLAMP_TOL * float(np.max(np.abs(V), initial=0.0)):
        raise NumericalError(f"V has a negative entry {low:.3e} beyond roundoff dust")
    return np.maximum(V, 0.0), max(0.0, -low)


def lift_rank_plus_one(A, B):
    """Exact factor pair (U, V) of A @ B with V >= 0 and rank + 1 width.

    U = [A, -A e];  V stacks B over a zero row and shifts each column j by
    max(0, -min_i B_ij), which cancels in the product because the columns
    of U sum to zero.  The shift leaves no entry of V negative.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[1] != B.shape[0]:
        raise ValueError("A and B are not conformable")
    k, n = B.shape
    U = np.hstack([A, -A.sum(axis=1, keepdims=True)])
    shift = np.maximum(0.0, -B.min(axis=0, initial=0.0))
    # -0.0 entries (sign_flip's negated zeros, say) can survive the shift; make them +0.0
    V = np.maximum(np.vstack([B, np.zeros((1, n))]) + shift, 0.0)
    return U, V


def sign_flip(A, B):
    """Negate matched (column of A, row of B) pairs to push B's rows positive.

    Row i flips when min_j B_ij <= min_j(-B_ij); the product A @ B is
    unchanged exactly.  Returns new arrays.
    """
    A = as_matrix(A, "A").copy()
    B = as_matrix(B, "B").copy()
    if A.shape[1] != B.shape[0]:
        raise ValueError("A and B are not conformable")
    if B.shape[1]:
        flip = B.min(axis=1) <= (-B).min(axis=1)
        B[flip] = -B[flip]
        A[:, flip] = -A[:, flip]
    return A, B


def exact_semi_nmf_same_rank(A, B, y):
    """Rank-preserving exact factor pair A @ B = U @ V with V >= 0.

    Returns (U, V, clamped), the dust zeroed out of V (``_clamp_dust``).

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
        return A.copy(), B.copy(), 0.0

    keep = nonzero_columns(B)
    if B[:, keep].size and B[:, keep].max(axis=1).min() <= 0.0:
        raise ValueError("every row of B needs a positive maximum; sign_flip first")
    x = B.T @ y
    if keep.any() and x[keep].min() <= 0.0:
        raise ValueError("witness y does not satisfy B.T y > 0 on nonzero columns")

    alpha = np.zeros(r)
    if keep.any():
        alpha = np.maximum(0.0, (-B[:, keep] / x[keep]).max(axis=1))
    ya = float(y @ alpha)
    if abs(1.0 + ya) < 0.5:
        # near the Sherman-Morrison pole: c = 2 / |y.alpha| (see above)
        alpha = (2.0 / abs(ya)) * alpha
        ya = float(y @ alpha)

    V = B + np.outer(alpha, x)
    V[:, ~keep] = 0.0
    V, clamped = _clamp_dust(V)
    U = A - np.outer(A @ alpha, y) / (1.0 + ya)
    return U, V, clamped


@dataclass(frozen=True)
class SemiRankReport:
    """Rank, semi-nonnegative rank, the half-space certificate that
    separates the two cases, and an exact factorization of the input."""

    rank: int
    semi_rank: int
    certificate: HalfspaceCertificate
    factorization: Factorization


def semi_rank(M) -> SemiRankReport:
    """Semi-nonnegative rank of M with an exact witnessing factorization.

    The rank is the numerical rank from the SVD.  The certificate tests
    the rank-revealing right factor B, first in closed form
    (``closed_form_certificate``) and by NNLS (``nnls_certificate``) only
    when that leaves the question open.  Both skip the columns that
    ``nonzero_columns(B)`` drops, the same rule as the A3 bisection; when
    it is feasible the factorization keeps the same inner dimension,
    otherwise the lift adds one.  Either way the other columns of V are
    exactly zero, and the certificate's ``support`` indexes columns of M.

    The work is done on M / s, where s = ``pow2_scale(M)`` is a power of
    two.  The division is exact, so the rank, the certificate and V do
    not depend on the scale of M, and column norms neither underflow nor
    overflow; U and the error are scaled back by s.
    """
    M = as_matrix(M, "M")
    m, n = M.shape
    s = pow2_scale(M)
    M = M / s
    svd = thin_svd(M)
    S = svd.S
    cutoff = max(m, n) * RANK_RTOL * (S[0] if S.size else 0.0)
    r = int(np.sum(S > cutoff))

    if r == 0:
        fact = Factorization(U=np.zeros((m, 0)), V=np.zeros((0, n)), frob_error=frob(M) * s)
        return SemiRankReport(rank=0, semi_rank=0, certificate=_vacuous(0), factorization=fact)

    A, B = svd.pair(r)
    keep = nonzero_columns(B)
    # zeroed, the dropped columns lift to exactly-zero columns of V
    A, B = sign_flip(A, np.where(keep, B, 0.0))
    cert = closed_form_certificate(B) or nnls_certificate(B)

    if cert.feasible:
        U, V, clamped = exact_semi_nmf_same_rank(A, B, cert.z)
        rs = r
    else:
        U, V = lift_rank_plus_one(A, B)
        clamped, rs = 0.0, r + 1
    # both constructions already return exactly +0.0 on the columns outside keep
    fact = Factorization(U=U * s, V=V, frob_error=frob(M - U @ V) * s, clamped=clamped)
    return SemiRankReport(rank=r, semi_rank=rs, certificate=cert, factorization=fact)
