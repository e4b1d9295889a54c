"""Dense numerical kernels: validation, thin SVD, least squares, seeded RNG.

Matrices are plain float64 numpy arrays (2-D).  Public entry points run
them through :func:`as_matrix`, which rejects NaN/Inf so that every
downstream kernel can assume finite data.

Each problem gets one thin SVD (:class:`Svd`).  Its tail is the best
rank-r error, the quality baseline; its rank-k truncations are the
factor pairs behind the A2 and A3 starts and the exact path.

Randomness uses numpy's PCG64 bit generator.  Every randomized function
takes an explicit integer seed and builds a fresh generator from it, so
outputs are a pure function of (arguments, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_matrix",
    "frob",
    "pow2_scale",
    "Svd",
    "thin_svd",
    "best_rank_error",
    "least_squares_left",
    "make_rng",
    "random_uniform",
    "random_gaussian",
]

# Relative cutoff below which singular values are treated as zero in
# pseudoinverse solves: sigma <= max(shape) * sigma_max * PINV_RTOL.
PINV_RTOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def frob(m: np.ndarray) -> float:
    """Frobenius norm, taken on m / ``pow2_scale(m)`` so no square under- or
    overflows; the division and the multiplication back are exact."""
    s = pow2_scale(m)
    return float(np.linalg.norm(m / s)) * s


def pow2_scale(m: np.ndarray) -> float:
    """2**(e - 1) for max|m| = f * 2**e, f in [1/2, 1): dividing by it is
    exact and brings max|m| into [1, 2), where norms cannot under/overflow."""
    return float(np.ldexp(1.0, int(np.frexp(np.max(np.abs(m), initial=0.0))[1]) - 1))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed gives an identical stream."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def random_uniform(m: int, n: int, seed: int) -> np.ndarray:
    """m-by-n matrix with i.i.d. uniform [0, 1) entries."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m}x{n}")
    return make_rng(seed).random((m, n))


def random_gaussian(m: int, n: int, seed: int) -> np.ndarray:
    """m-by-n matrix with i.i.d. standard normal entries."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m}x{n}")
    return make_rng(seed).standard_normal((m, n))


@dataclass(frozen=True)
class Svd:
    """Thin SVD M = U @ diag(S) @ Vt with S nonincreasing."""

    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray

    def pair(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rank-k factor pair (U_k diag(S_k), Vt_k), 1 <= k <= min(m, n)."""
        if not 1 <= k <= self.S.size:
            m, n = self.U.shape[0], self.Vt.shape[1]
            raise ValueError(f"k={k} out of range for a {m}x{n} matrix")
        return self.U[:, :k] * self.S[:k], self.Vt[:k]

    def tail_error(self, k: int) -> float:
        """Frobenius error of the best rank-k approximation: sqrt(sum of tail sigma^2),
        taken on the tail over its ``pow2_scale``, as ``frob`` does."""
        tail = self.S[k:]
        s = pow2_scale(tail)
        return float(np.sqrt(np.sum((tail / s) ** 2))) * s


def thin_svd(M) -> Svd:
    """Dense thin SVD of M; at the matrix sizes this package targets, a
    full factorization is simpler and more accurate than an iterative one."""
    M = as_matrix(M, "M")
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    return Svd(U, S, Vt)


def best_rank_error(M, r: int) -> float:
    """Frobenius error of the best rank-r approximation of M."""
    return thin_svd(M).tail_error(r)


def least_squares_left(M, V) -> np.ndarray:
    """Minimize ||M - X V||_F over X; minimum-norm X when V is rank-deficient.

    With V' = Q R (thin QR, r <= n rows of V) the minimizer solves
    R X' = Q' M'.  That path runs when every |R_kk| exceeds
    ``rcond * max|R_kk|``, ``rcond = max(V.shape) * 1e-12``.  Otherwise
    (r > n, or a zero or duplicated row of V) the solve falls back to
    ``np.linalg.lstsq``'s pseudoinverse, which treats singular values of
    V below ``rcond * sigma_max`` as zero.

    V may also be a stack of shape (s, r, n); X is then the stack
    (s, m, r) of the s minimizers, from one batched QR and solve.  LAPACK
    factors each item of a batch as it would factor it alone, so every
    X[k] is bitwise the X of its own call, layout included: each is the
    transpose of the solve's C-ordered output.  The choice of path is
    made per item.
    """
    M = as_matrix(M, "M")
    Vs = np.asarray(V, dtype=np.float64)
    if Vs.ndim != 3:
        return least_squares_left(M, as_matrix(V, "V")[None])[0]
    if not np.isfinite(Vs).all():
        raise ValueError("V contains NaN or Inf entries")
    s, r, n = Vs.shape
    if M.shape[1] != n:
        raise ValueError(f"column mismatch: M is {M.shape[0]}x{M.shape[1]}, V is {r}x{n}")
    rcond = max(r, n) * PINV_RTOL
    # min ||M - XV|| == min over rows of ||V.T x - m||, solved column-block wise
    if 0 < r <= n:
        Q, R = np.linalg.qr(Vs.transpose(0, 2, 1))
        diag = np.abs(R.diagonal(0, 1, 2))
        qr_ok = diag > rcond * diag.max(axis=1, keepdims=True)
        if qr_ok.all():
            return np.linalg.solve(R, (M @ Q).transpose(0, 2, 1)).transpose(0, 2, 1)
        qr_ok = qr_ok.all(axis=1)
    else:
        qr_ok = np.zeros(s, dtype=bool)
    Xt = np.empty((s, r, M.shape[0]))
    if qr_ok.any():
        Xt[qr_ok] = np.linalg.solve(R[qr_ok], (M @ Q[qr_ok]).transpose(0, 2, 1))
    for k in np.flatnonzero(~qr_ok):
        Xt[k], *_ = np.linalg.lstsq(Vs[k].T, M.T, rcond=rcond)
    return Xt.transpose(0, 2, 1)
