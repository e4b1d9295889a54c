"""Dense numerical kernels: validation, truncated SVD, least squares, seeded RNG.

Matrices are plain float64 numpy arrays (2-D).  Public entry points run
them through :func:`as_matrix`, which rejects NaN/Inf so that every
downstream kernel can assume finite data.

Randomness uses numpy's PCG64 bit generator.  Every randomized function
takes an explicit integer seed and builds a fresh generator from it, so
outputs are a pure function of (arguments, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "as_matrix",
    "frob",
    "pow2_scale",
    "SvdTriplet",
    "truncated_svd",
    "singular_values",
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
    """Frobenius norm."""
    return float(np.linalg.norm(m))


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
class SvdTriplet:
    """Rank-k factorization M ~ A @ diag(S) @ B from a truncated SVD.

    ``A`` is m-by-k with orthonormal columns and ``B`` is k-by-n with
    orthonormal rows while ``scaled`` is False.  ``scale_left`` folds the
    singular values into A, after which M ~ A @ B.
    """

    A: np.ndarray
    S: np.ndarray
    B: np.ndarray
    scaled: bool = False

    def scale_left(self) -> "SvdTriplet":
        if self.scaled:
            return self
        return replace(self, A=self.A * self.S, scaled=True)


def truncated_svd(M, k: int) -> SvdTriplet:
    """Top-k singular triplet of M.

    Computes a full dense SVD and truncates; at the matrix sizes this
    package targets, that is both simpler and more accurate than an
    iterative scheme.

    Parameters
    ----------
    M : array_like, shape (m, n)
    k : int, 1 <= k <= min(m, n)

    Returns
    -------
    SvdTriplet with S sorted nonincreasing.
    """
    M = as_matrix(M, "M")
    m, n = M.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for a {m}x{n} matrix")
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    return SvdTriplet(A=U[:, :k].copy(), S=S[:k].copy(), B=Vt[:k, :].copy())


def singular_values(M) -> np.ndarray:
    """All singular values of M, nonincreasing."""
    M = as_matrix(M, "M")
    return np.linalg.svd(M, compute_uv=False)


def best_rank_error(M, r: int) -> float:
    """Frobenius error of the best rank-r approximation: sqrt(sum of tail sigma^2)."""
    s = singular_values(M)
    if r >= s.size:
        return 0.0
    return float(np.sqrt(np.sum(s[r:] ** 2)))


def least_squares_left(M, V) -> np.ndarray:
    """Minimize ||M - X V||_F over X; minimum-norm X when V is rank-deficient.

    Singular values of V below ``max(V.shape) * sigma_max * 1e-12`` are
    treated as zero (pseudoinverse cutoff).
    """
    M = as_matrix(M, "M")
    V = as_matrix(V, "V")
    if M.shape[1] != V.shape[1]:
        raise ValueError(
            f"column mismatch: M is {M.shape[0]}x{M.shape[1]}, V is "
            f"{V.shape[0]}x{V.shape[1]}"
        )
    rcond = max(V.shape) * PINV_RTOL
    # min ||M - XV|| == min over rows of ||V.T x - m||, solved column-block wise
    Xt, *_ = np.linalg.lstsq(V.T, M.T, rcond=rcond)
    return Xt.T
