"""Starting points for the coordinate descent solver.

Four strategies:

* ``rd`` -- uniform random right factor.
* ``km`` -- k-means binary indicator plus a 0.2 offset.
* ``a2`` -- rank-(r-1) SVD lifted to width r with a nonnegative right
  factor; its starting error equals the best rank-(r-1) error.
* ``a3`` -- rank-r SVD whose right factor is shifted by the smallest
  feasible eps from the bisection and corrected to be nonnegative; when
  eps is zero the start already attains the best rank-r error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factors import exact_semi_nmf_same_rank, lift_rank_plus_one, sign_flip
from .halfspace import BisectionResult, bisection_epsilon
from .kmeans import kmeans
from .linalg import Svd, as_matrix, least_squares_left, random_uniform, thin_svd

__all__ = [
    "InitStrategy",
    "InitResult",
    "init_rd",
    "init_km",
    "init_a2",
    "init_a3",
    "initialize",
    "STRATEGY_KINDS",
]

STRATEGY_KINDS = ("rd", "km", "a2", "a3")
X_FLOOR = 1e-12  # floor on the A3 start's x entries before dividing in the alpha step


@dataclass(frozen=True)
class InitStrategy:
    """Which initializer to run and its seed.

    ``seed`` feeds rd/km; a2 and a3 are deterministic and ignore it.
    """

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")


@dataclass(frozen=True)
class InitResult:
    """V0 plus the paired U0 for the SVD-based strategies (else None)."""

    V0: np.ndarray
    U0: np.ndarray | None = None
    bisection: BisectionResult | None = None


def init_rd(M, r: int, seed: int) -> np.ndarray:
    """Uniform [0, 1) right factor."""
    M = as_matrix(M, "M")
    if r < 1:
        raise ValueError("r must be >= 1")
    return random_uniform(r, M.shape[1], seed)


def init_km(M, r: int, seed: int) -> np.ndarray:
    """Cluster-indicator right factor: entry (k, j) is 1.2 when column j
    sits in cluster k and 0.2 otherwise."""
    M = as_matrix(M, "M")
    assign = kmeans(M, r, seed)
    V0 = np.full((r, M.shape[1]), 0.2)
    V0[assign, np.arange(M.shape[1])] += 1.0
    return V0


def _a2_start(svd: Svd, r: int):
    if r < 2:
        raise ValueError("a2 needs r >= 2 (it lifts a rank r-1 factorization)")
    if r > svd.S.size:
        m, n = svd.U.shape[0], svd.Vt.shape[1]
        raise ValueError(f"r={r} out of range for a {m}x{n} matrix")
    fact = lift_rank_plus_one(*sign_flip(*svd.pair(r - 1)))
    return fact.U, fact.V


def _a3_start(M, svd: Svd, r: int):
    A, B = sign_flip(*svd.pair(r))
    bis = bisection_epsilon(B)
    if bis.epsilon_star == 0.0:
        # U0 @ V0 is the rank-r truncation A @ B itself
        fact = exact_semi_nmf_same_rank(A, B, bis.y_star)
        return fact.U, fact.V, bis
    # x >= 1 - tol on the constrained columns; the floor only matters for
    # columns whose shifted version vanished, and using the floored x in
    # the outer product keeps V0 nonnegative in that case too
    x = np.maximum((B + bis.epsilon_star).T @ bis.y_star, X_FLOOR)
    alpha = np.maximum(0.0, (-B / x).max(axis=1, initial=0.0))
    V0 = B + np.outer(alpha, x)
    np.maximum(V0, 0.0, out=V0)
    U0 = least_squares_left(M, V0)
    return U0, V0, bis


def init_a2(M, r: int):
    """Lift of the rank-(r-1) truncated SVD; returns (U0, V0).

    The starting error ||M - U0 V0|| equals the best rank-(r-1)
    approximation error.  Requires r >= 2.
    """
    return _a2_start(thin_svd(M), r)


def init_a3(M, r: int):
    """Shift-and-correct start from the rank-r truncated SVD.

    Returns (U0, V0, BisectionResult).  V0 is nonnegative by
    construction for every input; when the bisection finds eps = 0 the
    start is ``exact_semi_nmf_same_rank`` of the truncation and attains
    the best rank-r error exactly.
    """
    return _a3_start(M, thin_svd(M), r)


def initialize(M, r: int, strategy: InitStrategy, svd: Svd) -> InitResult:
    """Dispatch on strategy kind; a2 and a3 start from ``svd``, the thin SVD of M.

    Every kind needs 1 <= r <= min(M.shape).
    """
    m, n = np.shape(M)
    if not 1 <= r <= min(m, n):
        raise ValueError(f"r={r} out of range for a {m}x{n} matrix")
    if strategy.kind == "rd":
        return InitResult(V0=init_rd(M, r, strategy.seed))
    if strategy.kind == "km":
        return InitResult(V0=init_km(M, r, strategy.seed))
    if strategy.kind == "a2":
        U0, V0 = _a2_start(svd, r)
        return InitResult(V0=V0, U0=U0)
    U0, V0, bis = _a3_start(M, svd, r)
    return InitResult(V0=V0, U0=U0, bisection=bis)
