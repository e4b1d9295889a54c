"""Starting points for the coordinate descent solver.

Four strategies:

* ``rd`` -- uniform random right factor.
* ``km`` -- k-means binary indicator plus a 0.2 offset.
* ``a2`` -- rank-(r-1) SVD lifted to width r with a nonnegative right
  factor; its starting error equals the best rank-(r-1) error.
* ``a3`` -- rank-r SVD pair (A, B) whose right factor is shifted by the
  smallest feasible eps* from the bisection; V0 is the same-rank
  correction of B + eps* (``exact_semi_nmf_same_rank``, as in
  ``semi_rank``).  A (B + eps* 1 1^T) = U V0 exactly and M - A B is
  orthogonal to the columns of A, so with U0 the least-squares left
  factor  ||M - U0 V0||^2 <= e_r^2 + n eps*^2 ||A 1||^2,  e_r the best
  rank-r error.  At eps* = 0, U0 is the exact U and the start attains e_r.
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
    return lift_rank_plus_one(*sign_flip(*svd.pair(r - 1)))


def _a3_start(M, svd: Svd, r: int):
    A, B = sign_flip(*svd.pair(r))
    bis = bisection_epsilon(B)
    # y* is certified on B + eps* (B + 0.0 at eps* = 0, where the exact U
    # makes U0 @ V0 the rank-r truncation A @ B itself)
    U, V0, _ = exact_semi_nmf_same_rank(A, B + bis.epsilon_star, bis.y_star)
    U0 = U if bis.epsilon_star == 0.0 else least_squares_left(M, V0)
    return U0, V0, bis


def init_a2(M, r: int):
    """Lift of the rank-(r-1) truncated SVD; returns (U0, V0).

    The starting error ||M - U0 V0|| equals the best rank-(r-1)
    approximation error.  Requires r >= 2.
    """
    return _a2_start(thin_svd(M), r)


def init_a3(M, r: int):
    """Shift-and-correct start from the rank-r truncated SVD.

    Returns (U0, V0, BisectionResult).  V0 is ``exact_semi_nmf_same_rank``
    of the sign-flipped right factor shifted by the bisection's eps*, so
    it is nonnegative for every input.  When eps* = 0 the start is that
    correction of the truncation itself and attains the best rank-r
    error e_r; otherwise U0 is the least-squares left factor of V0 and
    ||M - U0 V0||^2 <= e_r^2 + n eps*^2 ||A 1||^2 (see the module docstring).
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
