"""Open half-space containment tests and the shifted-feasibility bisection.

A set of nonzero vectors lies in the interior of a common half space
exactly when the system  c.z >= 1  (one inequality per vector) has a
solution.  ``lp_feasibility`` settles that system by minimizing the
uniform slack t in  c.z >= 1 - t,  t >= 0: the system is feasible iff
the optimum t is zero (up to tolerance), and the optimal z is a witness.

``bisection_epsilon`` searches for the smallest shift eps >= 0 such that
the columns of B + eps (entrywise) admit such a witness, by bisection on
eps over [0, eps_plus] with eps_plus = max(0, -min(B)), where the upper
endpoint is always feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .linalg import as_matrix, pow2_scale
from .simplex import simplex_min

__all__ = [
    "HalfspaceCertificate",
    "BisectionResult",
    "lp_feasibility",
    "halfspace_feasible",
    "bisection_epsilon",
]

ZERO_TOL = 1e-12  # relative cutoff for treating a column as zero


@dataclass(frozen=True)
class HalfspaceCertificate:
    """Outcome of a half-space interior containment test.

    When ``feasible``, ``z`` satisfies  c.z >= 1 - 1e-9  for every tested
    column c and ``margin`` is the smallest such product (``inf`` when no
    nonzero column was tested).  When infeasible, ``z`` and ``margin``
    are None: the minimized slack stayed above tolerance, so no witness
    exists.  ``pivots`` counts the simplex pivots spent on the test (0
    when no LP was solved).
    """

    feasible: bool
    z: np.ndarray | None = None
    margin: float | None = None
    pivots: int = 0


@dataclass(frozen=True)
class BisectionResult:
    """Smallest feasible shift found by ``bisection_epsilon``.

    ``trace`` records every (eps, feasible) evaluation in order; the
    bracketing of the search keeps all infeasible entries below all
    feasible ones.  ``pivots`` is the total over the ``lp_calls`` LPs.
    """

    epsilon_star: float
    y_star: np.ndarray
    epsilon_plus: float
    lp_calls: int
    trace: tuple[tuple[float, bool], ...] = ()
    pivots: int = 0


def lp_feasibility(columns) -> HalfspaceCertificate:
    """Decide whether all columns lie in the interior of a common half space.

    ``columns`` is an m-by-p matrix whose p columns must all be nonzero;
    with p = 0 the test is vacuously feasible.  Solves  min t  subject
    to  c_j.z >= b_j - t,  t >= 0  on the unit-normalized columns.  The
    optimum separates cleanly: any witness can be scaled until t = 0,
    while infeasibility forces some product nonpositive and hence
    t >= min b.  The right-hand sides carry a deterministic spread (b_j
    slightly above 1) so the infeasible optimum vertex is not
    degenerate, which keeps the pivot count small.  The returned witness
    is rescaled so the minimum product over the original columns is 1.
    The columns are first divided by ``pow2_scale`` (exact), so nothing
    depends on a power-of-two scale of the input.
    """
    C = as_matrix(columns, "columns")
    m, p = C.shape
    if p == 0:
        return HalfspaceCertificate(feasible=True, z=np.ones(m), margin=np.inf)
    s = pow2_scale(C)
    C = C / s
    norms = np.linalg.norm(C, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("lp_feasibility requires nonzero columns")
    Cn = C / norms

    # variables: z+ (m), z- (m), t (1), slack s (p)
    # constraint j:  c_j.(z+ - z-) + t - s_j = b_j,   minimize t
    A = np.hstack([Cn.T, -Cn.T, np.ones((p, 1)), -np.eye(p)])
    b = 1.0 + 1e-3 * (np.arange(p) + 1.0) / p
    cost = np.zeros(2 * m + 1 + p)
    cost[2 * m] = 1.0
    # objective floor 0 lets the solve stop the moment feasibility is proven
    res = simplex_min(cost, A, b, objective_floor=0.0)
    t_star = res.x[2 * m]

    if t_star > 0.5:
        return HalfspaceCertificate(feasible=False, pivots=res.iterations)

    z = (res.x[:m] - res.x[m : 2 * m]) / norms.min()
    margin = float(np.min(C.T @ z))
    if margin <= 0.0:
        raise NumericalError(
            f"half-space witness failed verification: slack {t_star:.3e} "
            f"but margin {margin:.3e}"
        )
    z = z / margin
    return HalfspaceCertificate(
        feasible=True, z=z / s, margin=float(np.min(C.T @ z)), pivots=res.iterations
    )


def nonzero_columns(M: np.ndarray) -> np.ndarray:
    """Mask of the columns whose 2-norm exceeds ZERO_TOL * max|M|."""
    M = M / pow2_scale(M)
    return np.linalg.norm(M, axis=0) > ZERO_TOL * float(np.max(np.abs(M), initial=0.0))


def halfspace_feasible(M) -> HalfspaceCertificate:
    """Containment test for the nonzero columns of M.

    Columns with 2-norm at most ``ZERO_TOL`` times the largest absolute
    entry of M count as zero and are excluded; with no columns left the
    test is vacuously feasible.
    """
    M = as_matrix(M, "M")
    return lp_feasibility(M[:, nonzero_columns(M)])


def bisection_epsilon(B, rel_prec: float = 1e-3) -> BisectionResult:
    """Bisection on the shift eps for the relaxed containment problem.

    Checks eps = 0 first and returns immediately when feasible.
    Otherwise bisects on [0, eps_plus] until the bracket width drops to
    ``rel_prec * eps_plus``, returning the smallest feasible eps
    evaluated together with its witness.  At the default precision this
    takes at most ten bisection solves after the eps = 0 check.  A test
    counts as an LP call when it pivots: every LP does, and the vacuous
    test (no nonzero column) solves none.
    """
    B = as_matrix(B, "B")
    if B.size == 0:
        raise ValueError("B must be nonempty")
    if not 0.0 < rel_prec < np.inf:
        raise ValueError(f"rel_prec must be positive and finite, got {rel_prec!r}")
    eps_plus = float(max(0.0, -B.min()))
    trace: list[tuple[float, bool]] = []

    # B + 0.0, as at every other eps, turns -0.0 entries into 0.0
    cert0 = halfspace_feasible(B + 0.0)
    lp_calls = int(cert0.pivots > 0)
    pivots = cert0.pivots
    trace.append((0.0, cert0.feasible))
    if cert0.feasible:
        return BisectionResult(0.0, cert0.z, eps_plus, lp_calls, tuple(trace), pivots)

    # B + eps_plus >= 0 entrywise, so a scaled all-ones witness works there;
    # it has a nonzero column, or B would be constant and feasible at eps = 0
    eps_lo, eps_hi = 0.0, eps_plus
    top = B + eps_plus
    y_hi = np.ones(B.shape[0]) / top[:, nonzero_columns(top)].sum(axis=0).min()
    trace.append((eps_plus, True))
    while eps_hi - eps_lo > rel_prec * eps_plus:
        mid = 0.5 * (eps_lo + eps_hi)
        cert = halfspace_feasible(B + mid)
        lp_calls += int(cert.pivots > 0)
        pivots += cert.pivots
        trace.append((mid, cert.feasible))
        if cert.feasible:
            eps_hi, y_hi = mid, cert.z
        else:
            eps_lo = mid

    # bracketing invariant: no infeasible evaluation above a feasible one
    inf_eps = [e for e, ok in trace if not ok]
    feas_eps = [e for e, ok in trace if ok]
    if inf_eps and feas_eps and max(inf_eps) >= min(feas_eps):
        raise NumericalError("bisection bracket lost monotone ordering")

    return BisectionResult(float(eps_hi), y_hi, eps_plus, lp_calls, tuple(trace), pivots)
