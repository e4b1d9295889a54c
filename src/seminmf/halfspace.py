"""Open half-space containment tests and the shifted-feasibility bisection.

A set of nonzero vectors lies in the interior of a common half space
exactly when the system  c.z >= 1  (one inequality per vector) has a
solution.  ``lp_feasibility`` settles that system by minimizing the
uniform slack t in  c.z >= 1 - t,  t >= 0: the system is feasible iff
the optimum t is zero (up to tolerance), and the optimal z is a witness.

``closed_form_certificate`` tries two fixed witnesses first, the first
axis e1 and the centroid of the normalized columns.  On the right factor
of a sign-flipped SVD, e1 certifies the paper's SVD-only class (a
nonnegative irreducible M has a positive leading right singular
vector), so those inputs need no LP.  It runs before the LP in
``semi_rank`` and at eps = 0 in ``bisection_epsilon``.

``bisection_epsilon`` searches for the smallest shift eps >= 0 such that
the columns of B + eps (entrywise) admit such a witness, by bisection on
eps over [0, eps_plus] with eps_plus = max(0, -min(B)), where the upper
endpoint is always feasible.  It halves the bracket a fixed
``BISECTION_STEPS`` times, so it ends on every input.
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
    "closed_form_certificate",
    "halfspace_feasible",
    "bisection_epsilon",
]

ZERO_TOL = 1e-12  # relative cutoff for a zero column, and the closed-form margin floor
BISECTION_STEPS = 10  # 2**-10 < 1e-3: the bracket ends below 1e-3 * eps_plus


@dataclass(frozen=True)
class HalfspaceCertificate:
    """Outcome of a half-space interior containment test.

    When ``feasible``, ``z`` satisfies  c.z >= 1 - 1e-9  for every tested
    column c and ``margin`` is the smallest such product (``inf`` when no
    nonzero column was tested).  When infeasible, ``z`` and ``margin``
    are None: the minimized slack stayed above tolerance, so no witness
    exists.  ``pivots`` counts the simplex pivots spent on the test (0
    when no LP was solved).  ``method`` names the branch that decided:
    ``"e1"`` or ``"centroid"`` (closed form), ``"lp"`` (simplex), or
    ``"vacuous"`` (no column to test).
    """

    feasible: bool
    z: np.ndarray | None = None
    margin: float | None = None
    pivots: int = 0
    method: str = "lp"


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


def _scaled_columns(C: np.ndarray):
    """(C / s, s, column norms) with s = ``pow2_scale(C)``; the division
    is exact, so nothing depends on a power-of-two scale of C."""
    s = pow2_scale(C)
    C = C / s
    norms = np.linalg.norm(C, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("containment tests require nonzero columns")
    return C, s, norms


def _unscaled_witness(z: np.ndarray, s: float) -> np.ndarray:
    """z / s for a witness z of columns / s.

    Raises ``NumericalError`` when that is not representable: columns of
    subnormal size need a witness beyond the float range.
    """
    with np.errstate(over="ignore"):
        z = z / s
    if not np.isfinite(z).all():
        raise NumericalError(
            f"half-space witness overflows at column scale 2**{int(np.frexp(s)[1]) - 1}"
        )
    return z


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
        return HalfspaceCertificate(feasible=True, z=np.ones(m), margin=np.inf, method="vacuous")
    C, s, norms = _scaled_columns(C)
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
        feasible=True,
        z=_unscaled_witness(z, s),
        margin=float(np.min(C.T @ z)),
        pivots=res.iterations,
    )


def closed_form_certificate(columns) -> HalfspaceCertificate | None:
    """Feasible certificate from a fixed witness, or None when undecided.

    Tries y = e1, then the centroid y = sum_j c_j / ||c_j||, on the
    columns (all nonzero) divided by ``pow2_scale``.  A candidate is
    accepted only when  min_j (c_j / ||c_j||).y > ZERO_TOL * ||y||,
    far above the rounding of the products, so columns on the boundary
    of a half space (which have no witness) are never accepted.  The
    witness is y / min_j c_j.y, of margin 1.  None says nothing about
    feasibility: the LP has to settle it.
    """
    C = as_matrix(columns, "columns")
    m, p = C.shape
    if p == 0:
        return None
    C, s, norms = _scaled_columns(C)
    Cn = C / norms
    for method, y in (("e1", np.eye(m)[0]), ("centroid", Cn.sum(axis=1))):
        if np.min(Cn.T @ y) > ZERO_TOL * np.linalg.norm(y):
            z = y / np.min(C.T @ y)
            return HalfspaceCertificate(
                feasible=True,
                z=_unscaled_witness(z, s),
                margin=float(np.min(C.T @ z)),
                method=method,
            )
    return None


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


def bisection_epsilon(B) -> BisectionResult:
    """Bisection on the shift eps for the relaxed containment problem.

    Checks eps = 0 first, with ``closed_form_certificate`` before the
    LP, and returns immediately when feasible.  Otherwise halves
    [0, eps_plus] exactly ``BISECTION_STEPS`` times, returning the
    smallest feasible eps evaluated together with its witness; up to
    rounding it lies within 2**-10 * eps_plus of the largest infeasible
    one.  A test counts as an LP call when it pivots: every LP does,
    while a closed-form or vacuous test solves none.  Raises
    ``NumericalError`` when B is so small that no witness is
    representable.
    """
    B = as_matrix(B, "B")
    if B.size == 0:
        raise ValueError("B must be nonempty")
    eps_plus = float(max(0.0, -B.min()))
    trace: list[tuple[float, bool]] = []

    # B + 0.0, as at every other eps, turns -0.0 entries into 0.0
    B0 = B + 0.0
    C0 = B0[:, nonzero_columns(B0)]
    cert0 = closed_form_certificate(C0) or lp_feasibility(C0)
    lp_calls = int(cert0.pivots > 0)
    pivots = cert0.pivots
    trace.append((0.0, cert0.feasible))
    if cert0.feasible:
        return BisectionResult(0.0, cert0.z, eps_plus, lp_calls, tuple(trace), pivots)

    # B + eps_plus >= 0 entrywise, so a scaled all-ones witness works there;
    # it has a nonzero column, or B would be constant and feasible at eps = 0
    eps_lo, eps_hi = 0.0, eps_plus
    top = B + eps_plus
    s = pow2_scale(top)
    sums = (top / s)[:, nonzero_columns(top)].sum(axis=0)
    y_hi = _unscaled_witness(np.ones(B.shape[0]) / sums.min(), s)
    trace.append((eps_plus, True))
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (eps_lo + eps_hi)
        cert = halfspace_feasible(B + mid)
        lp_calls += int(cert.pivots > 0)
        pivots += cert.pivots
        trace.append((mid, cert.feasible))
        if cert.feasible:
            eps_hi, y_hi = mid, cert.z
        else:
            eps_lo = mid

    return BisectionResult(float(eps_hi), y_hi, eps_plus, lp_calls, tuple(trace), pivots)
