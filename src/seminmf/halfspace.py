"""Open half-space containment tests and the shifted-feasibility bisection.

A set of nonzero vectors lies in the interior of a common half space
exactly when the system  c.z >= 1  (one inequality per vector) has a
solution.  The three tests below apply one zero-column rule: they skip
the columns ``nonzero_columns`` drops (2-norm at most ZERO_TOL times the
largest absolute entry), and with none left the question is vacuous.

``lp_feasibility`` settles that system by minimizing the uniform slack t
in  c.z >= 1 - t,  t >= 0: the system is feasible iff the optimum t is
zero (up to tolerance), and the optimal z is a witness.

``closed_form_certificate`` tries two fixed witnesses first, the first
axis e1 and the centroid of the normalized columns.  On the right factor
of a sign-flipped SVD, e1 certifies the paper's SVD-only class (a
nonnegative irreducible M has a positive leading right singular
vector), so those inputs need no LP.  It runs first in ``semi_rank``
and at eps = 0 in ``bisection_epsilon``.

``nnls_certificate`` settles what the closed form leaves open in
``semi_rank`` as a least-distance problem (Lawson and Hanson, *Solving
Least Squares Problems*, ch. 23): nonnegative least squares on r + 1
rows finds the point of the convex hull of the normalized columns
nearest the origin.  That point is a max-margin witness when it verifies,
and otherwise its weights are a Gordan certificate of infeasibility.
The NNLS solver keeps its passive columns as a thin QR with R^-1: a
column that enters is appended by one Gram-Schmidt step (ch. 24), and
only a dropped column, which is rare, rebuilds the factors.  The
bisection keeps ``lp_feasibility``.

Every witness passes one rule (``_verified_witness``): a direction y is
accepted only when  min_j (c_j / ||c_j||).y > ZERO_TOL * ||y||,  and the
witness is y / min_j c_j.y.  The LP's z, e1, the centroid, the NNLS hull
point and the all-ones vector at the bisection's eps_plus are such y.

``bisection_epsilon`` searches for the smallest shift eps >= 0 such that
the columns of B + eps (entrywise) admit such a witness, by bisection on
eps over [0, eps_plus] with eps_plus = max(0, -min(B)), where the upper
endpoint is always feasible.  It halves the bracket a fixed
``BISECTION_STEPS`` times, so it ends on every input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import NumericalError
from .linalg import as_matrix, pow2_scale
from .simplex import simplex_min

__all__ = [
    "HalfspaceCertificate",
    "BisectionResult",
    "lp_feasibility",
    "closed_form_certificate",
    "nnls_certificate",
    "bisection_epsilon",
]

ZERO_TOL = 1e-12  # relative cutoff for a zero column, and the closed-form margin floor
BISECTION_STEPS = 10  # 2**-10 < 1e-3: the bracket ends below 1e-3 * eps_plus
NNLS_MAX_ITER = 3  # NNLS passes per column before giving up (Lawson and Hanson's 3n)


@dataclass(frozen=True)
class HalfspaceCertificate:
    """Outcome of a half-space interior containment test.

    When ``feasible``, ``z`` satisfies  c.z >= 1 - 1e-9  for every tested
    column c (the input's columns that ``nonzero_columns`` keeps) and
    ``margin`` is the smallest such product (``inf`` when no column was
    kept).  When infeasible, ``z`` and ``margin`` are None: no witness
    exists up to the deciding branch's tolerance.  ``pivots`` counts the
    simplex pivots spent on the test (0 when no LP was solved), and
    ``passes`` the NNLS passes (0 unless ``method`` is ``"nnls"``).
    ``method`` names the branch that decided:
    ``"e1"`` or ``"centroid"`` (closed form), ``"nnls"`` (least
    distance), ``"lp"`` (simplex), or ``"vacuous"`` (no column to test).

    An infeasible ``"nnls"`` verdict carries its Gordan certificate:
    nonnegative ``weights`` summing to 1 on the columns ``support`` (at
    most r + 1 column indices of the input), whose combination of the
    unit-normalized columns has 2-norm ``distance``, zero up to rounding.
    The three fields are None otherwise.
    """

    feasible: bool
    z: np.ndarray | None = None
    margin: float | None = None
    pivots: int = 0
    passes: int = 0
    method: str = "lp"
    support: np.ndarray | None = None
    weights: np.ndarray | None = None
    distance: float | None = None


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


def _vacuous(m: int) -> HalfspaceCertificate:
    """The certificate of a test with no column: any z is a witness."""
    return HalfspaceCertificate(feasible=True, z=np.ones(m), margin=np.inf, method="vacuous")


def nonzero_columns(M: np.ndarray) -> np.ndarray:
    """Mask of the columns whose 2-norm exceeds ZERO_TOL * max|M|."""
    M = M / pow2_scale(M)
    return np.linalg.norm(M, axis=0) > ZERO_TOL * float(np.max(np.abs(M), initial=0.0))


def _normalized(columns):
    """(C / s, its unit-normalized columns, s, kept) for the columns C of
    ``columns`` that ``nonzero_columns`` keeps, at indices ``kept``, with
    s = ``pow2_scale(C)``; the division is exact, so nothing depends on a
    power-of-two scale of the input."""
    C = as_matrix(columns, "columns")
    kept = np.flatnonzero(nonzero_columns(C))
    C = C[:, kept]
    s = pow2_scale(C)
    C = C / s
    return C, C / np.linalg.norm(C, axis=0), s, kept


def _verified_witness(C, Cn, s, y, method, pivots=0) -> HalfspaceCertificate | None:
    """Feasible certificate from the candidate direction y, or None.

    ``C``, ``Cn`` and ``s`` come from ``_normalized``.  The one witness
    rule: y is accepted only when  min_j Cn_j.y > ZERO_TOL * ||y||,  far
    above the rounding of the products, so columns on the boundary of a
    half space (which have no witness) are never accepted.  The witness
    is y / min_j C_j.y, of margin 1, divided by s.  Raises
    ``NumericalError`` when that is not representable: columns of
    subnormal size need a witness beyond the float range.
    """
    if not np.min(Cn.T @ y) > ZERO_TOL * np.linalg.norm(y):
        return None
    z = y / np.min(C.T @ y)
    margin = float(np.min(C.T @ z))
    with np.errstate(over="ignore"):
        z = z / s
    if not np.isfinite(z).all():
        raise NumericalError(
            f"half-space witness overflows at column scale 2**{int(np.frexp(s)[1]) - 1}"
        )
    return HalfspaceCertificate(feasible=True, z=z, margin=margin, pivots=pivots, method=method)


def lp_feasibility(columns) -> HalfspaceCertificate:
    """Decide whether all columns lie in the interior of a common half space.

    ``columns`` is an m-by-n matrix; its p columns that ``nonzero_columns``
    keeps are tested, and with p = 0 the test is vacuously feasible.
    Solves  min t  subject to  c_j.z >= b_j - t,  t >= 0  on the
    unit-normalized columns.  The optimum separates cleanly: any witness
    can be scaled until t = 0, while infeasibility forces some product
    nonpositive and hence t >= min b.  The right-hand sides carry a
    deterministic spread (b_j slightly above 1) so the infeasible optimum
    vertex is not degenerate, which keeps the pivot count small.  The
    optimal z passes the witness rule of ``_verified_witness``, or
    ``NumericalError`` is raised.  The columns are first divided by
    ``pow2_scale`` (exact), so nothing depends on a power-of-two scale of
    the input.
    """
    C, Cn, s, _ = _normalized(columns)
    m, p = C.shape
    if p == 0:
        return _vacuous(m)

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

    # only y's direction matters; the 1 / min ||c|| prescale pins z's rounding
    y = (res.x[:m] - res.x[m : 2 * m]) / np.linalg.norm(C, axis=0).min()
    cert = _verified_witness(C, Cn, s, y, "lp", res.iterations)
    if cert is None:
        raise NumericalError(f"half-space witness failed verification at slack {t_star:.3e}")
    return cert


def closed_form_certificate(columns) -> HalfspaceCertificate | None:
    """Feasible certificate from a fixed witness, or None when undecided.

    Tries y = e1, then the centroid y = sum_j c_j / ||c_j||, on the
    columns that ``nonzero_columns`` keeps, each under the witness rule of
    ``_verified_witness``.  None, also when no column is kept, says
    nothing about feasibility: the LP has to settle it.
    """
    C, Cn, s, _ = _normalized(columns)
    m, p = C.shape
    if p == 0:
        return None
    for method, y in (("e1", np.eye(m)[0]), ("centroid", Cn.sum(axis=1))):
        cert = _verified_witness(C, Cn, s, y, method)
        if cert is not None:
            return cert
    return None


def _append_column(Q, Rinv, qtf, k, a, f) -> None:
    """Border the thin QR of the first k passive columns with column a.

    One Gram-Schmidt step against Q[:, :k], with one reorthogonalization,
    gives a = Q h + rho q.  Writes q to Q[:, k], the new column
    [-R^-1 h; 1] / rho of R^-1 to Rinv[:k + 1, k] and q.f to qtf[k].
    """
    Qk = Q[:, :k]
    h = Qk.T @ a
    v = a - Qk @ h
    g = Qk.T @ v
    v -= Qk @ g
    h += g
    rho = float(np.linalg.norm(v))
    Q[:, k] = v / rho
    Rinv[:k, k] = -(Rinv[:k, :k] @ h) / rho
    Rinv[k, k] = 1.0 / rho
    qtf[k] = Q[:, k] @ f


def _nnls(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, int]:
    """argmin ||E x - f|| over x >= 0, by Lawson and Hanson's active set method.

    Each pass either lets in the column of largest positive gradient
    entry or, when the passive-set least-squares solution has a
    nonpositive weight, steps toward it until the first weight reaches
    zero and drops that column.  The passive columns are kept as a thin
    QR with R^-1 (Lawson and Hanson, ch. 24; Bjorck, section 2.7): an
    entering column is appended by one Gram-Schmidt step against Q,
    bordering R^-1 and Q^T f, and the weights are R^-1 Q^T f, with no
    factorization and no solve; a drop, which is rare, rebuilds the
    factors by appending the remaining passive columns in order of
    entry.  The picked column always enters: x solves the passive least
    squares, so r = f - E x is orthogonal to Q and ||r|| <= 1, and the
    column a = Q h + rho q has gain w = rho q.r <= rho and new weight
    q.f / rho = w / rho^2 >= w / 2 > 0 (the columns of E have norm
    sqrt(2)).  Returns x and the number of passes run, counting the
    last.  Raises ``NumericalError`` after ``NNLS_MAX_ITER`` passes per
    column.
    """
    n, p = E.shape
    x = np.zeros(p)
    w = E.T @ f
    passive: list[int] = []  # in order of entry, so the entering column is last in R
    # thin QR of E[:, passive] in the leading len(passive) slots; at most
    # min(n, p) columns can be independent
    d = min(n, p)
    Q, Rinv, qtf = np.zeros((n, d)), np.zeros((d, d)), np.zeros(d)
    s = None  # passive-set solution not yet taken as the iterate
    for passes in range(1, NNLS_MAX_ITER * p + 1):
        if s is not None and (s <= 0.0).any():
            xp = x[passive]
            neg = np.flatnonzero(s <= 0.0)
            ratios = xp[neg] / (xp[neg] - s[neg])
            k = int(np.argmin(ratios))
            xp += ratios[k] * (s - xp)
            xp[neg[k]] = 0.0
            x[passive] = np.maximum(xp, 0.0)
            passive = [j for j in passive if x[j] > 0.0]
            for i, j in enumerate(passive):
                _append_column(Q, Rinv, qtf, i, E[:, j], f)
            k = len(passive)
            s = Rinv[:k, :k] @ qtf[:k]
            continue
        if s is not None:
            x[:] = 0.0
            x[passive] = s
            w = E.T @ (f - E @ x)
            s = None
        gain = w.copy()
        gain[passive] = -np.inf
        t = int(np.argmax(gain))
        k = len(passive)
        # k = d: no column is left, or n passive columns span the space
        if k == d or not gain[t] > ZERO_TOL:
            return x, passes
        _append_column(Q, Rinv, qtf, k, E[:, t], f)
        s = Rinv[: k + 1, : k + 1] @ qtf[: k + 1]
        passive.append(t)
    raise NumericalError(f"NNLS iteration limit exceeded ({NNLS_MAX_ITER * p} passes, {p} columns)")


def nnls_certificate(columns) -> HalfspaceCertificate:
    """Decide half-space containment as a least-distance problem.

    The columns C of ``columns`` that ``nonzero_columns`` keeps are
    divided by ``pow2_scale`` (exact) and unit-normalized as in
    ``lp_feasibility``: Cn = C / ||c||; with none kept the test is
    vacuously feasible.  Nonnegative least squares on min ||E mu - f||,
    with E = [Cn; 1^T] and f = e_{m+1}, has m + 1 rows.  With g = mu / 1.mu,
    y = Cn g is the point of conv(Cn) nearest the origin, and the
    direction of y has the largest normalized margin.  y is accepted as
    a witness by the rule of ``_verified_witness``; otherwise the verdict
    is infeasible and the certificate carries the support of g, as column
    indices of ``columns``, its weights and the distance ||Cn g||.

    Limit: the normalized margin of y is ||y||^2 in exact arithmetic,
    while y carries rounding of order machine epsilon times the
    conditioning of the passive columns.  So a witness verifies only at
    a distance well above rounding: the tests' ``TIGHT_2x3`` lifted by a
    first row of relative size 1e-7 verifies, lifted by 1e-12 to 1e-9 it
    is reported infeasible (as ``lp_feasibility`` reports it) unless
    ``closed_form_certificate`` certifies it.  There is no tolerance to
    tune: a verified witness is always genuine.

    Raises ``NumericalError`` when NNLS exceeds ``NNLS_MAX_ITER`` passes
    per column.
    """
    C, Cn, s, kept = _normalized(columns)
    m, p = C.shape
    if p == 0:
        return _vacuous(m)
    mu, passes = _nnls(np.vstack([Cn, np.ones((1, p))]), np.eye(m + 1)[m])
    support = np.flatnonzero(mu)
    g = mu[support] / mu[support].sum()
    y = Cn[:, support] @ g
    cert = _verified_witness(C, Cn, s, y, "nnls") or HalfspaceCertificate(
        feasible=False,
        method="nnls",
        support=kept[support],
        weights=g,
        distance=float(np.linalg.norm(y)),
    )
    return replace(cert, passes=passes)


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
    cert0 = closed_form_certificate(B0) or lp_feasibility(B0)
    lp_calls = int(cert0.pivots > 0)
    pivots = cert0.pivots
    trace.append((0.0, cert0.feasible))
    if cert0.feasible:
        return BisectionResult(0.0, cert0.z, eps_plus, lp_calls, tuple(trace), pivots)

    # B + eps_plus >= 0, so y = 1 passes: min_j ||Cn_j||_1 >= 1 > ZERO_TOL * sqrt(m);
    # a nonzero column is left, or B would be constant and feasible at eps = 0
    eps_lo, eps_hi = 0.0, eps_plus
    C, Cn, s, _ = _normalized(B + eps_plus)
    y_hi = _verified_witness(C, Cn, s, np.ones(B.shape[0]), "ones").z
    trace.append((eps_plus, True))
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (eps_lo + eps_hi)
        cert = lp_feasibility(B + mid)
        lp_calls += int(cert.pivots > 0)
        pivots += cert.pivots
        trace.append((mid, cert.feasible))
        if cert.feasible:
            eps_hi, y_hi = mid, cert.z
        else:
            eps_lo = mid

    return BisectionResult(float(eps_hi), y_hi, eps_plus, lp_calls, tuple(trace), pivots)
