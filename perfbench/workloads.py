"""The benchmark's three workloads: seeded inputs, the public call, output checks.

Problem ``i`` of a run is a pure function of (workload seed, i), so a
seed names the exact inputs.  Problems are run in whole rounds (one of
each desk-suite config, or one feasible plus one infeasible exact-rank
matrix) so the mix of shapes is the same in every run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import seminmf
from seminmf.cli import preset_configs

MONOTONE_RTOL = 1e-12  # acceptance criterion 6's slack on the CD error trace
QUALITY_FLOOR = -1e-9  # quality below this means an error under the rank-r optimum
EXACT_RTOL = 1e-9  # ||M - U V||_F <= EXACT_RTOL * ||M||_F for semi_rank

EXACT_SHAPE = (200, 400)
EXACT_RANK = 80


def problem_seed(seed: int, stream: int, index: int) -> int:
    """64-bit seed of problem ``index``; stream 0 is measured, stream 1 warms up."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(stream, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Workload:
    """One input family: how to make problem i, solve it, check and digest it."""

    name: str
    round_size: int
    root: str  # span name of the benchmark's call into the package
    make: Callable[[int, int, int], tuple]  # (seed, stream, index) -> input
    solve: Callable[[tuple], object]
    check: Callable[[tuple, object], list]
    digest: Callable[[object], bytes]
    qualities: Callable[[object], list]


# ---------------------------------------------------------------------------
# CD workloads: one (config, trial) per run_experiment call


def _suite_check(inp, records) -> list:
    cfg = inp[0]
    errs = []
    if len(records) != len(cfg.strategies):
        errs.append(f"{len(records)} records for {len(cfg.strategies)} strategies")
    for rec in records:
        tag = f"{rec.config}/{rec.strategy}"
        if rec.error is not None:
            errs.append(f"{tag}: {rec.error}")
            continue
        e, q = rec.error_trace, rec.quality_trace
        if e.shape != (cfg.max_iter + 1,) or q.shape != e.shape:
            errs.append(f"{tag}: trace lengths {e.shape}, {q.shape}")
            continue
        if not (np.isfinite(e).all() and np.isfinite(q).all()):
            errs.append(f"{tag}: non-finite trace")
            continue
        slack = MONOTONE_RTOL * max(e[0], rec.frob_m)
        if np.any(np.diff(e) > slack):
            errs.append(f"{tag}: error trace rises by {np.diff(e).max():.3e}")
        if q.min() < QUALITY_FLOOR:
            errs.append(f"{tag}: quality {q.min():.3e} below the rank-r optimum")
        if rec.epsilon_star is not None and not (0.0 <= rec.epsilon_star < math.inf):
            errs.append(f"{tag}: epsilon_star {rec.epsilon_star!r}")
    return errs


def _suite_digest(records) -> bytes:
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.config}|{rec.strategy}|{rec.seed}|{rec.epsilon_star!r}".encode())
        h.update(rec.error_trace.tobytes())
        h.update(rec.quality_trace.tobytes())
    return h.digest()


def _suite_workload(name: str, configs: list) -> Workload:
    def make(seed, stream, index):
        return configs[index % len(configs)], problem_seed(seed, stream, index)

    return Workload(
        name=name,
        round_size=len(configs),
        root="bench.run_trial",
        make=make,
        solve=lambda inp: seminmf.run_experiment([inp[0]], 1, inp[1]),
        check=_suite_check,
        digest=_suite_digest,
        qualities=lambda records: [rec.final_quality for rec in records],
    )


# ---------------------------------------------------------------------------
# exact-rank: semi_rank on rank-80 products, feasible and infeasible in turn


def _exact_make(seed, stream, index):
    rng = np.random.Generator(np.random.PCG64(problem_seed(seed, stream, index)))
    m, n = EXACT_SHAPE
    A = rng.standard_normal((m, EXACT_RANK))
    feasible = index % 2 == 0
    B = rng.random((EXACT_RANK, n)) if feasible else rng.standard_normal((EXACT_RANK, n))
    return A @ B, feasible


def _exact_check(inp, rep) -> list:
    M, feasible = inp
    f = rep.factorization
    want = EXACT_RANK if feasible else EXACT_RANK + 1
    errs = []
    if rep.rank != EXACT_RANK:
        errs.append(f"rank {rep.rank}, expected {EXACT_RANK}")
    if rep.semi_rank not in (rep.rank, rep.rank + 1):
        errs.append(f"semi_rank {rep.semi_rank} not rank or rank + 1")
    if rep.semi_rank != want or rep.certificate.feasible != feasible:
        errs.append(f"verdict semi_rank={rep.semi_rank} feasible={rep.certificate.feasible}, "
                    f"generator class says feasible={feasible}")
    if f.U.shape != (M.shape[0], rep.semi_rank) or f.V.shape != (rep.semi_rank, M.shape[1]):
        errs.append(f"factor shapes {f.U.shape}, {f.V.shape}")
        return errs
    if not (np.isfinite(f.U).all() and np.isfinite(f.V).all()):
        errs.append("non-finite factors")
        return errs
    if f.V.min(initial=0.0) < 0.0:
        errs.append(f"V has a negative entry {f.V.min():.3e}")
    resid = float(np.linalg.norm(M - f.U @ f.V))
    if resid > EXACT_RTOL * float(np.linalg.norm(M)):
        errs.append(f"||M - UV|| = {resid:.3e} is not exact")
    return errs


def _exact_digest(rep) -> bytes:
    h = hashlib.sha256(f"{rep.rank}|{rep.semi_rank}|{rep.certificate.feasible}".encode())
    h.update(rep.factorization.U.tobytes())
    h.update(rep.factorization.V.tobytes())
    if rep.certificate.z is not None:
        h.update(rep.certificate.z.tobytes())
    return h.digest()


# ---------------------------------------------------------------------------

WORKLOADS = {
    # The paper's desk protocol and the `seminmf bench --preset paper-desk`
    # path; CD (solver + lstsq) dominates, the LP layer is minor.
    "desk-suite": _suite_workload("desk-suite", preset_configs("paper-desk")),
    # Pure-Gaussian A3 starts at paper-full scale: every start runs the full
    # bisection, so the many small LPs near the feasibility boundary dominate.
    "gauss-a3": _suite_workload("gauss-a3", [seminmf.TrialConfig(
        "noisy_semi", 100, 200, 20, delta=math.inf, strategies=("a3",)
    )]),
    # One large, decisive containment LP per problem (tableau over L2), no CD;
    # the only workload that exercises the factors layer.
    "exact-rank": Workload(
        name="exact-rank",
        round_size=2,
        root="factors.semi_rank",
        make=_exact_make,
        solve=lambda inp: seminmf.semi_rank(inp[0]),
        check=_exact_check,
        digest=_exact_digest,
        qualities=lambda rep: [],
    ),
}
