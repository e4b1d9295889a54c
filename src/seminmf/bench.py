"""Synthetic generators, the relative quality measure, and the experiment runner.

Quality of a factorization (U, V) of M at rank r is

    100 * (||M - U V||_F / ||M - X_r||_F - 1)

where X_r is the best unconstrained rank-r approximation: the distance,
in percent, from the unconstrained optimum.  It is nonnegative up to
roundoff for every feasible factorization.

The runner derives one seed per (config, trial) pair from a master seed,
so results are a pure function of (configs, trials, master_seed) and
independent of execution order and of the number of worker processes.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from .exceptions import NumericalError
from .initializers import STRATEGY_KINDS, InitStrategy, initialize
from .linalg import Svd, as_matrix, best_rank_error, frob, least_squares_left, make_rng, thin_svd
from .solver import cd_semi_nmf

__all__ = [
    "quality",
    "quality_from_error",
    "gen_nonnegative",
    "gen_semi_nonneg",
    "gen_noisy_semi",
    "TrialConfig",
    "ExperimentRecord",
    "run_start",
    "run_experiment",
    "config_problems",
    "records_to_csv",
    "summarize",
    "json_safe",
]

GENERATOR_KINDS = ("nonnegative", "semi_nonneg", "noisy_semi")


# ---------------------------------------------------------------------------
# quality measure


def quality_from_error(err: float, best_err: float, frob_m: float) -> float:
    """Quality in percent given the attained and best rank-r errors.

    When the best rank-r error is numerically zero the ratio is
    undefined; the convention is 0 when the attained error is also
    numerically zero and +inf otherwise.
    """
    if best_err <= 1e-12 * frob_m:
        return 0.0 if err <= 1e-10 * frob_m else math.inf
    return 100.0 * (err / best_err - 1.0)


def quality(M, U, V, r: int) -> float:
    """Percent distance of ||M - U V|| from the best rank-r error."""
    M = as_matrix(M, "M")
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    return quality_from_error(frob(M - U @ V), best_rank_error(M, r), frob(M))


# ---------------------------------------------------------------------------
# synthetic generators (section 5 protocol)


def gen_nonnegative(m: int, n: int, seed: int) -> np.ndarray:
    """Entries i.i.d. uniform in [0, 1)."""
    return make_rng(seed).random((m, n))


def gen_semi_nonneg(m: int, n: int, k: int, seed: int) -> np.ndarray:
    """Product of a Gaussian m-by-k factor and a uniform k-by-n factor."""
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for {m}x{n}")
    rng = make_rng(seed)
    return rng.standard_normal((m, k)) @ rng.random((k, n))


def gen_noisy_semi(m: int, n: int, r: int, delta: float, seed: int) -> np.ndarray:
    """Rank-r semi-nonnegative product plus Gaussian noise scaled by delta.

    The noise magnitude is delta times the mean absolute entry of the
    clean product.  delta = 0 reproduces the clean product bit-exactly;
    delta = inf draws a pure Gaussian matrix instead.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0 (or inf)")
    if math.isinf(delta):
        return make_rng(seed).standard_normal((m, n))
    rng = make_rng(seed)
    M = rng.standard_normal((m, r)) @ rng.random((r, n))
    if delta == 0:
        return M
    x_m = float(np.abs(M).mean())
    return M + delta * x_m * rng.standard_normal((m, n))


def _generate(cfg: "TrialConfig", seed: int) -> np.ndarray:
    if cfg.generator == "nonnegative":
        return gen_nonnegative(cfg.m, cfg.n, seed)
    if cfg.generator == "semi_nonneg":
        return gen_semi_nonneg(cfg.m, cfg.n, cfg.inner_dim, seed)
    return gen_noisy_semi(cfg.m, cfg.n, cfg.r, cfg.delta, seed)


# ---------------------------------------------------------------------------
# experiment runner


def config_problems(fields: dict) -> list[str]:
    """Validate a config dict; fields left out take their TrialConfig defaults.

    Returns one message per offending field.
    """
    f = {d.name: d.default for d in dataclass_fields(TrialConfig) if d.default is not MISSING}
    f.update(fields)
    errs = []
    gen = f.get("generator")
    if gen not in GENERATOR_KINDS:
        errs.append(f"generator: unknown kind {gen!r}")
    for key in ("m", "n", "r"):
        if not isinstance(f.get(key), int):
            errs.append(f"{key}: missing or not an integer")
    m, n, r = f.get("m"), f.get("n"), f.get("r")
    dims_ok = isinstance(m, int) and isinstance(n, int)
    if dims_ok and (m < 1 or n < 1):
        errs.append(f"m/n: must be positive, got {m}x{n}")
        dims_ok = False
    if dims_ok and isinstance(r, int) and not 1 <= r <= min(m, n):
        errs.append(f"r: {r} out of range for {m}x{n}")
    if gen == "semi_nonneg":
        k = f.get("inner_dim")
        if not isinstance(k, int) or (dims_ok and not 1 <= k <= min(m, n)):
            errs.append(f"inner_dim: {k!r} invalid for semi_nonneg")
    if gen == "noisy_semi":
        d = f.get("delta")
        if not isinstance(d, (int, float)) or not d >= 0:
            errs.append(f"delta: {d!r} invalid for noisy_semi")
    for s in f["strategies"]:
        if s not in STRATEGY_KINDS:
            errs.append(f"strategies: unknown strategy {s!r}")
    if not isinstance(f["max_iter"], int) or f["max_iter"] < 1:
        errs.append("max_iter: must be >= 1")
    elif any(c < 0 or c > f["max_iter"] for c in f["checkpoints"]):
        errs.append(f"checkpoints: must lie in [0, {f['max_iter']}]")
    if not isinstance(f["restarts"], int) or f["restarts"] < 1:
        errs.append("restarts: must be >= 1")
    return errs


@dataclass(frozen=True)
class TrialConfig:
    """One generator x dimensions x rank row of a benchmark suite."""

    generator: str
    m: int
    n: int
    r: int
    inner_dim: int | None = None  # semi_nonneg product inner dimension
    delta: float | None = None  # noisy_semi noise level (may be inf)
    strategies: tuple[str, ...] = STRATEGY_KINDS
    max_iter: int = 100
    checkpoints: tuple[int, ...] = (10, 100)
    restarts: int = 1
    name: str = ""

    def __post_init__(self):
        errs = config_problems(
            {k: getattr(self, k) for k in (
                "generator", "m", "n", "r", "inner_dim", "delta",
                "strategies", "max_iter", "checkpoints", "restarts",
            )}
        )
        if errs:
            raise ValueError("; ".join(errs))
        if not self.name:
            object.__setattr__(self, "name", self.default_name())

    def default_name(self) -> str:
        parts = [self.generator, f"m{self.m}", f"n{self.n}", f"r{self.r}"]
        if self.inner_dim is not None:
            parts.append(f"k{self.inner_dim}")
        if self.delta is not None:
            d = "inf" if math.isinf(self.delta) else f"{self.delta:g}"
            parts.append(f"d{d}")
        return "-".join(parts)


@dataclass(frozen=True)
class ExperimentRecord:
    """One strategy run on one generated matrix."""

    config: str
    generator: str
    m: int
    n: int
    r: int
    inner_dim: int | None
    delta: float | None
    strategy: str
    trial: int
    seed: int
    quality_trace: np.ndarray  # entry 0 = initialization, entry t = after t iterations
    final_quality: float
    checkpoint_quality: dict[int, float] = field(default_factory=dict)
    epsilon_star: float | None = None
    wall_time: float = 0.0
    error: str | None = None
    error_trace: np.ndarray = field(default_factory=lambda: np.array([]))
    best_error: float = math.nan
    frob_m: float = math.nan


def _trial_seed(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _failure_record(cfg, ti, seed, strategy, msg):
    return ExperimentRecord(
        config=cfg.name, generator=cfg.generator, m=cfg.m, n=cfg.n, r=cfg.r,
        inner_dim=cfg.inner_dim, delta=cfg.delta, strategy=strategy, trial=ti,
        seed=seed, quality_trace=np.array([]), final_quality=math.nan,
        checkpoint_quality={c: math.nan for c in cfg.checkpoints}, error=msg,
    )


def run_start(M, r: int, strategy: InitStrategy, max_iter: int, svd: Svd):
    """One start and ``max_iter`` coordinate descent iterations from it.

    ``svd`` is the thin SVD of M, shared by every start on M.

    Returns (Factorization, errors, epsilon_star): errors[0] is the
    start's error and errors[t] the error after t iterations;
    epsilon_star is the A3 shift, None for the other strategies.
    """
    init = initialize(M, r, strategy, svd)
    U0 = init.U0 if init.U0 is not None else least_squares_left(M, init.V0)
    init_err = frob(M - U0 @ init.V0)
    fact, trace = cd_semi_nmf(M, init.V0, max_iter)
    errors = np.concatenate([[init_err], trace.errors])
    eps = init.bisection.epsilon_star if init.bisection is not None else None
    return fact, errors, eps


def _run_trial(cfg: TrialConfig, ci: int, ti: int, master_seed: int) -> list[ExperimentRecord]:
    matrix_seed = _trial_seed(master_seed, ci, ti, 0)
    M = _generate(cfg, matrix_seed)
    svd = thin_svd(M)
    best_err = svd.tail_error(cfg.r)
    frob_m = frob(M)

    records = []
    for si, strategy in enumerate(cfg.strategies):
        best_run = None
        eps_star = None
        wall = 0.0
        failure = None
        for restart in range(cfg.restarts):
            seed = _trial_seed(master_seed, ci, ti, 1 + si, restart)
            t0 = time.perf_counter()
            try:
                strat = InitStrategy(kind=strategy, seed=seed)
                _, errors, eps = run_start(M, cfg.r, strat, cfg.max_iter, svd)
            except (ValueError, NumericalError) as exc:
                failure = str(exc)
                break
            wall += time.perf_counter() - t0
            if best_run is None or errors[-1] < best_run[1][-1]:
                best_run = (seed, errors)
                eps_star = eps
        if failure is not None or best_run is None:
            records.append(_failure_record(cfg, ti, matrix_seed, strategy, failure or "no run"))
            continue
        seed, errors = best_run
        qual = np.array([quality_from_error(e, best_err, frob_m) for e in errors])
        records.append(
            ExperimentRecord(
                config=cfg.name, generator=cfg.generator, m=cfg.m, n=cfg.n,
                r=cfg.r, inner_dim=cfg.inner_dim, delta=cfg.delta,
                strategy=strategy, trial=ti, seed=seed,
                quality_trace=qual, final_quality=float(qual[-1]),
                checkpoint_quality={c: float(qual[c]) for c in cfg.checkpoints},
                epsilon_star=eps_star, wall_time=wall,
                error_trace=errors, best_error=best_err, frob_m=frob_m,
            )
        )
    return records


def run_experiment(
    configs: list[TrialConfig], trials: int, master_seed: int, jobs: int = 1
) -> list[ExperimentRecord]:
    """Run every config x trial x strategy combination.

    Per-trial seeds are derived from (master_seed, config index, trial
    index), so records do not depend on scheduling; individual strategy
    failures are recorded on the ExperimentRecord rather than raised.
    ``jobs`` > 1 runs the trials on that many spawned worker processes
    (at most one per trial), so a script that calls this with jobs > 1
    needs the ``if __name__ == "__main__":`` guard; ``jobs`` = 1 runs
    them in this process.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tasks = [(ci, cfg, ti) for ci, cfg in enumerate(configs) for ti in range(trials)]
    if jobs <= 1:
        results = [_run_trial(cfg, ci, ti, master_seed) for ci, cfg, ti in tasks]
    else:
        # imported here so in-process runs do not load the pool's modules;
        # spawned workers import the package afresh, as fork is unsafe once
        # BLAS has started its threads
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(min(jobs, len(tasks)), mp_context=spawn) as pool:
            futures = [pool.submit(_run_trial, cfg, ci, ti, master_seed) for ci, cfg, ti in tasks]
            results = [f.result() for f in futures]
    return [rec for batch in results for rec in batch]


# ---------------------------------------------------------------------------
# record serialization: CSV of per-trial rows, JSON summary of quantiles


def json_safe(x):
    """JSON has no Infinity/NaN literals; encode them as strings."""
    if x is None:
        return None
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def records_to_csv(records: list[ExperimentRecord]) -> str:
    """Render records deterministically, one row per record.

    Wall times are excluded on purpose so identical seeds give
    byte-identical output.
    """
    checkpoints = sorted({c for rec in records for c in rec.checkpoint_quality})
    header = [
        "config", "generator", "m", "n", "r", "inner_dim", "delta",
        "strategy", "trial", "seed", "epsilon_star",
    ] + [f"quality_at_{c}" for c in checkpoints] + ["final_quality", "error"]

    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return repr(x)
        return str(x)

    lines = [",".join(header)]
    for rec in records:
        row = [
            rec.config, rec.generator, rec.m, rec.n, rec.r, rec.inner_dim,
            rec.delta, rec.strategy, rec.trial, rec.seed, rec.epsilon_star,
        ]
        row += [rec.checkpoint_quality.get(c) for c in checkpoints]
        row += [rec.final_quality, rec.error]
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _quantiles(values) -> dict:
    arr = np.array([v for v in values if not math.isnan(v)])
    if arr.size == 0:
        return {"count": 0}
    qs = np.quantile(arr, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "count": int(arr.size),
        "min": json_safe(float(qs[0])),
        "q25": json_safe(float(qs[1])),
        "median": json_safe(float(qs[2])),
        "q75": json_safe(float(qs[3])),
        "max": json_safe(float(qs[4])),
    }


def summarize(records: list[ExperimentRecord]) -> dict:
    """Per-config, per-strategy quality quantiles at each checkpoint and final."""
    grouped: dict = {}
    for rec in records:
        grouped.setdefault(rec.config, {}).setdefault(rec.strategy, []).append(rec)
    out: dict = {}
    for config, by_strategy in grouped.items():
        out[config] = {}
        for strategy, recs in by_strategy.items():
            entry = {
                "final": _quantiles([r.final_quality for r in recs]),
                "failures": sum(1 for r in recs if r.error is not None),
            }
            checkpoints = sorted({c for r in recs for c in r.checkpoint_quality})
            for c in checkpoints:
                entry[f"iter_{c}"] = _quantiles(
                    [r.checkpoint_quality[c] for r in recs if c in r.checkpoint_quality]
                )
            out[config][strategy] = entry
    return out
