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

import dataclasses
import math
import time
from dataclasses import MISSING, dataclass, field

import numpy as np

from .exceptions import NumericalError
from .initializers import STRATEGY_KINDS, InitStrategy, initialize
from .linalg import Svd, as_matrix, best_rank_error, frob, least_squares_left, make_rng, thin_svd
from .solver import cd_semi_nmf  # noqa: F401  unused here, but perfbench/tracer.py wraps this name
from .solver import cd_semi_nmf_stack

__all__ = [
    "quality",
    "quality_from_error",
    "gen_nonnegative",
    "gen_semi_nonneg",
    "gen_noisy_semi",
    "TrialConfig",
    "ExperimentRecord",
    "run_starts",
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


def _is_int(x) -> bool:
    """An int that is not a bool (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _default_inner_dim(generator, r, inner_dim):
    """``inner_dim``, or the semi_nonneg default if None (None while r is not an int)."""
    if inner_dim is None and generator == "semi_nonneg" and _is_int(r):
        return r + 10
    return inner_dim


def config_problems(fields: dict) -> list[str]:
    """Validate a config dict; fields left out take their TrialConfig defaults.

    Returns one message per offending field, led by the field's name and a
    colon, and raises nothing on malformed values.
    """
    f = {d.name: d.default for d in dataclasses.fields(TrialConfig) if d.default is not MISSING}
    f.update(fields)
    errs = []
    gen = f.get("generator")
    if not (isinstance(gen, str) and gen in GENERATOR_KINDS):
        errs.append(f"generator: unknown kind {gen!r}")
        gen = None
    for key in ("m", "n", "r"):
        if not _is_int(f.get(key)):
            errs.append(f"{key}: missing or not an integer")
    m, n, r = f.get("m"), f.get("n"), f.get("r")
    dims_ok = _is_int(m) and _is_int(n)
    if dims_ok and (m < 1 or n < 1):
        errs.append(f"m/n: must be positive, got {m}x{n}")
        dims_ok = False
    if dims_ok and _is_int(r) and not 1 <= r <= min(m, n):
        errs.append(f"r: {r} out of range for {m}x{n}")
    k, d = _default_inner_dim(gen, r, f.get("inner_dim")), f.get("delta")
    if gen == "semi_nonneg" and k is not None:
        if not _is_int(k) or (dims_ok and not 1 <= k <= min(m, n)):
            errs.append(f"inner_dim: {k!r} invalid for semi_nonneg")
    elif gen in GENERATOR_KINDS and k is not None:
        errs.append(f"inner_dim: {gen} ignores it (semi_nonneg only)")
    if gen == "noisy_semi":
        if isinstance(d, bool) or not isinstance(d, (int, float)) or not d >= 0:
            errs.append(f"delta: {d!r} invalid for noisy_semi")
    elif gen in GENERATOR_KINDS and d is not None:
        errs.append(f"delta: {gen} ignores it (noisy_semi only)")
    strategies, max_iter, checkpoints = f["strategies"], f["max_iter"], f["checkpoints"]
    if not isinstance(strategies, (tuple, list)):
        errs.append(f"strategies: expected a sequence of names, got {strategies!r}")
        strategies = ()
    for s in strategies:
        if not (isinstance(s, str) and s in STRATEGY_KINDS):
            errs.append(f"strategies: unknown strategy {s!r}")
    max_iter_ok = _is_int(max_iter) and max_iter >= 1
    if not _is_int(max_iter):
        errs.append(f"max_iter: expected an integer, got {max_iter!r}")
    elif not max_iter_ok:
        errs.append("max_iter: must be >= 1")
    if not isinstance(checkpoints, (tuple, list)) or not all(map(_is_int, checkpoints)):
        errs.append(f"checkpoints: expected a sequence of integers, got {checkpoints!r}")
    elif max_iter_ok and any(not 0 <= c <= max_iter for c in checkpoints):
        errs.append(f"checkpoints: must lie in [0, {max_iter}]")
    return errs


@dataclass(frozen=True)
class TrialConfig:
    """One generator x dimensions x rank row of a benchmark suite."""

    generator: str
    m: int
    n: int
    r: int
    inner_dim: int | None = None  # semi_nonneg product inner dimension (None: its default)
    delta: float | None = None  # noisy_semi noise level (may be inf)
    strategies: tuple[str, ...] = STRATEGY_KINDS
    max_iter: int = 100
    checkpoints: tuple[int, ...] = (10, 100)
    name: str = ""

    def __post_init__(self):
        inner_dim = _default_inner_dim(self.generator, self.r, self.inner_dim)
        object.__setattr__(self, "inner_dim", inner_dim)
        errs = config_problems(dataclasses.asdict(self))
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
    wall_time: float = 0.0  # the start's own seconds plus the whole stack's CD seconds
    error: str | None = None
    error_trace: np.ndarray = field(default_factory=lambda: np.array([]))
    frob_m: float = math.nan


def _trial_seed(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_starts(M, r: int, strategies: list[InitStrategy], max_iter: int, svd: Svd) -> list:
    """Each start, then ``max_iter`` coordinate descent iterations from all of them.

    ``svd`` is the thin SVD of M, shared by every start on M.  The
    starts that initialize are solved as one stack, which gives each the
    bits of its own solve (see ``solver``).

    Returns one entry per strategy: (Factorization, errors, epsilon_star,
    seconds), where errors[0] is the start's error and errors[t] the
    error after t iterations, epsilon_star is the A3 shift (None for the
    other strategies) and seconds is the start's time plus the stack's;
    or the ValueError or NumericalError that failed that start.
    """
    # checked again by the solver, but before any start has run
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    results: list = []
    for strategy in strategies:
        t0 = time.perf_counter()
        try:
            init = initialize(M, r, strategy, svd)
            U0 = init.U0 if init.U0 is not None else least_squares_left(M, init.V0)
            init_err = frob(M - U0 @ init.V0)
        except (ValueError, NumericalError) as exc:
            results.append(exc)
            continue
        results.append((init, init_err, time.perf_counter() - t0))
    started = [k for k, res in enumerate(results) if not isinstance(res, Exception)]
    solved = cd_semi_nmf_stack(M, [results[k][0].V0 for k in started], max_iter)
    for k, res in zip(started, solved):
        if isinstance(res, Exception):
            results[k] = res
            continue
        init, init_err, init_s = results[k]
        fact, trace = res
        errors = np.concatenate([[init_err], trace.errors])
        eps = init.bisection.epsilon_star if init.bisection is not None else None
        results[k] = (fact, errors, eps, init_s + trace.wall_time)
    return results


def _run_trial(cfg: TrialConfig, ci: int, ti: int, master_seed: int) -> list[ExperimentRecord]:
    matrix_seed = _trial_seed(master_seed, ci, ti, 0)
    M = _generate(cfg, matrix_seed)
    svd = thin_svd(M)
    best_err = svd.tail_error(cfg.r)
    frob_m = frob(M)

    row = dict(
        config=cfg.name, generator=cfg.generator, m=cfg.m, n=cfg.n, r=cfg.r,
        inner_dim=cfg.inner_dim, delta=cfg.delta, trial=ti,
    )
    # the trailing 0 is part of the seed derivation: dropping it changes every seed
    seeds = [_trial_seed(master_seed, ci, ti, 1 + si, 0) for si in range(len(cfg.strategies))]
    strategies = [InitStrategy(kind=kind, seed=seed) for kind, seed in zip(cfg.strategies, seeds)]
    records = []
    for strat, res in zip(strategies, run_starts(M, cfg.r, strategies, cfg.max_iter, svd)):
        if isinstance(res, Exception):
            records.append(ExperimentRecord(
                **row, strategy=strat.kind, seed=matrix_seed, error=str(res),
                quality_trace=np.array([]), final_quality=math.nan,
                checkpoint_quality={c: math.nan for c in cfg.checkpoints},
            ))
            continue
        _, errors, eps, wall = res
        qual = np.array([quality_from_error(e, best_err, frob_m) for e in errors])
        records.append(ExperimentRecord(
            **row, strategy=strat.kind, seed=strat.seed, epsilon_star=eps, wall_time=wall,
            quality_trace=qual, final_quality=float(qual[-1]),
            checkpoint_quality={c: float(qual[c]) for c in cfg.checkpoints},
            error_trace=errors, frob_m=frob_m,
        ))
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
    them in this process.  ``trials`` or ``jobs`` that is not an integer
    (a bool is not), or is below 1, is a ValueError.
    """
    for key, count in (("trials", trials), ("jobs", jobs)):
        if not _is_int(count):
            raise ValueError(f"{key} must be an integer, got {count!r}")
        if count < 1:
            raise ValueError(f"{key} must be >= 1")
    tasks = [(ci, cfg, ti) for ci, cfg in enumerate(configs) for ti in range(trials)]
    if jobs == 1:
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
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    # quality_from_error's +inf would interpolate as inf - inf = nan: a level
    # that weighs it is inf, and the others give it a finite stand-in
    qs = np.quantile(np.minimum(arr, np.finfo(float).max), levels)
    qs[np.quantile(arr, levels, method="higher") == np.inf] = np.inf
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
