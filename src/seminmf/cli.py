"""Command-line front end.

Subcommands
-----------
rank
    Rank / semi-nonnegative rank report for a matrix file, with the
    half-space verdict and optional exact factor output.
factorize
    One initialization + coordinate descent run; writes the factors and
    prints the final error and quality.
bench
    Seeded benchmark suites over the synthetic generators; writes a CSV
    of per-trial records and an optional JSON summary of per-strategy
    quality quantiles.

Exit codes: 0 success, 2 usage or input error, 3 numerical failure.
The SEMINMF_SEED environment variable supplies the default --seed of
factorize and bench.

Suite files are flat text: one config per line of ``key=value`` tokens,
``#`` comments allowed.  Keys: generator (nonnegative | semi_nonneg |
noisy_semi), m, n, r, inner_dim (semi_nonneg only, default r+10), delta
(noisy_semi only; >= 0, ``inf`` allowed), strategies (comma list of
rd,km,a2,a3), max_iter, checkpoints (comma list), restarts, name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__, bench
from .bench import (
    TrialConfig,
    config_problems,
    json_safe,
    quality_from_error,
    records_to_csv,
    run_experiment,
    summarize,
)
from .exceptions import NumericalError
from .factors import semi_rank
from .halfspace import ZERO_TOL
from .initializers import STRATEGY_KINDS, InitStrategy
from .linalg import frob, thin_svd
from .matio import read_matrix, write_matrix

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


# ---------------------------------------------------------------------------
# rank


def _cmd_rank(args) -> int:
    M = read_matrix(args.input)
    report = semi_rank(M, zero_tol=args.zero_tol)
    cert = report.certificate
    print(
        f"rank={report.rank} semi_rank={report.semi_rank} "
        f"feasible={'true' if cert.feasible else 'false'}"
    )
    if cert.feasible and cert.z is not None and cert.z.size:
        print("witness_z=" + ",".join(f"{v:.6g}" for v in cert.z))
    print(f"frob_error={report.factorization.frob_error:.6e}")
    if args.out_u:
        write_matrix(args.out_u, report.factorization.U)
    if args.out_v:
        write_matrix(args.out_v, report.factorization.V)
    if args.json:
        payload = {
            "rank": report.rank,
            "semi_rank": report.semi_rank,
            "feasible": cert.feasible,
            "witness_z": None if cert.z is None else list(map(float, cert.z)),
            "margin": json_safe(cert.margin),
            "method": cert.method,
            "pivots": cert.pivots,
            "support": None if cert.support is None else cert.support.tolist(),
            "weights": None if cert.weights is None else cert.weights.tolist(),
            "distance": cert.distance,
            "frob_error": report.factorization.frob_error,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# factorize


def _cmd_factorize(args) -> int:
    if args.maxiter < 1:
        raise UsageError("--maxiter must be >= 1")
    if args.rank < 1:
        raise UsageError("--rank must be >= 1")
    if args.init == "a2" and args.rank < 2:
        raise UsageError("--init a2 needs --rank >= 2: it lifts a rank r-1 factorization")
    M = read_matrix(args.input)
    if args.rank > min(M.shape):
        raise UsageError(f"--rank {args.rank} exceeds min(matrix dimensions) {min(M.shape)}")

    strat = InitStrategy(kind=args.init, seed=args.seed)
    svd = thin_svd(M)
    fact, errors, eps = bench.run_start(M, args.rank, strat, args.maxiter, svd)

    best = svd.tail_error(args.rank)
    fm = frob(M)
    qual = quality_from_error(fact.frob_error, best, fm)
    if eps is not None:
        print(f"epsilon_star={eps:.6e}")
    print(f"frob_error={fact.frob_error:.17e}")
    print(f"quality={qual:.17e}")
    if args.out_u:
        write_matrix(args.out_u, fact.U)
    if args.out_v:
        write_matrix(args.out_v, fact.V)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("iteration,frob_error,quality\n")
            for t, e in enumerate(map(float, errors)):
                fh.write(f"{t},{e!r},{quality_from_error(e, best, fm)!r}\n")
    return 0


# ---------------------------------------------------------------------------
# bench


PRESETS = {
    "paper-desk": dict(m=50, n=100, ranks=(10, 40)),
    "paper-full": dict(m=100, n=200, ranks=(20, 80)),
}


def preset_configs(name: str) -> list[TrialConfig]:
    p = PRESETS[name]
    cfgs = []
    for r in p["ranks"]:
        cfgs.append(TrialConfig("nonnegative", p["m"], p["n"], r))
        cfgs.append(TrialConfig("semi_nonneg", p["m"], p["n"], r, inner_dim=r + 10))
        for delta in (5.0, 10.0, math.inf):
            cfgs.append(TrialConfig("noisy_semi", p["m"], p["n"], r, delta=delta))
    return cfgs


_INT_KEYS = {"m", "n", "r", "inner_dim", "max_iter", "restarts"}


def parse_suite_line(line: str, lineno: int) -> TrialConfig:
    fields: dict = {}
    problems = []
    for token in line.split():
        if "=" not in token:
            problems.append(f"token {token!r} is not key=value")
            continue
        key, _, value = token.partition("=")
        if key in _INT_KEYS:
            try:
                fields[key] = int(value)
            except ValueError:
                problems.append(f"{key}: expected integer, got {value!r}")
        elif key == "delta":
            try:
                fields[key] = math.inf if value == "inf" else float(value)
            except ValueError:
                problems.append(f"delta: expected number or 'inf', got {value!r}")
        elif key == "strategies":
            fields[key] = tuple(value.split(","))
        elif key == "checkpoints":
            try:
                fields[key] = tuple(int(v) for v in value.split(","))
            except ValueError:
                problems.append(f"checkpoints: expected integers, got {value!r}")
        elif key in ("generator", "name"):
            fields[key] = value
        else:
            problems.append(f"unknown key {key!r}")
    if fields.get("generator") == "semi_nonneg" and "inner_dim" not in fields:
        if isinstance(fields.get("r"), int):
            fields["inner_dim"] = fields["r"] + 10
    problems += config_problems({k: v for k, v in fields.items() if k != "name"})
    if not problems:
        return TrialConfig(**fields)
    raise UsageError(f"suite line {lineno}: " + "; ".join(problems))


def parse_suite_file(path) -> list[TrialConfig]:
    configs = []
    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                configs.append(parse_suite_line(line, lineno))
            except UsageError as exc:
                problems.append(str(exc))
    if problems:
        raise UsageError("\n".join(problems))
    if not configs:
        raise UsageError(f"{path}: no suite configs found")
    return configs


def _cmd_bench(args) -> int:
    if (args.suite is None) == (args.preset is None):
        raise UsageError("bench needs exactly one of --suite or --preset")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    configs = (
        parse_suite_file(args.suite) if args.suite else preset_configs(args.preset)
    )
    records = run_experiment(configs, args.trials, args.seed, jobs=args.jobs)
    csv_text = records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summarize(records), fh, indent=2, sort_keys=True)
            fh.write("\n")
    failures = sum(1 for r in records if r.error is not None)
    print(f"bench: {len(records)} records, {failures} failures", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# plumbing


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="seminmf", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version", version=f"seminmf {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    # a string default goes through type=int, and only when the subcommand
    # defines --seed: a bad value is a usage error (exit 2) there alone
    env_seed = os.environ.get("SEMINMF_SEED", "0")

    pr = sub.add_parser("rank", help="rank / semi-nonnegative rank report")
    pr.add_argument("input", help="matrix file (CSV or MatrixMarket)")
    pr.add_argument("--zero-tol", type=float, default=ZERO_TOL,
                    help="relative cutoff for treating columns as zero")
    pr.add_argument("--out-u", help="write the exact left factor here")
    pr.add_argument("--out-v", help="write the exact right factor here")
    pr.add_argument("--json", help="write a JSON report here")
    pr.set_defaults(func=_cmd_rank)

    pf = sub.add_parser("factorize", help="initialize + coordinate descent")
    pf.add_argument("input")
    pf.add_argument("--rank", "-r", type=int, required=True)
    pf.add_argument("--init", choices=STRATEGY_KINDS, default="a3")
    pf.add_argument("--maxiter", type=int, default=100)
    pf.add_argument("--seed", type=int, default=env_seed)
    pf.add_argument("--out-u")
    pf.add_argument("--out-v")
    pf.add_argument("--trace", help="write per-iteration errors as CSV")
    pf.set_defaults(func=_cmd_factorize)

    pb = sub.add_parser("bench", help="seeded benchmark suites")
    src = pb.add_mutually_exclusive_group()
    src.add_argument("--suite", help="suite config file (see module docstring)")
    src.add_argument("--preset", choices=sorted(PRESETS))
    pb.add_argument("--trials", type=int, default=50)
    pb.add_argument("--seed", type=int, default=env_seed)
    pb.add_argument("--out", help="CSV output path (stdout when omitted)")
    pb.add_argument("--summary", help="JSON summary output path")
    pb.add_argument("--jobs", type=int, default=1)
    pb.set_defaults(func=_cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
