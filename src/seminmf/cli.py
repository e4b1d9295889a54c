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

Exit codes: 0 success, 2 usage or input error (OSError, ValueError),
3 numerical failure (NumericalError).

Suite files are flat text: one config per line of ``key=value`` tokens,
``#`` comments allowed.  Keys: generator (nonnegative | semi_nonneg |
noisy_semi), m, n, r, inner_dim (semi_nonneg only; TrialConfig's default),
delta (noisy_semi only; >= 0, ``inf`` allowed), strategies (comma list of
rd,km,a2,a3), max_iter, checkpoints (comma list), name.

This module parses tokens and maps exceptions to exit codes.  The rules of
a run live in ``bench``: ``TrialConfig`` fills the defaults and validates a
config (``config_problems`` lists its problems), and ``run_experiment``
checks ``trials`` and ``jobs``.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .initializers import STRATEGY_KINDS, InitStrategy
from .linalg import frob, thin_svd
from .matio import read_matrix, write_matrix

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


# ---------------------------------------------------------------------------
# rank


def _cmd_rank(args) -> int:
    M = read_matrix(args.input)
    report = semi_rank(M)
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
            "passes": cert.passes,
            "support": None if cert.support is None else cert.support.tolist(),
            "weights": None if cert.weights is None else cert.weights.tolist(),
            "distance": cert.distance,
            "frob_error": report.factorization.frob_error,
            "clamped": report.factorization.clamped,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# factorize


def _cmd_factorize(args) -> int:
    if args.maxiter < 1:
        raise ValueError("max_iter must be >= 1")
    M = read_matrix(args.input)
    strat = InitStrategy(kind=args.init, seed=args.seed)
    svd = thin_svd(M)
    (res,) = bench.run_starts(M, args.rank, [strat], args.maxiter, svd)
    if isinstance(res, Exception):
        raise res
    fact, errors, eps, _ = res

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
        cfgs.append(TrialConfig("semi_nonneg", p["m"], p["n"], r))
        for delta in (5.0, 10.0, math.inf):
            cfgs.append(TrialConfig("noisy_semi", p["m"], p["n"], r, delta=delta))
    return cfgs


# key -> (parser, what a value that fails to parse was expected to be)
_SUITE_KEYS = {
    "generator": (str, None),
    "m": (int, "integer"),
    "n": (int, "integer"),
    "r": (int, "integer"),
    "inner_dim": (int, "integer"),
    "delta": (float, "number or 'inf'"),
    "strategies": (lambda value: tuple(value.split(",")), None),
    "max_iter": (int, "integer"),
    "checkpoints": (lambda value: tuple(map(int, value.split(","))), "integers"),
    "name": (str, None),
}


def parse_suite_line(line: str, lineno: int) -> TrialConfig:
    fields: dict = {}
    problems = []
    unparsed = set()  # fields whose token error is already listed
    for token in line.split():
        if "=" not in token:
            problems.append(f"token {token!r} is not key=value")
            continue
        key, _, value = token.partition("=")
        if key not in _SUITE_KEYS:
            problems.append(f"unknown key {key!r}")
            continue
        parse, expected = _SUITE_KEYS[key]
        try:
            fields[key] = parse(value)
        except ValueError:
            problems.append(f"{key}: expected {expected}, got {value!r}")
            unparsed.add(key)
    schema = config_problems(fields)
    problems += [msg for msg in schema if msg.split(":", 1)[0] not in unparsed]
    if not problems:
        return TrialConfig(**fields)
    raise ValueError(f"suite line {lineno}: " + "; ".join(problems))


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
            except ValueError as exc:
                problems.append(str(exc))
    if problems:
        raise ValueError("\n".join(problems))
    if not configs:
        raise ValueError(f"{path}: no suite configs found")
    return configs


def _cmd_bench(args) -> int:
    configs = (
        parse_suite_file(args.suite) if args.suite is not None else preset_configs(args.preset)
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="seminmf", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version", version=f"seminmf {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("rank", help="rank / semi-nonnegative rank report")
    pr.add_argument("input", help="matrix file (CSV or MatrixMarket)")
    pr.add_argument("--out-u", help="write the exact left factor here")
    pr.add_argument("--out-v", help="write the exact right factor here")
    pr.add_argument("--json", help="write a JSON report here")
    pr.set_defaults(func=_cmd_rank)

    pf = sub.add_parser("factorize", help="initialize + coordinate descent")
    pf.add_argument("input")
    pf.add_argument("--rank", "-r", type=int, required=True)
    pf.add_argument("--init", choices=STRATEGY_KINDS, default="a3")
    pf.add_argument("--maxiter", type=int, default=100)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--out-u")
    pf.add_argument("--out-v")
    pf.add_argument("--trace", help="write per-iteration errors as CSV")
    pf.set_defaults(func=_cmd_factorize)

    pb = sub.add_parser("bench", help="seeded benchmark suites")
    src = pb.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", help="suite config file (see module docstring)")
    src.add_argument("--preset", choices=sorted(PRESETS))
    pb.add_argument("--trials", type=int, default=50)
    pb.add_argument("--seed", type=int, default=0)
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
