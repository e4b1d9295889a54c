"""Closed-loop, single-process benchmark driver for seminmf.

One client, one problem at a time: the driver makes a seeded input,
calls the public API (``run_experiment`` or ``semi_rank``), times the
call from outside, checks the output, and only then sends the next
problem.  BLAS/OpenMP are pinned to one thread so that, on a small
shared machine, the figures measure the program rather than the
scheduler.

    python3 perfbench/run.py --workload desk-suite --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
problems once with the outside-in tracer installed, once more without
it, checks that both runs' outputs are bitwise identical, and prints
the per-layer metrics.  The last line of standard output is the JSON
result; a copy with the environment, and the spans of a traced run,
go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PROBLEMS = 40  # per measured run; p75 then has >= 10 samples beyond it
TAIL_PERCENTILE = 75
TRACE_MIN_PROBLEMS = 10
SETUP_REPS = 3  # setup_s is the import time plus the median of these


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> float:
    """Pin BLAS to one thread and import seminmf from this checkout's src/.

    Returns the import time in seconds.  Exits with an error when the
    checkout has no seminmf sources: an installed copy elsewhere would
    measure the wrong program.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "seminmf" / "__init__.py").is_file():
        sys.exit(f"error: no seminmf package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import seminmf

    dt = time.perf_counter() - t0
    if Path(seminmf.__file__).resolve().parent != src / "seminmf":
        sys.exit(f"error: imported seminmf from {seminmf.__file__}, not {src}")
    return dt


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _timed(solve, inp):
    """(output, seconds, error message); a raising call is a failed problem."""
    t0 = time.perf_counter()
    try:
        out, err = solve(inp), None
    except Exception as exc:  # counted against the problem, the run goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, err


def _traced(tracer, wl, inp):
    with tracer:
        return _timed(functools.partial(tracer.call, wl.root, wl.solve), inp)


def run_problems(wl, seed, inputs, seconds, min_problems, tracer=None):
    """Closed loop over problems 0, 1, ... in whole rounds.

    Stops once ``seconds`` have passed and at least ``min_problems`` ran.
    With a tracer, each problem is also solved with the tracer installed,
    alternating which of the two calls goes first, and the traced output
    must equal the untraced one bit for bit.  Returns per-problem
    latencies (untraced and traced), final qualities of the first
    ``min_problems`` problems, and failure messages by problem.
    """
    lat, traced_lat, quals, failures = [], [], [], {}
    start = time.perf_counter()
    i = 0
    while i < min_problems or time.perf_counter() - start < seconds:
        for _ in range(wl.round_size):
            inp = inputs[i] if i < len(inputs) else wl.make(seed, 0, i)
            if tracer is None:
                out, dt, err = _timed(wl.solve, inp)
            else:
                tracer.problem = i
                if i % 2:  # alternate the order so warm caches favour neither call
                    out, dt, err = _timed(wl.solve, inp)
                    traced_out, traced_dt, _ = _traced(tracer, wl, inp)
                else:
                    traced_out, traced_dt, _ = _traced(tracer, wl, inp)
                    out, dt, err = _timed(wl.solve, inp)
                traced_lat.append(traced_dt)
            lat.append(dt)
            errs = [err] if err else wl.check(inp, out)
            if tracer is not None and (
                out is None or traced_out is None or wl.digest(out) != wl.digest(traced_out)
            ):
                errs.append("traced output differs from the untraced output")
            if out is not None and i < min_problems:
                quals.extend(wl.qualities(out))
            if errs:
                failures[i] = errs
            i += 1
    return {"lat": lat, "traced_lat": traced_lat, "quals": quals, "failures": failures}


def setup(wl, seed):
    """Generate the first MIN_PROBLEMS inputs and solve one warm-up problem.

    A warm-up that raises is not reported here: the same fault fails the
    measured problems, where it is counted.
    """
    inputs = [wl.make(seed, 0, i) for i in range(MIN_PROBLEMS)]
    _timed(wl.solve, wl.make(seed, 1, wl.round_size - 1))
    return inputs


def quantile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import workloads
    from tracer import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment()

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = setup(wl, args.seed)
        setup_times.append(time.perf_counter() - t0)

    notes = {}
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        run = run_problems(wl, args.seed, inputs, args.seconds, MIN_PROBLEMS)
        lat = run["lat"]
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "problems_per_s": (len(lat) / sum(lat), "1/s"),
            "problem_s.p50": (statistics.median(lat), "s"),
            "problem_s.tail": (quantile(lat, TAIL_PERCENTILE), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes["tail"] = (f"p{TAIL_PERCENTILE} of {len(lat)} problems, "
                         f"{sum(x > metrics['problem_s.tail'][0] for x in lat)} beyond it")
        if run["quals"]:
            notes["quality.p50"] = quantile(run["quals"], 50)
            notes["quality.p90"] = quantile(run["quals"], 90)
            notes["quality.runs"] = len(run["quals"])
    else:
        tracer = Tracer()
        run = run_problems(wl, args.seed, inputs, args.seconds, TRACE_MIN_PROBLEMS, tracer)
        for problem, msg in tracer.violations:
            run["failures"].setdefault(problem, []).append(msg)
        n = len(run["lat"])
        overhead = sum(run["traced_lat"]) - sum(run["lat"])
        metrics = layer_metrics(tracer, n)
        metrics["trace.overhead_s"] = (overhead / n, "s/problem")
        metrics["trace.overhead_share"] = (overhead / sum(run["lat"]), "share")
        tracer.write(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl")
        notes["spans"] = len(tracer.spans)

    attempted = len(run["lat"])
    failed = len(run["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for problem, errs in sorted(run["failures"].items())[:10]:
        print(f"FAILED problem {problem}: {'; '.join(errs)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print("notes: " + json.dumps(notes))
    print("env: " + json.dumps(env))
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "notes": notes, **result}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
