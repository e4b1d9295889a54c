"""Outside-in tracing of seminmf's layers: spans and counts, no source edits.

Each wrapper replaces a function at the module attribute its caller
resolves at call time (``seminmf.solver.least_squares_left``,
``seminmf.halfspace.simplex_min``, ...).  Patching the defining module
alone would miss every caller that did ``from .linalg import f``, so the
table below names call sites, not definitions.  SVDs are caught at
``numpy.linalg.svd`` because ``semi_rank`` calls numpy directly while
every other SVD in the package goes through it too.

Spans live in memory as tuples ``(name, start, end, parent, problem)``
and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# Layers whose self time makes up a traced problem; share.<layer> is
# reported for each.
LAYERS = ("bench", "solver", "linalg", "initializers", "kmeans", "halfspace", "simplex", "factors")


def _kind_of_start(args, kwargs):
    strategy = args[2] if len(args) > 2 else kwargs["strategy"]
    return f"initializers.{strategy.kind}"


def _observe_simplex(tracer, args, kwargs, res):
    rows, cols = args[1].shape
    tracer.counts["simplex.pivots"] += res.iterations
    # one pass over the phase-1 tableau [A | I | b] per pivot
    tracer.counts["simplex.tableau_bytes"] += res.iterations * 8 * rows * (cols + rows + 1)


def _observe_bisection(tracer, args, kwargs, res):
    tracer.counts["halfspace.bisection.eps_zero"] += res.epsilon_star == 0.0


def _observe_bisection_lp(tracer, args, kwargs, res):
    tracer.counts["halfspace.lp.in_bisection"] += 1


def _observe_cd(tracer, args, kwargs, res):
    fact, trace = res
    tracer.counts["solver.iterations"] += trace.iterations_run
    finite = np.isfinite(fact.U).all() and np.isfinite(fact.V).all()
    if not finite or fact.V.min(initial=0.0) < 0.0:
        tracer.violations.append((tracer.problem, "cd_semi_nmf returned non-finite factors or V < 0"))


# (module, attribute, span name or namer, observer of the result)
WRAP_POINTS = (
    ("seminmf.bench", "gen_nonnegative", "bench.generate", None),
    ("seminmf.bench", "gen_semi_nonneg", "bench.generate", None),
    ("seminmf.bench", "gen_noisy_semi", "bench.generate", None),
    ("seminmf.bench", "initialize", _kind_of_start, None),
    ("seminmf.bench", "cd_semi_nmf", "solver.cd", _observe_cd),
    ("seminmf.bench", "least_squares_left", "linalg.lstsq", None),
    ("seminmf.initializers", "least_squares_left", "linalg.lstsq", None),
    ("seminmf.solver", "least_squares_left", "linalg.lstsq", None),
    ("numpy.linalg", "svd", "linalg.svd", None),
    ("seminmf.initializers", "kmeans", "kmeans", None),
    ("seminmf.initializers", "bisection_epsilon", "halfspace.bisection", _observe_bisection),
    ("seminmf.halfspace", "lp_feasibility", "halfspace.lp", _observe_bisection_lp),
    ("seminmf.factors", "lp_feasibility", "halfspace.lp", None),
    ("seminmf.halfspace", "simplex_min", "simplex", _observe_simplex),
    ("seminmf.factors", "exact_semi_nmf_same_rank", "factors.same_rank", None),
    ("seminmf.factors", "lift_rank_plus_one", "factors.lift", None),
)


class Tracer:
    """Span and count recorder; use as a context manager to install the wrappers.

    ``problem`` is the id stamped on every span opened while it is set;
    the driver sets it before each problem.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.violations: list = []
        self.problem = -1
        self._stack: list[int] = []
        self._saved: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.problem)

    def _wrapper(self, fn, name, observe):
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            res = self.call(span, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, res)
            return res

        return traced

    def __enter__(self):
        for mod_name, attr, name, observe in WRAP_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(fn, name, observe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child_time[i]
        return calls, incl, own

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, problem id."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, problem) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "problem": problem}
                ) + "\n")


def layer_metrics(tracer: Tracer, problems: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}; times and calls are per problem."""
    calls, incl, own = tracer.totals()
    c = tracer.counts
    per = 1.0 / problems

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    starts = calls["halfspace.bisection"]
    semi = calls["factors.semi_rank"]
    feasible = semi - calls["factors.lift"]
    out = {
        "solver.cd.s": (incl["solver.cd"] * per, "s/problem"),
        "solver.iterations": (c["solver.iterations"] * per, "count/problem"),
        "solver.s_per_iter": (ratio(incl["solver.cd"], c["solver.iterations"]), "s/iter"),
        "solver.sweep.self_s": (own["solver.cd"] * per, "s/problem"),
        "linalg.lstsq.calls": (calls["linalg.lstsq"] * per, "count/problem"),
        "linalg.lstsq.s": (incl["linalg.lstsq"] * per, "s/problem"),
        "linalg.svd.calls": (calls["linalg.svd"] * per, "count/problem"),
        "linalg.svd.s": (incl["linalg.svd"] * per, "s/problem"),
        "halfspace.bisection.calls": (starts * per, "count/problem"),
        "halfspace.bisection.s": (incl["halfspace.bisection"] * per, "s/problem"),
        "halfspace.lp.calls": (calls["halfspace.lp"] * per, "count/problem"),
        "halfspace.lp.s": (incl["halfspace.lp"] * per, "s/problem"),
        "halfspace.lp_calls_per_start": (ratio(c["halfspace.lp.in_bisection"], starts), "count/start"),
        "initializers.a3.s": (incl["initializers.a3"] * per, "s/problem"),
        "initializers.a3.eps_zero_share": (ratio(c["halfspace.bisection.eps_zero"], starts), "share"),
        "simplex.pivots": (c["simplex.pivots"] * per, "count/problem"),
        "simplex.s": (incl["simplex"] * per, "s/problem"),
        "simplex.s_per_pivot": (ratio(incl["simplex"], c["simplex.pivots"]), "s/pivot"),
        "simplex.bytes_per_pivot": (ratio(c["simplex.tableau_bytes"], c["simplex.pivots"]), "B/pivot"),
        "initializers.rd.s": (incl["initializers.rd"] * per, "s/problem"),
        "initializers.km.s": (incl["initializers.km"] * per, "s/problem"),
        "initializers.a2.s": (incl["initializers.a2"] * per, "s/problem"),
        "kmeans.calls": (calls["kmeans"] * per, "count/problem"),
        "kmeans.s": (incl["kmeans"] * per, "s/problem"),
        "factors.semi_rank.s": (incl["factors.semi_rank"] * per, "s/problem"),
        "factors.semi_rank.self_s": (own["factors.semi_rank"] * per, "s/problem"),
        "factors.same_rank.calls": (ratio(calls["factors.same_rank"], feasible), "count/call"),
        "factors.same_rank.s": (incl["factors.same_rank"] * per, "s/problem"),
        "factors.lift.s": (incl["factors.lift"] * per, "s/problem"),
        "factors.semi_rank.lift_share": (ratio(calls["factors.lift"], semi), "share"),
        "bench.generate.s": (incl["bench.generate"] * per, "s/problem"),
        "bench.run_trial.self_s": (own["bench.run_trial"] * per, "s/problem"),
        "traced.problem_s": (wall * per, "s/problem"),
    }
    layer_self = defaultdict(float)
    for name, t in own.items():
        layer_self[name.split(".")[0]] += t
    for layer in LAYERS:
        out[f"share.{layer}"] = (ratio(layer_self[layer], wall), "share")
    return out
