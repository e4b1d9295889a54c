"""Self-test of the benchmark's outside-in tracer.

The wrappers must reproduce exactly the A3 counts recorded in ROADMAP.md
(LP calls and simplex pivots per start on fixed seeded inputs), and self
times must be a span's duration minus its children's.
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import seminmf  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize(
    "m, n, r, delta, lp_calls, pivots",
    [(50, 100, 10, 5.0, 11, 1441), (100, 200, 80, math.inf, 11, 4711)],
)
def test_a3_start_counts(m, n, r, delta, lp_calls, pivots):
    M = seminmf.gen_noisy_semi(m, n, r, delta, seed=1)
    with Tracer() as tracer:
        _, _, bis = seminmf.init_a3(M, r)
    calls, _, _ = tracer.totals()
    assert calls["halfspace.bisection"] == 1
    assert calls["halfspace.lp"] == tracer.counts["halfspace.lp.in_bisection"] == lp_calls
    assert bis.lp_calls == lp_calls
    assert calls["simplex"] == lp_calls
    assert tracer.counts["simplex.pivots"] == pivots


def test_wrappers_are_removed_on_exit():
    before = (seminmf.halfspace.simplex_min, seminmf.solver.least_squares_left)
    with Tracer():
        assert seminmf.halfspace.simplex_min is not before[0]
    assert (seminmf.halfspace.simplex_min, seminmf.solver.least_squares_left) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.call("outer", lambda: [tracer.call("inner", sum, range(10**5)) for _ in range(3)])
    calls, incl, own = tracer.totals()
    assert calls == {"outer": 1, "inner": 3}
    assert own["inner"] == pytest.approx(incl["inner"])
    assert own["outer"] + incl["inner"] == pytest.approx(incl["outer"])
    assert 0.0 < own["outer"] < incl["outer"]
