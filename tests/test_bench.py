"""Benchmark harness tests: quality, generators, runner, oracles, ill-posed fixture."""

import math

import numpy as np
import pytest

import seminmf.bench
from seminmf.bench import (
    TrialConfig,
    _quantiles,
    config_problems,
    gen_noisy_semi,
    gen_nonnegative,
    gen_semi_nonneg,
    json_safe,
    quality,
    quality_from_error,
    run_experiment,
    run_starts,
    summarize,
)
from seminmf.factors import semi_rank
from seminmf.halfspace import lp_feasibility
from seminmf.linalg import best_rank_error, random_gaussian, random_uniform, thin_svd
from seminmf.solver import cd_semi_nmf

from oracles import oracle_halfplane_2d, oracle_rank1_grid


class TestQuality:
    def test_best_rank_r_gives_zero(self):
        M = random_gaussian(8, 10, seed=0)
        assert quality(M, *thin_svd(M).pair(3), 3) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_power_of_two_scale(self, k):
        M = random_gaussian(20, 30, seed=0)
        fact, _ = cd_semi_nmf(M, random_uniform(4, 30, seed=1), 10)
        base = quality(M, fact.U, fact.V, 4)
        assert base > 1.0
        scaled = quality(np.ldexp(M, k), np.ldexp(fact.U, k), fact.V, 4)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_double_error_gives_hundred(self):
        assert quality_from_error(2.0, 1.0, 10.0) == pytest.approx(100.0)

    def test_nonnegative_for_feasible_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            M = rng.standard_normal((6, 9))
            U = rng.standard_normal((6, 3))
            V = rng.random((3, 9))
            assert quality(M, U, V, 3) >= -1e-6

    def test_sentinel_zero_residual(self):
        M = random_gaussian(5, 3, seed=1)  # rank 3 at r = 3: best error ~ 0
        assert quality(M, *thin_svd(M).pair(3), 3) == 0.0

    def test_sentinel_infinite(self):
        M = random_gaussian(5, 3, seed=2)
        U = np.zeros((5, 3))
        V = np.zeros((3, 3))
        assert quality(M, U, V, 3) == math.inf


class TestGenerators:
    def test_nonnegative_entries(self):
        M = gen_nonnegative(6, 8, seed=3)
        assert M.min() >= 0.0 and M.max() < 1.0

    def test_semi_nonneg_is_semi_nonnegative(self):
        # witness z = (U+)' e certifies the product; the LP must agree
        for seed in range(100):
            M = gen_semi_nonneg(8, 12, 3, seed=seed)
            assert lp_feasibility(M).feasible

    def test_noisy_delta_zero_bit_exact(self):
        a = gen_noisy_semi(7, 9, 3, 0.0, seed=4)
        b = gen_semi_nonneg(7, 9, 3, seed=4)
        assert np.array_equal(a, b)

    def test_noisy_delta_inf_is_gaussian(self):
        a = gen_noisy_semi(7, 9, 3, math.inf, seed=5)
        b = random_gaussian(7, 9, seed=5)
        assert np.array_equal(a, b)

    def test_noisy_adds_noise(self):
        clean = gen_semi_nonneg(7, 9, 3, seed=6)
        noisy = gen_noisy_semi(7, 9, 3, 0.5, seed=6)
        assert not np.array_equal(clean, noisy)

    def test_deterministic(self):
        assert np.array_equal(gen_noisy_semi(5, 6, 2, 1.0, seed=7), gen_noisy_semi(5, 6, 2, 1.0, seed=7))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: gen_semi_nonneg(5, 6, 6, seed=0), "k=6 out of range for 5x6"),
            (lambda: gen_noisy_semi(5, 6, 2, -1.0, seed=0), "delta must be >= 0"),
        ],
        ids=["k", "delta"],
    )
    def test_rejects_bad_arguments(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestTrialConfig:
    def test_validates_generator(self):
        with pytest.raises(ValueError, match="generator"):
            TrialConfig("nope", 5, 5, 2)

    def test_validates_inner_dim(self):
        with pytest.raises(ValueError, match="inner_dim"):
            TrialConfig("semi_nonneg", 5, 5, 2)

    def test_semi_nonneg_inner_dim_defaults_to_r_plus_10(self):
        cfg = TrialConfig("semi_nonneg", 50, 100, 10)
        assert cfg.inner_dim == 20
        assert cfg == TrialConfig("semi_nonneg", 50, 100, 10, inner_dim=20)
        assert cfg.name == "semi_nonneg-m50-n100-r10-k20"
        assert config_problems({"generator": "semi_nonneg", "m": 50, "n": 100, "r": 10}) == []
        # the default is validated like an explicit value, and listed once
        for fields in ({}, {"inner_dim": None}):
            msg = "inner_dim: 55 invalid for semi_nonneg"
            assert config_problems({"generator": "semi_nonneg", "m": 50, "n": 100, "r": 45,
                                    **fields}) == [msg]
            with pytest.raises(ValueError, match=f"^{msg}$"):
                TrialConfig("semi_nonneg", 50, 100, 45, **fields)

    def test_validates_delta(self):
        for delta in (None, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match="delta"):
                TrialConfig("noisy_semi", 5, 5, 2, delta=delta)

    def test_rejects_fields_the_generator_ignores(self):
        with pytest.raises(ValueError, match="delta: nonnegative ignores it"):
            TrialConfig("nonnegative", 50, 100, 10, delta=5.0)
        with pytest.raises(ValueError, match="inner_dim: noisy_semi ignores it"):
            TrialConfig("noisy_semi", 50, 100, 10, delta=5.0, inner_dim=7)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"r": 6}, "r: 6 out of range for 5x5"),
            ({"max_iter": 0}, "max_iter: must be >= 1"),
            ({"max_iter": 10, "checkpoints": (5, 11)}, r"checkpoints: must lie in \[0, 10\]"),
            # malformed values get one message each, and the validator raises nothing else
            (
                {"max_iter": 5, "checkpoints": (2.0,)},
                r"^checkpoints: expected a sequence of integers, got \(2\.0,\)$",
            ),
            (
                {"checkpoints": ("a",)},
                r"^checkpoints: expected a sequence of integers, got \('a',\)$",
            ),
            ({"strategies": None}, "^strategies: expected a sequence of names, got None$"),
            ({"r": True}, "^r: missing or not an integer$"),
            ({"max_iter": 5.0}, r"^max_iter: expected an integer, got 5\.0$"),
        ],
        ids=[
            "r",
            "max_iter",
            "checkpoints",
            "checkpoint-float",
            "checkpoint-str",
            "strategies-none",
            "r-bool",
            "max_iter-float",
        ],
    )
    def test_rejects_bad_field(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TrialConfig(**{"generator": "nonnegative", "m": 5, "n": 5, "r": 2, **fields})

    def test_default_name(self):
        cfg = TrialConfig("noisy_semi", 5, 6, 2, delta=math.inf)
        assert cfg.name == "noisy_semi-m5-n6-r2-dinf"


class TestRunExperiment:
    CFG = TrialConfig(
        "semi_nonneg", 8, 12, 2, inner_dim=3,
        strategies=("rd", "a3"), max_iter=12, checkpoints=(5, 12),
    )

    def test_deterministic_records(self):
        a = run_experiment([self.CFG], trials=2, master_seed=1)
        b = run_experiment([self.CFG], trials=2, master_seed=1)
        assert len(a) == len(b) == 4
        for ra, rb in zip(a, b):
            assert ra.strategy == rb.strategy and ra.seed == rb.seed
            assert np.array_equal(ra.quality_trace, rb.quality_trace)

    def test_jobs_do_not_change_results(self):
        a = run_experiment([self.CFG], trials=3, master_seed=2, jobs=1)
        b = run_experiment([self.CFG], trials=3, master_seed=2, jobs=4)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.quality_trace, rb.quality_trace)

    @pytest.mark.parametrize(
        "jobs, message",
        [
            (0, "^jobs must be >= 1$"),
            (-3, "^jobs must be >= 1$"),
            (1.5, r"^jobs must be an integer, got 1\.5$"),
            (True, "^jobs must be an integer, got True$"),
        ],
        ids=["0", "-3", "1.5", "True"],
    )
    def test_rejects_jobs_below_one_before_any_trial(self, monkeypatch, jobs, message):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(seminmf.bench, "_run_trial", no_trial)
        with pytest.raises(ValueError, match=message):
            run_experiment([self.CFG], trials=1, master_seed=1, jobs=jobs)

    def test_trace_has_init_entry(self):
        recs = run_experiment([self.CFG], trials=1, master_seed=3)
        for rec in recs:
            assert rec.quality_trace.shape == (13,)
            assert rec.final_quality == rec.quality_trace[-1]

    def test_failure_recorded_not_fatal(self):
        cfg = TrialConfig(
            "nonnegative", 6, 8, 1, strategies=("a2", "a3"), max_iter=5, checkpoints=(5,)
        )
        recs = run_experiment([cfg], trials=1, master_seed=4)
        by_strategy = {r.strategy: r for r in recs}
        assert by_strategy["a2"].error is not None  # a2 cannot run at r = 1
        assert by_strategy["a3"].error is None

    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda M: run_starts(M, 2, [], 0, thin_svd(M)), "max_iter must be >= 1"),
            (lambda M: run_experiment([TestRunExperiment.CFG], 0, 1), "trials must be >= 1"),
            (
                lambda M: run_experiment([TestRunExperiment.CFG], 1.5, 1),
                r"^trials must be an integer, got 1\.5$",
            ),
        ],
        ids=["max_iter", "trials", "trials-float"],
    )
    def test_rejects_bad_counts(self, run, message):
        with pytest.raises(ValueError, match=message):
            run(random_gaussian(4, 5, seed=0))

    def test_summary_of_failed_runs(self):
        # a strategy whose every run failed has no quantiles
        cfg = TrialConfig(
            "nonnegative", 6, 8, 1, strategies=("a2", "a3"), max_iter=5, checkpoints=(5,)
        )
        summary = summarize(run_experiment([cfg], trials=2, master_seed=4))[cfg.name]
        assert summary["a2"] == {"final": {"count": 0}, "iter_5": {"count": 0}, "failures": 2}
        assert summary["a3"]["final"]["count"] == 2

    @pytest.mark.parametrize(
        "x, want",
        [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (1.5, 1.5), (None, None)],
    )
    def test_json_safe(self, x, want):
        assert json_safe(x) == want

    @pytest.mark.parametrize(
        "values, want",
        [
            ([0.0, 0.0, math.inf, math.inf], [0.0, 0.0, "inf", "inf", "inf"]),
            ([1.0, 2.0, math.inf], [1.0, 1.5, 2.0, "inf", "inf"]),
            ([math.inf, math.inf], ["inf"] * 5),
        ],
    )
    def test_quantiles_of_infinite_qualities(self, values, want):
        # a level whose interpolation weighs +inf is inf, any other the lower value
        q = _quantiles(values)
        assert q["count"] == len(values)
        assert [q[k] for k in ("min", "q25", "median", "q75", "max")] == want

    def test_seeds_pinned(self):
        # SeedSequence gives these on every platform: a success row carries
        # its strategy seed (master, config, trial, 1 + strategy, 0), a
        # failure row the matrix seed (master, config, trial, 0)
        cfg = TrialConfig(
            "nonnegative", 6, 8, 1, strategies=("rd", "a2"), max_iter=3, checkpoints=(3,)
        )
        rd, a2 = run_experiment([cfg], trials=1, master_seed=4)
        assert (rd.strategy, rd.error, rd.seed) == ("rd", None, 14223588719410274469)
        assert a2.strategy == "a2" and a2.error is not None
        assert a2.seed == 752119716516089479

    def test_one_svd_per_trial(self, svd_calls):
        # the quality baseline and the a2 and a3 starts share one SVD of M
        cfg = TrialConfig("noisy_semi", 10, 14, 3, delta=5.0, max_iter=5, checkpoints=(5,))
        recs = run_experiment([cfg], trials=1, master_seed=6)
        assert [r.strategy for r in recs if r.error is None] == ["rd", "km", "a2", "a3"]
        assert len(svd_calls) == 1

    def test_a3_records_epsilon(self):
        recs = run_experiment([self.CFG], trials=1, master_seed=5)
        eps = [r.epsilon_star for r in recs if r.strategy == "a3"]
        assert eps and all(e is not None for e in eps)

    def test_quality_nonnegative_across_records(self):
        recs = run_experiment([self.CFG], trials=2, master_seed=6)
        for rec in recs:
            assert np.all(rec.quality_trace >= -1e-6)

    def test_a2_initial_quality_matches_tail_ratio(self):
        # the a2 start attains the rank-(r-1) error, so its quality at
        # iteration 0 is 100*(tail(r-1)/tail(r) - 1); oracle = SVD tails
        cfg = TrialConfig(
            "noisy_semi", 12, 18, 3, delta=2.0, strategies=("a2",),
            max_iter=6, checkpoints=(6,),
        )
        recs = run_experiment([cfg], trials=4, master_seed=9)
        # regenerate the matrices the runner saw from its trial-seed scheme
        from seminmf.bench import _generate, _trial_seed

        for ti, rec in enumerate(recs):
            M = _generate(cfg, _trial_seed(9, 0, ti, 0))
            bound = 100.0 * (best_rank_error(M, 2) / best_rank_error(M, 3) - 1.0)
            assert rec.quality_trace[0] <= bound + 1e-6
            assert rec.quality_trace[0] == pytest.approx(bound, rel=1e-6)


class TestOracleRank1Grid:
    def test_diagonal(self):
        best, bound = oracle_rank1_grid(np.diag([2.0, 1.0]), grid_density=60)
        assert best == pytest.approx(4.0, abs=1e-9)

    def test_known_gram_optimum(self):
        # M with M'M = [[2, 1], [1, 2]]: optimum 3 at (1,1)/sqrt(2)
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        M = np.linalg.cholesky(G).T
        np.testing.assert_allclose(M.T @ M, G, atol=1e-12)
        best, bound = oracle_rank1_grid(M, grid_density=80)
        assert best <= 3.0 + 1e-12
        assert best + bound >= 3.0

    def test_sandwiches_rank_one_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            M = rng.standard_normal((5, 3))
            best, bound = oracle_rank1_grid(M, grid_density=40)
            fact, _ = cd_semi_nmf(M, rng.random((1, 3)) + 0.01, max_iter=300)
            err2 = fact.frob_error**2
            assert err2 >= np.linalg.norm(M) ** 2 - best - bound - 1e-9

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="n <= 4"):
            oracle_rank1_grid(np.ones((2, 5)))


class TestOracleHalfplane:
    def test_quarter_plane_angles(self):
        ang = np.deg2rad([10.0, 40.0, 80.0])
        M = np.vstack([np.cos(ang), np.sin(ang)])
        assert oracle_halfplane_2d(M)

    def test_antipodal(self):
        M = np.array([[1.0, -1.0], [0.0, 0.0]])
        assert not oracle_halfplane_2d(M)

    def test_agrees_with_lp_on_random_instances(self):
        for seed in range(1, 201):
            M = random_gaussian(2, 6, seed=seed)
            assert oracle_halfplane_2d(M) == lp_feasibility(M).feasible


class TestIllPosedFixture:
    # a 2x3 matrix with semi-nonnegative rank 3 whose width-2 problem
    # has errors arbitrarily close to zero: the infimum is not attained
    M = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])

    @staticmethod
    def factors(d):
        U = np.array([[1.0, -1.0], [d, d]])
        V = np.array([[1.0, 0.0, 1.0 / (2 * d)], [0.0, 1.0, 1.0 / (2 * d)]])
        return U, V

    def test_semi_rank_is_three(self):
        rep = semi_rank(self.M)
        assert (rep.rank, rep.semi_rank) == (2, 3)

    def test_errors_shrink_to_zero(self):
        errs = []
        for k in range(1, 7):
            U, V = self.factors(10.0**-k)
            assert V.min() >= 0.0
            errs.append(np.linalg.norm(self.M - U @ V))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] <= 2e-6
        np.testing.assert_allclose(errs, [math.sqrt(2.0) * 10.0**-k for k in range(1, 7)])
