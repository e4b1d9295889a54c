"""Property tests of ``semi_rank``: invariance under power-of-two scaling,
column permutation, duplicated columns and appended zero columns, and an
exact factorization at every rank; of ``exact_semi_nmf_same_rank``: an
exact nonnegative correction for any verified witness; of the A3 start
under power-of-two scaling and column permutation; and of
``run_experiment``: a record is a function of the master seed and of its
own strategy, not of the strategies run beside it."""

import dataclasses
import math

import numpy as np
import pytest

from seminmf.bench import TrialConfig, gen_noisy_semi, run_experiment
from seminmf.factors import exact_semi_nmf_same_rank, semi_rank, sign_flip
from seminmf.halfspace import nnls_certificate, nonzero_columns
from seminmf.initializers import STRATEGY_KINDS, init_a3
from seminmf.linalg import frob, pow2_scale, random_gaussian, random_uniform, thin_svd

from test_factors import POLE_CASES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# a fixed example sequence: the tier-1 pass/fail set must not depend on the run
PROPERTY = hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
SEEDS = st.integers(0, 2**16)


@st.composite
def matrices(draw):
    """A seeded Gaussian, uniform or Gaussian x uniform (semi-nonnegative,
    possibly rank-deficient) matrix of at most 8 x 10."""
    kind = draw(st.sampled_from(["gaussian", "uniform", "product"]))
    m, n, seed = draw(st.integers(2, 8)), draw(st.integers(2, 10)), draw(SEEDS)
    if kind == "gaussian":
        return random_gaussian(m, n, seed)
    if kind == "uniform":
        return random_uniform(m, n, seed)
    k = draw(st.integers(1, min(m, n)))
    return random_gaussian(m, k, seed) @ random_uniform(k, n, seed + 1)


def verdict(rep):
    return rep.rank, rep.semi_rank, rep.certificate.feasible


@PROPERTY
@hypothesis.given(matrices(), st.sampled_from([-600, -3, 5, 600]))
def test_power_of_two_scaling(M, k):
    rep, rep_k = semi_rank(M), semi_rank(np.ldexp(M, k))
    assert verdict(rep_k) == verdict(rep)
    np.testing.assert_array_equal(rep_k.factorization.V, rep.factorization.V)
    np.testing.assert_array_equal(rep_k.factorization.U, np.ldexp(rep.factorization.U, k))


@PROPERTY
@hypothesis.given(matrices(), SEEDS)
def test_column_permutation(M, seed):
    perm = np.random.default_rng(seed).permutation(M.shape[1])
    assert verdict(semi_rank(M[:, perm])) == verdict(semi_rank(M))


@PROPERTY
@hypothesis.given(matrices(), st.data())
def test_duplicated_column(M, data):
    j = data.draw(st.integers(0, M.shape[1] - 1))
    assert verdict(semi_rank(np.hstack([M, M[:, [j]]]))) == verdict(semi_rank(M))


@PROPERTY
@hypothesis.given(matrices(), st.integers(1, 3))
def test_appended_zero_columns(M, zeros):
    n = M.shape[1]
    Mz = np.hstack([M, np.zeros((M.shape[0], zeros))])
    rep = semi_rank(Mz)
    assert verdict(rep) == verdict(semi_rank(M))
    np.testing.assert_array_equal(rep.factorization.V[:, n:], 0.0)
    assert rep.factorization.frob_error <= 1e-9 * np.linalg.norm(M)


@st.composite
def products_of_every_rank(draw):
    """G @ X with G Gaussian m x k and X Gaussian or uniform k x n, for
    every k from 0 (the zero matrix) to min(m, n), scaled by 2**j."""
    k = draw(st.integers(0, 8))
    m, n, seed = draw(st.integers(max(k, 1), 8)), draw(st.integers(max(k, 1), 10)), draw(SEEDS)
    j = draw(st.sampled_from([-600, -3, 0, 5, 600]))
    if k == 0:
        return np.zeros((m, n)), k
    right = draw(st.sampled_from([random_gaussian, random_uniform]))
    return np.ldexp(random_gaussian(m, k, seed) @ right(k, n, seed + 1), j), k


@PROPERTY
@hypothesis.given(products_of_every_rank())
def test_semi_rank_factorization_is_exact(Mk):
    # frob works on a power-of-two rescaling, so the bound holds at 2**+-600
    M, k = Mk
    rep = semi_rank(M)
    f = rep.factorization
    assert rep.rank == k and rep.semi_rank in (k, k + 1)
    assert f.U.shape == (M.shape[0], rep.semi_rank) and f.V.shape == (rep.semi_rank, M.shape[1])
    assert f.V.min(initial=0.0) >= 0.0
    assert frob(M - f.U @ f.V) <= 1e-9 * frob(M)


def pole_witness(rows, witness):
    """(A, B, y) of a POLE_CASES matrix: its sign-flipped rank-2 factor
    pair and an NNLS or centroid witness with |1 + y.alpha| < 1/2."""
    M = np.array(rows, dtype=float)
    A, B = sign_flip(*thin_svd(M / pow2_scale(M)).pair(2))
    C = B[:, nonzero_columns(B)]
    if witness == "nnls":
        return A, B, nnls_certificate(C).z
    return A, B, (C / np.linalg.norm(C, axis=0)).sum(axis=1)


@st.composite
def witnessed_products(draw):
    """A sign-flipped factor pair (A, B), some columns of B zero, and a
    witness y with B.T y > 0 on the other columns, at scales 1 to 1e-6."""
    m, r, n = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 10))
    seed = draw(SEEDS)
    rng = np.random.default_rng(seed)
    A, G, y = rng.standard_normal((m, r)), rng.standard_normal((r, n)), rng.standard_normal(r)
    # move each column of G along y until its inner product with y is x_j
    x = rng.random(n) * 10.0 ** -draw(st.integers(0, 6))
    B0 = G + np.outer(y, (x - y @ G) / (y @ y))
    B0[:, rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    A, B = sign_flip(A, B0)
    # a flipped row of B flips its entry of y too, so B.T y stays put
    y = np.where((B == B0).all(axis=1), y, -y)
    keep = nonzero_columns(B)
    hypothesis.assume(not keep.any() or (B.T @ y)[keep].min() > 0.0)
    return A, B, y


@PROPERTY
@hypothesis.example(pole_witness(POLE_CASES[0], "nnls"))
@hypothesis.example(pole_witness(POLE_CASES[1], "nnls"))
@hypothesis.example(pole_witness(POLE_CASES[1], "centroid"))
@hypothesis.given(witnessed_products())
def test_same_rank_correction_is_exact(ABy):
    A, B, y = ABy
    U, V, _ = exact_semi_nmf_same_rank(A, B, y)
    assert U.shape == A.shape and V.shape == B.shape
    assert V.min(initial=0.0) >= 0.0
    assert np.all(V[:, ~nonzero_columns(B)] == 0.0)
    # rounding in U, V and both products, relative to the factor sizes
    scale = frob(U) * frob(V) + frob(A) * frob(B)
    assert frob(U @ V - A @ B) <= 1e-12 * scale


# a few A3 starts at the desk shape, each a full bisection
A3_PROPERTY = hypothesis.settings(derandomize=True, deadline=None, max_examples=8)


@st.composite
def desk_matrices(draw):
    """A 50 x 100 noisy matrix of the paper-desk preset and its rank r."""
    r, delta = draw(st.sampled_from([10, 40])), draw(st.sampled_from([5.0, 10.0, math.inf]))
    return gen_noisy_semi(50, 100, r, delta, draw(SEEDS)), r


# LAPACK's SVD rescales M by a factor that is not a power of two when max|M|
# leaves [2**-458, 2**458], so k stays inside that range
@A3_PROPERTY
@hypothesis.given(desk_matrices(), st.sampled_from([-400, -3, 5, 400]))
def test_a3_start_power_of_two_scaling(Mr, k):
    M, r = Mr
    U0, V0, bis = init_a3(M, r)
    U0_k, V0_k, bis_k = init_a3(np.ldexp(M, k), r)
    assert bis_k.epsilon_star == bis.epsilon_star
    np.testing.assert_array_equal(V0_k, V0)
    np.testing.assert_array_equal(U0_k, np.ldexp(U0, k))


@A3_PROPERTY
@hypothesis.given(desk_matrices(), SEEDS)
def test_a3_bisection_column_permutation(Mr, seed):
    # the shifts differ in the last bits with the SVD's rounding; the verdicts do not
    M, r = Mr
    perm = np.random.default_rng(seed).permutation(M.shape[1])
    verdicts = [[ok for _, ok in init_a3(X, r)[2].trace] for X in (M, M[:, perm])]
    assert verdicts[1] == verdicts[0]


# a few dozen full trials (four starts, the A3 bisection, CD) per property
TRIAL_PROPERTY = hypothesis.settings(derandomize=True, deadline=None, max_examples=25)


@st.composite
def trial_configs(draw):
    """A small config of any generator kind, all four strategies, a short run."""
    gen = draw(st.sampled_from(["nonnegative", "semi_nonneg", "noisy_semi"]))
    m, n = draw(st.integers(3, 8)), draw(st.integers(3, 10))
    r = draw(st.integers(1, min(m, n)))
    extra = {}
    if gen == "semi_nonneg":
        extra["inner_dim"] = draw(st.integers(1, min(m, n)))
    if gen == "noisy_semi":
        extra["delta"] = draw(st.sampled_from([0.0, 0.5, 5.0, math.inf]))
    return TrialConfig(gen, m, n, r, max_iter=8, checkpoints=(4, 8), **extra)


def same_outcome(a, b):
    """Equal records up to the seed column and the wall time."""
    assert (a.config, a.strategy, a.trial, a.error) == (b.config, b.strategy, b.trial, b.error)
    assert a.epsilon_star == b.epsilon_star
    assert np.array_equal(a.error_trace, b.error_trace)
    assert np.array_equal(a.quality_trace, b.quality_trace, equal_nan=True)
    assert np.array_equal(a.final_quality, b.final_quality, equal_nan=True)
    assert a.checkpoint_quality.keys() == b.checkpoint_quality.keys()
    for c in a.checkpoint_quality:
        assert np.array_equal(a.checkpoint_quality[c], b.checkpoint_quality[c], equal_nan=True)


@TRIAL_PROPERTY
@hypothesis.given(trial_configs(), SEEDS)
def test_a_start_does_not_depend_on_its_stack_mates(cfg, seed):
    # a2 and a3 ignore their strategy seed, so only the seed column may
    # differ between a trial of that strategy alone and one of all four
    assert cfg.strategies == STRATEGY_KINDS
    together = {rec.strategy: rec for rec in run_experiment([cfg], 1, seed)}
    for kind in ("a2", "a3"):
        (alone,) = run_experiment([dataclasses.replace(cfg, strategies=(kind,))], 1, seed)
        same_outcome(alone, together[kind])


@TRIAL_PROPERTY
@hypothesis.given(trial_configs(), SEEDS)
def test_same_master_seed_same_records(cfg, seed):
    a, b = run_experiment([cfg], 2, seed), run_experiment([cfg], 2, seed)
    assert len(a) == len(b) == 2 * len(STRATEGY_KINDS)
    for ra, rb in zip(a, b):
        assert ra.seed == rb.seed
        same_outcome(ra, rb)
