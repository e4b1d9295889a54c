"""Property tests of ``semi_rank``: invariance under power-of-two scaling,
column permutation, duplicated columns and appended zero columns."""

import numpy as np
import pytest

from seminmf.factors import semi_rank
from seminmf.linalg import random_gaussian, random_uniform

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
