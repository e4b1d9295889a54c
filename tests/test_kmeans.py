"""k-means tests, including the exhaustive small-instance oracle."""

import itertools

import numpy as np
import pytest

from seminmf.kmeans import _lloyd, kmeans


def brute_force_two_partition(X):
    """Best 2-partition of the columns of X by within-cluster sum of squares."""
    n = X.shape[1]
    best, best_mask = np.inf, None
    for bits in itertools.product([0, 1], repeat=n - 1):
        mask = np.array((0,) + bits)
        cost = 0.0
        for c in (0, 1):
            pts = X[:, mask == c]
            if pts.shape[1]:
                mu = pts.mean(axis=1, keepdims=True)
                cost += float(np.sum((pts - mu) ** 2))
        if cost < best:
            best, best_mask = cost, mask
    return best, best_mask


def own_centroid_objective(X, assign):
    """Within-cluster sum of squares of a partition around its own centroids."""
    cost = 0.0
    for c in np.unique(assign):
        pts = X[:, assign == c]
        cost += float(np.sum((pts - pts.mean(axis=1, keepdims=True)) ** 2))
    return cost


class TestKmeans:
    def test_separated_clouds_match_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        left = rng.normal(0.0, 0.1, size=(2, 5))
        right = rng.normal(8.0, 0.1, size=(2, 5))
        X = np.hstack([left, right])
        assign = kmeans(X, 2, seed=1)
        _, oracle_mask = brute_force_two_partition(X)
        same = np.array_equal(assign, oracle_mask) or np.array_equal(assign, 1 - oracle_mask)
        assert same

    def test_k_equals_n(self):
        X = np.random.default_rng(1).standard_normal((3, 6))
        assign = kmeans(X, 6, seed=2)
        assert sorted(assign) == list(range(6))
        assert own_centroid_objective(X, assign) == 0.0

    def test_identical_columns(self):
        X = np.ones((4, 5))
        assign = kmeans(X, 2, seed=3)
        assert assign.shape == (5,)
        assert set(assign) <= {0, 1}

    def test_objective_monotone(self):
        # the partition after t Lloyd iterations, scored around its own
        # centroids, never gets worse as t grows
        X = np.random.default_rng(4).standard_normal((5, 40))
        trace = [own_centroid_objective(X, _lloyd(X, 4, 5, t)) for t in range(1, 51)]
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-10 * (1.0 + trace[0]))

    def test_deterministic(self):
        X = np.random.default_rng(6).standard_normal((4, 25))
        a = kmeans(X, 3, seed=7)
        b = kmeans(X, 3, seed=7)
        assert np.array_equal(a, b)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            kmeans(np.ones((2, 3)), 4, seed=0)

    def test_every_column_assigned(self):
        X = np.random.default_rng(8).standard_normal((3, 17))
        assign = kmeans(X, 5, seed=9)
        assert assign.shape == (17,)
        assert np.all((assign >= 0) & (assign < 5))
