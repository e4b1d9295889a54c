"""Fixtures shared across test modules."""

import numpy as np
import pytest

import seminmf.halfspace


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Count np.linalg.lstsq calls: least_squares_left's pseudoinverse fallback."""
    return _count_calls(monkeypatch, "lstsq")


@pytest.fixture
def svd_calls(monkeypatch):
    """Count np.linalg.svd calls: one thin SVD per problem."""
    return _count_calls(monkeypatch, "svd")


@pytest.fixture
def simplex_pivots(monkeypatch):
    """Pivot counts of every simplex solve the half-space layer makes."""
    counts = []
    solve = seminmf.halfspace.simplex_min

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        counts.append(res.iterations)
        return res

    monkeypatch.setattr(seminmf.halfspace, "simplex_min", counted)
    return counts
