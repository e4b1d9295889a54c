"""Fixtures shared across test modules."""

import numpy as np
import pytest


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Count np.linalg.lstsq calls: least_squares_left's pseudoinverse fallback."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls
