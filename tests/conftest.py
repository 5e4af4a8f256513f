"""Fixtures shared by the test modules."""

import pytest

from expspline import expcore


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes (N, k) of the Opitz kernel calls made during the test."""
    calls = []
    real = expcore._opitz_corner

    def counting(x, sig):
        calls.append(x.shape)
        return real(x, sig)

    monkeypatch.setattr(expcore, "_opitz_corner", counting)
    return calls
