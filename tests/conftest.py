"""Fixtures shared by the test modules."""

import pytest

from expspline import errbound2, expcore


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes (N, k) of the Opitz kernel calls made during the test.
    errbound2 binds the kernel under its own name for the critical point,
    so both names are patched."""
    calls = []
    real = expcore._opitz_corner

    def counting(x, sig):
        calls.append(x.shape)
        return real(x, sig)

    for module in (expcore, errbound2):
        monkeypatch.setattr(module, "_opitz_corner", counting)
    return calls
