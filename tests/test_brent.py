"""The package's Brent root finder against SciPy's, whose operation order
it follows: results must agree to the bit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_spectra import NoConvergence
from toda_spectra import _brent
from toda_spectra._brent import brentq

optimize = pytest.importorskip("scipy.optimize")

finite = dict(allow_nan=False, allow_infinity=False)


def _root_family(kind, r, k):
    if kind == 0:
        return lambda x: math.tanh(k * (x - r)) + 1e-3 * (x - r)
    if kind == 1:
        return lambda x: (x - r) ** 3 + k * (x - r)
    return lambda x: math.expm1(k * (x - r)) - 0.5 * math.sin(x - r)


@settings(max_examples=300, deadline=None)
@given(kind=st.integers(0, 2),
       r=st.floats(-5.0, 5.0, **finite),
       k=st.floats(0.05, 50.0, **finite),
       left=st.floats(1e-6, 10.0, **finite),
       right=st.floats(1e-6, 10.0, **finite),
       flip=st.booleans(),
       xtol=st.sampled_from([2e-12, 1e-12, 1e-8, 1e-3]))
def test_brentq_matches_scipy(kind, r, k, left, right, flip, xtol):
    g = _root_family(kind, r, k)
    f = (lambda x: -g(x)) if flip else g
    a, b = r - left, r + right
    if (f(a) < 0) == (f(b) < 0):
        with pytest.raises(ValueError):
            brentq(f, a, b, xtol=xtol)
        return
    assert brentq(f, a, b, xtol=xtol) == optimize.brentq(f, a, b, xtol=xtol)


def test_brentq_returns_exact_zero_endpoint():
    assert brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
    assert brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0


def test_brentq_reports_nan_and_exhaustion(monkeypatch):
    with pytest.raises(NoConvergence):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0,
               xtol=1e-12)
    monkeypatch.setattr(_brent, "MAXITER", 20)
    with pytest.raises(NoConvergence):
        brentq(lambda x: math.copysign(1.0, x - math.pi), 0.0, 10.0,
               xtol=1e-12)

