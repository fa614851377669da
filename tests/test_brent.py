"""The package's Brent root finder against SciPy's, whose operation order
it follows: results must agree to the bit."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_spectra import NoConvergence
from toda_spectra import _brent
from toda_spectra._brent import brentq, brentq_many, first_zero

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



@settings(max_examples=100, deadline=None)
@given(kinds=st.lists(st.integers(0, 2), min_size=1, max_size=6),
       r=st.floats(0.5, 5.0, **finite),
       k=st.floats(0.05, 50.0, **finite),
       left=st.floats(1e-6, 10.0, **finite),
       right=st.floats(1e-6, 10.0, **finite),
       xtol=st.sampled_from([sys.float_info.min, 1e-12, 1e-3]))
def test_brentq_many_matches_brentq_bracket_by_bracket(kinds, r, k, left,
                                                       right, xtol):
    # brackets of different widths and families, so they finish at
    # different steps; roots positive, as on the phase contour's second
    # axis, which is solved with xtol = sys.float_info.min
    fs = [_root_family(kind, r + 0.1 * i, k) for i, kind in enumerate(kinds)]
    a = np.array([r - left * (1 + i) for i in range(len(fs))])
    b = np.array([r + right for _ in fs])
    calls = []

    def f(index, x):
        calls.append(len(index))
        return [fs[i](xi) for i, xi in zip(index, x)]

    got = brentq_many(f, a, b, f(range(len(fs)), a), f(range(len(fs)), b),
                      xtol=xtol)
    for fi, ai, bi, root in zip(fs, a, b, got):
        try:
            want = brentq(fi, ai, bi, xtol=xtol)
        except ValueError:
            want = math.nan
        assert root == want or (math.isnan(root) and math.isnan(want))
    assert all(n > 0 for n in calls)


def test_brentq_matches_scipy_at_a_root_near_zero():
    # the root lies 7e-315 from 0, where RTOL |x| underflows: with
    # xtol = 5e-324 the step tolerance rounds to 0 and the secant steps
    # divide by zero, which SciPy's C code takes as inf or NaN
    f = _root_family(1, -7e-315, 0.3004762971347222)
    a, b = -6.389263620209438, 5.276922107214699
    assert brentq(f, a, b, xtol=5e-324) == -7e-315
    for xtol in (5e-324, sys.float_info.min):
        assert (brentq(f, a, b, xtol=xtol)
                == optimize.brentq(f, a, b, xtol=xtol))


@pytest.mark.parametrize("xtol", [0.0, -1e-12])
def test_brentq_refuses_a_nonpositive_xtol(xtol):
    f = _root_family(1, -7e-315, 0.3004762971347222)
    with pytest.raises(ValueError, match="xtol"):
        optimize.brentq(f, -1.0, 1.0, xtol=xtol)
    with pytest.raises(ValueError, match="xtol"):
        brentq(f, -1.0, 1.0, xtol=xtol)
    with pytest.raises(ValueError, match="xtol"):
        brentq_many(lambda index, x: [f(v) for v in x], np.array([-1.0]),
                    np.array([1.0]), [f(-1.0)], [f(1.0)], xtol=xtol)


def test_brentq_many_reports_failures_as_nan(monkeypatch):
    # an exact zero at an end, no sign change, a NaN inside, a NaN end,
    # a plain root
    a = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    b = np.array([3.0, 1.0, 1.0, 1.0, 2.0])
    funcs = [lambda x: x - 1.0, lambda x: x + 1.0,
             lambda x: math.nan if x > 0.5 else x - 0.7,
             lambda x: math.nan if x > 0.9 else x - 0.7,
             lambda x: x * x - 2.0]

    def f(index, x):
        return [funcs[i](xi) for i, xi in zip(index, x)]

    every = range(len(funcs))
    tiny = sys.float_info.min
    got = brentq_many(f, a, b, f(every, a), f(every, b), xtol=tiny)
    assert got[0] == 1.0 and got[4] == brentq(funcs[4], 0.0, 2.0, xtol=tiny)
    assert np.isnan(got[1:4]).all()
    monkeypatch.setattr(_brent, "MAXITER", 20)
    step = lambda index, x: [math.copysign(1.0, xi - math.pi) for xi in x]
    assert np.isnan(brentq_many(step, np.array([0.0]), np.array([10.0]),
                                [-1.0], [1.0], xtol=1e-12)).all()


# ---------------------------------------------------------------------------
# first_zero


def _march(values, f=None):
    """``first_zero`` on grid 0, 1, 2, ... with the sampled ``values`` and
    ``f`` between them, recording the grid indices sampled and the steps
    refined."""
    sampled, steps = [], []

    def sample(j):
        sampled.append(j)
        return values[j]

    def fun_on(j):
        steps.append(j)
        return f

    grid = np.arange(len(values), dtype=float)
    return first_zero(sample, grid, fun_on, xtol=1e-12), sampled, steps


def test_first_zero_at_the_first_grid_point():
    for first in (0.0, -2.0):
        assert _march([first, 1.0, -1.0]) == (0.0, [0], [])


def test_first_zero_exact_at_a_grid_point():
    assert _march([3.0, 1.0, 0.0, -1.0, 0.0]) == (2.0, [0, 1, 2], [])


def test_first_zero_none_without_a_downward_crossing():
    # rising through 0 is no zero, nor is a positive run
    assert _march([2.0, 1.0, 0.5, 1.0]) == (None, [0, 1, 2, 3], [])


def test_first_zero_samples_no_further_than_the_zero_step():
    f = lambda x: 1.5 - x
    got, sampled, steps = _march([f(x) for x in range(10)], f)
    assert got == brentq(f, 1.0, 2.0, xtol=1e-12) == 1.5
    assert sampled == [0, 1, 2] and steps == [2]


def test_first_zero_nan_brackets_nothing():
    # cos falls through 0 at pi/2, in the step [1, 2]; with a NaN sampled
    # at 2 that crossing is lost, and the next one, 5 pi/2, is found
    values = [math.cos(x) for x in range(10)]
    values[2] = math.nan
    got, sampled, steps = _march(values, math.cos)
    assert got == pytest.approx(2.5 * math.pi, abs=1e-12)
    assert sampled == list(range(9)) and steps == [8]


def test_first_zero_halves_a_step_from_infinity():
    # +inf at 0, as rho_* - 1 at zeta = 0, and a root at 0.25 inside the
    # first step: the step is halved until its left end is finite
    f = lambda x: math.inf if x == 0.0 else 1.0 / x - 4.0
    got, sampled, steps = _march([f(x) for x in range(5)], f)
    assert got == pytest.approx(0.25, abs=1e-12)
    assert sampled == [0, 1] and steps == [1]
    # a step that ends at 0 is that zero
    assert _march([math.inf, 0.0, -1.0], f)[0] == 1.0
    # infinite to the left of a jump down: the jump, to within xtol
    jump = lambda x: math.inf if x < 0.3 else -1.0
    got = _march([math.inf, -1.0], jump)[0]
    assert 0.3 <= got <= 0.3 + 2e-12
    # -inf and NaN still bracket nothing
    assert _march([math.inf, -math.inf, -1.0], f)[0] is None
    assert _march([math.inf, math.nan, -1.0], f)[0] is None
