"""Brent's bracketing root finder.

``brentq`` follows the operation order of SciPy's ``brentq.c`` (Brent
1973, ch. 4) step for step, so that it returns the same floating-point
results.  ``brentq_many`` takes the same steps on many brackets at once,
with one vectorized function call per step, and ``first_zero`` on the
first bracket of a function sampled along a grid.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import NoConvergence

# scipy.optimize.brentq's relative tolerance and iteration budget
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def _div(a: float, b: float) -> float:
    """a / b as C divides: by zero, an infinity or NaN, not an exception."""
    try:
        return a / b
    except ZeroDivisionError:
        return a * math.copysign(math.inf, b) if a else math.nan


def _check_xtol(xtol: float) -> None:
    if not xtol > 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NoConvergence(f"function value at x={x} is NaN")
    return fx


def _brent_steps(xpre: float, xcur: float, fpre: float, fcur: float,
                 xtol: float):
    """Brent's iteration on the bracket [xpre, xcur] with the (non-NaN)
    values of f at its ends, as a generator: it yields each next point,
    is sent the value of f there, and returns the root.

    Raises ValueError if the end values have the same sign, and
    NoConvergence after MAXITER iterations.
    """
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
    raise NoConvergence(
        f"brentq did not converge in {MAXITER} iterations (x = {xcur!r})")


def brentq(f: Callable[[float], float], a: float, b: float, *,
           xtol: float) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign, to
    within xtol + RTOL |x|, by inverse quadratic interpolation, secant
    steps and bisection.

    Raises
    ------
    ValueError
        If f(a) and f(b) have the same sign, or xtol <= 0.
    NoConvergence
        If f returns NaN, or MAXITER iterations do not converge.
    """
    _check_xtol(xtol)
    a, b = float(a), float(b)
    return _solve(f, _brent_steps(a, b, _value(f, a), _value(f, b), xtol))


def _solve(f: Callable[[float], float], steps) -> float:
    """Run Brent's iteration ``steps`` on the values of f."""
    try:
        x = next(steps)
        while True:
            x = steps.send(_value(f, x))
    except StopIteration as stop:
        return stop.value


def first_zero(sample: Callable[[int], float], grid, fun_on, *,
               xtol: float) -> float | None:
    """First zero along ``grid`` of a function that is positive before it.

    ``sample(j)`` gives the value at grid[j]; it is called in grid order
    and no further than the zero's step.  The zero is grid[0] if the value
    there is at most 0.  Otherwise it is the first grid[j] where the value
    is 0, or the root on the first step [grid[j-1], grid[j]] over which
    the value falls from above 0 to below, found by ``brentq`` on
    ``fun_on(j)`` to ``xtol`` from the values at the step's ends.  A step
    from +inf to a finite value below 0 is halved, through ``fun_on(j)``,
    at whichever end keeps it so until the left end's value is finite.
    Any other non-finite value brackets nothing.  None if there is no zero.
    """
    _check_xtol(xtol)
    prev = sample(0)
    if math.isfinite(prev) and prev <= 0.0:
        return float(grid[0])
    for j in range(1, len(grid)):
        val = sample(j)
        if math.isfinite(val) and prev > -math.inf:  # prev finite or +inf
            if val == 0.0:
                return float(grid[j])
            if prev > 0.0 > val:
                f, lo, hi = fun_on(j), float(grid[j - 1]), float(grid[j])
                while prev == math.inf:
                    if hi - lo <= xtol + RTOL * abs(hi):
                        return hi
                    mid = lo + (hi - lo) / 2
                    fmid = _value(f, mid)
                    if fmid > 0.0:
                        lo, prev = mid, fmid
                    else:
                        hi, val = mid, fmid
                return float(_solve(f, _brent_steps(lo, hi, prev, val, xtol)))
        prev = val
    return None


def brentq_many(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                a: np.ndarray, b: np.ndarray, fa: np.ndarray,
                fb: np.ndarray, *, xtol: float) -> np.ndarray:
    """``brentq`` on many brackets [a_i, b_i] in lockstep, given f at
    their ends, with one call ``f(index, x)`` per step for the brackets
    numbered ``index`` still running.

    Each bracket takes the scalar solver's steps, so its root is the
    scalar ``brentq``'s to the bit.  Where that would raise (no sign
    change, a NaN value, or MAXITER iterations) the root is NaN; xtol <= 0
    raises ValueError, as there.
    """
    _check_xtol(xtol)
    roots = np.full(len(a), np.nan)
    running = {}  # bracket number -> (its iteration, the point it asks for)

    def advance(i, steps, fx=None):
        try:
            running[i] = (steps, next(steps) if fx is None else steps.send(fx))
        except StopIteration as stop:
            roots[i] = stop.value
        except (ValueError, NoConvergence):
            pass

    ends = (np.asarray(v, dtype=float).tolist() for v in (a, b, fa, fb))
    for i, (lo, hi, flo, fhi) in enumerate(zip(*ends)):
        if not (math.isnan(flo) or math.isnan(fhi)):
            advance(i, _brent_steps(lo, hi, flo, fhi, xtol))
    while running:
        index = list(running)
        values = f(np.array(index), np.array([running[i][1] for i in index]))
        for i, fx in zip(index, np.asarray(values, dtype=float).tolist()):
            steps = running.pop(i)[0]
            if not math.isnan(fx):
                advance(i, steps, fx)
    return roots
