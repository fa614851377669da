"""Brent's bracketing root finder.

``brentq`` follows the operation order of SciPy's ``brentq.c`` (Brent
1973, ch. 4) step for step, so that it returns the same floating-point
results.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import NoConvergence

# scipy.optimize.brentq's relative tolerance and iteration budget
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NoConvergence(f"function value at x={x} is NaN")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, *,
           xtol: float) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign, to
    within xtol + RTOL |x|, by inverse quadratic interpolation, secant
    steps and bisection.

    Raises
    ------
    ValueError
        If f(a) and f(b) have the same sign.
    NoConvergence
        If f returns NaN, or MAXITER iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
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
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
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
        fcur = _value(f, xcur)
    raise NoConvergence(
        f"brentq did not converge in {MAXITER} iterations (x = {xcur!r})")

