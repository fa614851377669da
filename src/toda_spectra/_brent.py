"""Brent's bracketing root finder and bounded scalar minimizer.

Both follow the SciPy implementations step for step, so that they return
the same floating-point results: ``brentq`` the operation order of SciPy's
``brentq.c`` (Brent 1973, ch. 4) and ``fminbound`` that of
``scipy.optimize.minimize_scalar(method="bounded")`` (Brent 1973, ch. 5).
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import NoConvergence

# scipy.optimize.brentq's relative tolerance and iteration budget, and
# minimize_scalar(method="bounded")'s evaluation budget
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100
MAXFUN = 500


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


def fminbound(f: Callable[[float], float], lo: float, hi: float, *,
              xatol: float) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of ``f`` on [lo, hi], to within about
    ``xatol``, by golden-section search with parabolic steps.  After
    MAXFUN evaluations the best point so far is returned.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError("bounds must be finite with lo <= hi")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = float(f(xf))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= MAXFUN:
            break
    return xf, fx
