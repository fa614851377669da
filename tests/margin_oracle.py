"""Golden-section univalence margin: an oracle for
``laplacian_growth.univalence_margin``.

It takes the same coarse minimum of |f'(w)| over a 2048-point circle grid,
then shrinks a golden-section bracket of one grid step either side of the
best node for 48 steps, evaluating |f'| one angle at a time.  It uses no
derivative of f', so agreement with the production margin, which refines
by Newton on |f'|^2, is a check on that refinement.  The sign comes from
the moduli of the zeros of f', found by ``np.roots`` (an eigenvalue solve
of the companion matrix), where production decides "all inside the unit
disk" by the Schur-Cohn recursion without finding them.
"""

import math

import numpy as np

from toda_spectra.laplacian_growth import _CUSP_GRID

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def fprime_root_moduli(r, a, leaf) -> np.ndarray:
    """Moduli of the zeros of f' in w, from the polynomial w^{s_N} f'(w) / r."""
    s_top = leaf.exponents[-1]
    coeffs = np.zeros(s_top + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    for an, sn in zip(a, leaf.exponents):
        coeffs[sn] -= (sn - 1) * (an / r)
    roots = np.roots(coeffs)
    return np.abs(roots) if roots.size else np.zeros(1)


def _abs_fprime(r, a, leaf, w):
    fp = r + np.zeros_like(w)
    for an, sn in zip(a, leaf.exponents):
        fp = fp + (1 - sn) * an * w ** (-sn)
    return np.abs(fp)


def _golden_min(fun, lo: float, hi: float, iters: int = 48) -> float:
    # Golden-section shrink.  |f'| is not differentiable at a zero, so a
    # derivative-free bracketing search needs no care near a cusp.
    c = hi - _GOLD * (hi - lo)
    d = lo + _GOLD * (hi - lo)
    fc = fun(c)
    fd = fun(d)
    for _ in range(iters):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLD * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLD * (hi - lo)
            fd = fun(d)
    return float(min(fc, fd))


def golden_margin(r, a, leaf) -> float:
    """Signed margin by grid minimum and golden-section refinement."""
    a = tuple(complex(v) for v in a)
    theta = 2.0 * np.pi * np.arange(_CUSP_GRID) / _CUSP_GRID
    vals = _abs_fprime(r, a, leaf, np.exp(1j * theta))
    i = int(np.argmin(vals))
    step = 2.0 * np.pi / _CUSP_GRID
    refined = _golden_min(
        lambda th: float(_abs_fprime(r, a, leaf, np.exp(1j * th))),
        theta[i] - step, theta[i] + step)
    mag = min(float(vals[i]), refined)
    if np.all(fprime_root_moduli(r, a, leaf) < 1.0):
        return mag
    return -mag
