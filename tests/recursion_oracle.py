"""Independent oracles for the Taylor branch: the order-by-order recursion,
its uncollapsed x-grid form, the exact one-mode coefficients and the
residual of the branch equation.

``series_engine.taylor_branch`` computes the branch by Newton's method on
truncated series; the recursion below is the code it replaced, kept as the
check it is compared against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from toda_spectra import ParamPoint


def recursion_coeffs(zetas: Sequence[complex], shifts: Sequence[int],
                     powers_of: Sequence[int], order: int) -> np.ndarray:
    """Order-by-order substitution for u = 1 + sum_n zeta_n * z^shift_n * u^k_n.

    Maintains each needed power u**k_n incrementally via the standard
    power-of-a-series recurrence (from u * (u^k)' = k * u' * u^k), so the
    whole computation is O(order^2) with vectorized inner products.
    """
    u = np.zeros(order + 1, dtype=np.complex128)
    u[0] = 1.0
    pw = [np.zeros(order + 1, dtype=np.complex128) for _ in powers_of]
    for arr in pw:
        arr[0] = 1.0
    filled = [0] * len(powers_of)
    for m in range(1, order + 1):
        total = 0.0 + 0.0j
        for n, (zn, shift, k) in enumerate(zip(zetas, shifts, powers_of)):
            t = m - shift
            if t < 0 or zn == 0:
                continue
            P = pw[n]
            while filled[n] < t:
                j = filled[n] + 1
                i = np.arange(1, j + 1)
                P[j] = np.dot(((k + 1) * i - j) * u[1 : j + 1], P[j - 1 :: -1]) / j
                filled[n] = j
            total += zn * P[t]
        u[m] = total
    return u


def recursion_branch(p: ParamPoint, order: int) -> np.ndarray:
    """Taylor coefficients u_0..u_order of the branch, collapsed to z = x**s,
    by the recursion."""
    return recursion_coeffs(p.zeta, p.leaf.collapsed_shifts, p.leaf.exponents,
                            order)


def taylor_branch_x_grid(p: ParamPoint, order: int) -> np.ndarray:
    """Same recursion on the full x-grid (no collapse); used to check that
    every coefficient of an exponent not divisible by s vanishes."""
    return recursion_coeffs(p.zeta, p.leaf.exponents, p.leaf.exponents, order)


def raney_oracle(s: int, p: int, m: int) -> Fraction:
    """Exact one-mode coefficient p/(s*m+p) * binomial(s*m+p, m).

    Big-integer arithmetic throughout; on a one-mode leaf {s} the series
    coefficient R_p(m) equals this number times zeta**m.
    """
    if s < 2 or p < 1 or m < 0:
        raise ValueError("need s >= 2, p >= 1, m >= 0")
    n = s * m + p
    return Fraction(p * math.comb(n, m), n)


def functional_residual(p: ParamPoint, coeffs: np.ndarray) -> float:
    """Max coefficient residual of U - 1 - sum_n zeta_n x^{s_n} U^{s_n},
    relative to the largest coefficient of U, for the coefficients
    ``coeffs`` of U in z = x**s."""
    order = len(coeffs) - 1
    res = coeffs.copy()
    res[0] -= 1.0
    for zn, shift, k in zip(p.zeta, p.leaf.collapsed_shifts, p.leaf.exponents):
        if zn == 0:
            continue
        upow = coeffs
        for _ in range(k - 1):
            upow = np.convolve(upow, coeffs)[: order + 1]
        res[shift:] -= zn * upow[: order + 1 - shift]
    scale = np.abs(coeffs).max()
    return float(np.abs(res).max() / scale)
