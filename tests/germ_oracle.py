"""Series-side radius estimators for the explicit leaves: oracles for the
closed-form characteristic radii of ``explicit_leaves``.

Each runs the germ's own coefficient recursion, which knows nothing of the
characteristic points, and reads a radius off the coefficients: by the
ratio fit of ``radius_oracle.radius_estimate`` (``pole_germ_radius``,
``log_germ_radius``), or by the upper envelope of the coefficient moduli
(``log_germ_envelope_radius``).  Agreement with ``pole_rho_char`` and
``log_rho_char`` is the check on the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from toda_spectra import (InsufficientData, LogLeafPoint, PoleLeafPoint,
                          log_rho_char)

from radius_oracle import radius_estimate


def _pole_germ_coeffs(b: complex, c: float, order: int) -> np.ndarray:
    """Taylor coefficients of the germ solving u = x (1 + c u^2 / (1 - b u)).

    Clearing the denominator gives the quadratic (c x + b) u^2 -
    (b x + 1) u + x = 0, whose coefficient-by-coefficient form is
    triangular: (u^2)_m only involves u_1 .. u_{m-1}.
    """
    u = np.zeros(order + 1, dtype=np.complex128)
    sq = np.zeros(order + 1, dtype=np.complex128)  # running coefficients of u^2
    u[1] = 1.0
    for m in range(2, order + 1):
        # extend u^2 to index m before it is consumed
        sq[m] = np.dot(u[1:m], u[m - 1:0:-1])
        u[m] = b * sq[m] + c * sq[m - 1] - b * u[m - 1]
    return u


def pole_germ_radius(p: PoleLeafPoint, order: int) -> float:
    """Series-side radius of the single-pole germ, for cross-checking.

    Runs the germ recursion to ``order`` and applies the ratio-fit radius
    estimator.  At b = 0 the germ is odd in x, so the estimator runs on
    the collapsed odd-index subsequence.  Near-tied characteristic moduli
    (|b| small but nonzero) converge slowly; deepen ``order`` there.
    """
    if order < 100:
        raise ValueError("pole germ radius needs order >= 100")
    u = _pole_germ_coeffs(p.b, p.c, order)
    if p.b == 0:
        rho, _ = radius_estimate(u[1::2], 2)
    else:
        # u_2 vanishes identically (u = x + c x^3 + b c x^4 + ...), so the
        # ratio fit starts at u_3; a fixed index shift leaves the large-m
        # ratio limit, hence the radius, unchanged.
        rho, _ = radius_estimate(u[3:], 1)
    return rho


def _log_germ_coeffs(b: float, gamma: float, order: int,
                     scale: float = 1.0) -> np.ndarray:
    """Taylor coefficients of the germ solving u = x (1 + gamma u log(1-bu)).

    Interleaved triangular recursion: u_m = gamma (u ell)_{m-1} needs ell
    only up to index m-2, and the logarithmic series ell = log(1 - b u)
    advances through its derivative relation ell' (1 - b u) = -b u'.

    With ``scale`` the recursion runs in the rescaled variable x/scale
    (returned entry m is u_m * scale**m); both relations are homogeneous
    under that rescaling.  Choosing scale near the radius keeps deep
    coefficients O(1) instead of underflowing.
    """
    u = np.zeros(order + 1)
    ell = np.zeros(order + 1)
    u[1] = scale
    ell[1] = -b * scale
    for m in range(2, order + 1):
        u[m] = scale * gamma * np.dot(u[1:m - 1], ell[m - 2:0:-1]) if m > 2 else 0.0
        ell[m] = -b * u[m] + (b / m) * np.dot(
            u[1:m], (np.arange(m - 1, 0, -1)) * ell[m - 1:0:-1])
    return u


def log_germ_radius(p: LogLeafPoint, order: int) -> float:
    """Series-side radius estimate of the single-log germ.

    Diagnostic companion to :func:`log_rho_char`: the germ's first
    singularity should sit at the active principal-sheet characteristic
    modulus.  The dominant obstruction here is a complex-conjugate pair
    at a generic angle, which makes plain ratio extrapolation noisy; see
    the property suite for how well the two sides actually agree.
    """
    if order < 100:
        raise ValueError("log germ radius needs order >= 100")
    u = _log_germ_coeffs(p.b, p.gamma, order)
    # The quadratic coefficient vanishes identically (u = x - gamma b x^3
    # - ...), so the fit window starts at the cubic term.
    rho, _ = radius_estimate(u[3:], 1)
    return rho


def log_germ_envelope_radius(p: LogLeafPoint, order: int) -> float:
    """Angle-robust radius estimate of the single-log germ.

    The germ's nearest singularities form a complex pair at a generic
    angle phi, so the coefficient moduli carry an oscillating factor
    ~|cos(m phi + delta)| and consecutive-ratio extrapolation
    (:func:`log_germ_radius`) does not converge.  This variant instead
    fits the upper envelope of log|u_m| + (3/2) log m over order blocks,
    which tracks the pair's modulus regardless of its angle; the 3/2
    corrects the square-root branch-point prefactor m**(-3/2).

    The recursion runs pre-scaled by the characteristic radius so deep
    coefficients stay in floating range.
    """
    if order < 200:
        raise ValueError("envelope radius needs order >= 200")
    scale = log_rho_char(p, on_cut="split").rho
    w = _log_germ_coeffs(p.b, p.gamma, order, scale=scale)
    m = np.arange(1, order + 1)
    a = np.abs(w[1:])
    keep = np.isfinite(a) & (a > 0.0)
    mk = m[keep]
    lk = np.log(a[keep]) + 1.5 * np.log(mk)
    top = mk > mk[-1] // 2
    mk, lk = mk[top], lk[top]
    block = 25
    mb, lb = [], []
    for i in range(0, len(mk) - block + 1, block):
        j = i + int(np.argmax(lk[i:i + block]))
        mb.append(mk[j])
        lb.append(lk[j])
    if len(mb) < 4:
        raise InsufficientData(
            f"only {len(mb)} envelope blocks at order {order}")
    slope = float(np.polyfit(mb, lb, 1)[0])
    return scale * math.exp(-slope)
