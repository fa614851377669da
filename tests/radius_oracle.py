"""Coefficient-ratio radius fit: the series-side oracle for the dominant
characteristic modulus.

``radius_estimate`` reads the radius of convergence and the singularity
exponent off the tail of a coefficient sequence, knowing nothing of the
characteristic points.  Criterion 04 checks ``dominant_data``'s modulus
against it, and ``germ_oracle`` applies it to the explicit leaves' germ
recursions.  ``ratio_orbit`` decides the dominant orbit and the sign of
its square-root coefficient from the fit and the deepest coefficient
alone; the property tests compare that with ``dominant_data`` wherever
the fit names one orbit.
"""

from __future__ import annotations

import numpy as np

from toda_spectra import (DegenerateSeries, NoConvergence, ParamPoint,
                          amplitude_A, solve_characteristic, taylor_branch)


def radius_estimate(u: np.ndarray, s: int) -> tuple[float, float]:
    """Analyticity-radius and singularity-exponent estimate from the
    coefficients ``u`` of a series in z = x**s.

    Fits the ratio sequence q_m = |u_m / u_{m+1}| linearly against 1/m over
    the top third of available orders.  The intercept estimates the radius
    in z = x**s (so rho_hat = intercept**(1/s)); the ratio -slope/intercept
    estimates the coefficient exponent a in u_m ~ m**a * radius**(-m),
    which is -3/2 at a square-root branch point.

    Raises
    ------
    DegenerateSeries
        If a coefficient past the constant term is exactly zero
        (terminating or lacunary series); carries the first such index.
    """
    order = len(u) - 1
    if order < 50:
        raise ValueError("radius_estimate needs order >= 50")
    c = np.abs(u)
    zero_idx = np.nonzero(c[1:] == 0.0)[0]
    if zero_idx.size:
        first = int(zero_idx[0] + 1)
        raise DegenerateSeries(f"coefficient {first} is exactly zero",
                               first_zero_index=first)
    start = (2 * order) // 3
    x = 1.0 / np.arange(start, order)
    q = c[start:-1] / c[start + 1 :]
    # least-squares line q = intercept + slope x, from centred sums
    dx = x - x.mean()
    slope = np.dot(dx, q - q.mean()) / np.dot(dx, dx)
    intercept = q.mean() - slope * x.mean()
    if not intercept > 0:
        raise NoConvergence("ratio extrapolation gave a non-positive radius")
    return float(intercept ** (1.0 / s)), float(-slope / intercept)


def ratio_orbit(p: ParamPoint, order: int = 250) -> tuple[float, int] | None:
    """The dominant orbit's modulus and the sign of its square-root
    coefficient as the ratio fit decides them, or None where it cannot.

    The fit must name exactly one orbit within 5e-3 (relative) of its
    radius, with a fitted exponent within 0.3 of -3/2.  The sign is that
    of Re(u_m / (A_1 m^(-3/2) x_*^(-m s))) at m = ``order``, for A_1 from
    the orbit with kappa as ``solve_characteristic`` returns it
    (Re kappa >= 0); the result is None unless that real part has
    magnitude at least 0.2.  A coefficient that is exactly zero, or a
    prediction that under- or overflows, is None as well.
    """
    s = p.leaf.s
    series = taylor_branch(p, order)
    try:
        rho_hat, exponent = radius_estimate(series, s)
    except (DegenerateSeries, NoConvergence):
        return None
    matched = [cp for cp in solve_characteristic(p)
               if abs(cp.modulus - rho_hat) <= 5e-3 * rho_hat]
    if len(matched) != 1 or abs(exponent + 1.5) > 0.3:
        return None
    cp = matched[0]
    with np.errstate(all="ignore"):
        pred = (amplitude_A(s, cp.kappa, cp.lam, 1) * order**-1.5
                * cp.x_star ** (-order * s))
        if pred == 0 or not np.isfinite(abs(pred)):
            return None
        ratio = complex(series[order]) / pred
    if abs(ratio.real) < 0.2:
        return None
    return float(cp.modulus), 1 if ratio.real > 0 else -1
