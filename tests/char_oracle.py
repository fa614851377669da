"""Per-point characteristic solve: the test oracle for the orbit solve.

``characteristic_points`` solves the characteristic system point by point,
as ``branch_points.solve_characteristic`` did before it solved once per
s-orbit: the substitution u = x*lambda collapses F = F_y = 0 to the single
polynomial

    P(u) = 1 + sum_n zeta_n (1 - s_n) u^{s_n}

of degree top, whose every root (not only one per orbit) is polished by
Newton in u and mapped back through lambda = 1 + Psi(u), x_* = u / lambda.
Each point is classified at its own x_*, so a comparison with the orbit
solve's expanded members also checks that the members of an orbit share
lambda and kappa.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from toda_spectra import CharPoint, NoConvergence, ParamPoint
from toda_spectra.branch_points import (CLUSTER_RADIUS, SIMPLE_TOL, TOL_CHAR,
                                        _char_derivs, _kappa_branch)


def characteristic_points(p: ParamPoint) -> list[CharPoint]:
    """All finite characteristic points (x_*, lambda) of the leaf, sorted by
    modulus, then by arg x_* in [0, 2 pi)."""
    if p.is_zero():
        raise ValueError("characteristic system needs zeta != 0")
    top = max(sn for zn, sn in zip(p.zeta, p.leaf.exponents) if zn != 0)
    # P coefficients, highest power first, for np.roots
    coeff = np.zeros(top + 1, dtype=np.complex128)
    coeff[-1] = 1.0
    for zn, sn in zip(p.zeta, p.leaf.exponents):
        if sn <= top:
            coeff[top - sn] += zn * (1 - sn)
    roots = np.roots(coeff)

    def P_and_dP(u):
        v = 1.0 + 0.0j
        dv = 0.0 + 0.0j
        for zn, sn in zip(p.zeta, p.leaf.exponents):
            if zn == 0:
                continue
            c = zn * (1 - sn)
            v += c * u**sn
            dv += c * sn * u ** (sn - 1)
        return v, dv

    polished = []
    for u in roots:
        for _ in range(40):
            v, dv = P_and_dP(u)
            if dv == 0:
                break
            step = v / dv
            u = u - step
            if abs(step) < 1e-15 * (1.0 + abs(u)):
                break
        polished.append(u)

    # cluster duplicates (multiple roots split by rounding)
    kept_u: list[complex] = []
    u_scale = max(abs(u) for u in polished)
    for u in sorted(polished, key=lambda v: (abs(v), v.real, v.imag)):
        if all(abs(u - w) > CLUSTER_RADIUS * u_scale for w in kept_u):
            kept_u.append(u)

    out = []
    at_infinity = 0
    for u in kept_u:
        lam = 1.0 + sum(zn * u**sn for zn, sn in zip(p.zeta, p.leaf.exponents))
        lam_scale = 1.0 + sum(abs(zn) * abs(u) ** sn
                              for zn, sn in zip(p.zeta, p.leaf.exponents))
        if abs(lam) <= TOL_CHAR * lam_scale:
            at_infinity += 1
            continue
        x = u / lam
        F, Fy, Fx, Fyy, scale = _char_derivs(p, x, lam)
        tol = TOL_CHAR * (1.0 + abs(lam))
        if abs(F) > tol or abs(Fy) > tol:
            continue
        simple = abs(Fyy) > SIMPLE_TOL * scale
        fold_ok = abs(Fx) > SIMPLE_TOL * scale / max(abs(x), 1e-300)
        # x F_x = -lam on F_y = 0; the summed x F_x loses ~1/|lam| to
        # cancellation on far orbits
        kappa = _kappa_branch(-2.0 * lam / Fyy) if simple else 0.0 + 0.0j
        out.append(CharPoint(x_star=x, lam=lam, kappa=kappa, modulus=abs(x),
                             simple=simple, fold_ok=fold_ok))
    if len(out) + at_infinity < len(kept_u) or not out:
        raise NoConvergence(
            f"characteristic solve kept {len(out)} of {len(kept_u)} clustered "
            f"roots (degree {top}, {at_infinity} at infinity)"
        )
    out.sort(key=lambda c: (c.modulus, cmath.phase(c.x_star) % (2 * math.pi)))
    return out
