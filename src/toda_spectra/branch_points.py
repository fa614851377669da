"""Characteristic points of the inverse-map equation and dominant-orbit data.

With F(y, x) = y - 1 - sum_n zeta_n x^{s_n} y^{s_n}, the Taylor branch
y = U(x) loses analyticity where F and dF/dy vanish simultaneously.  The
substitution u = x*y collapses that two-equation system to one polynomial

    P(u) = 1 + sum_n zeta_n (1 - s_n) u^{s_n},

each root of which yields a characteristic pair through lambda = 1 + Psi(u)
and x_* = u / lambda, where Psi(u) = sum_n zeta_n u^{s_n}.  Roots with
lambda = 0 correspond to solutions at infinity and are discarded.

The module classifies the finite solutions (square-root coefficient kappa,
simple/fold flags), matches them against a coefficient-based radius
estimate to identify the dominant s-orbit, continues the dominant point
along parameter paths, and solves rho_*(zeta(t)) = 1 for critical loci.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import (
    BranchJump,
    DegenerateSeries,
    NoConvergence,
    NoDominantOrbit,
    NotBracketed,
)
from .series_engine import Leaf, ParamPoint, PowerSeries, taylor_branch

__all__ = [
    "CharPoint",
    "DominantData",
    "solve_characteristic",
    "radius_estimate",
    "dominant_data",
    "continue_critical",
    "critical_parameter",
    "amplitude_A",
]

TOL_CHAR = 1e-10
SIMPLE_TOL = 1e-8
CLUSTER_RADIUS = 1e-8
SEP_MIN_DEFAULT = 1e-6
TOL_MATCH_DEFAULT = 5e-3
EXPONENT_WINDOW = 0.3


@dataclass(frozen=True)
class CharPoint:
    """One finite solution of the characteristic system.

    ``kappa`` is the square-root coefficient of the branch expansion,
    with the branch fixed by Re kappa >= 0 (ties broken by Im kappa >= 0).
    """

    x_star: complex
    lam: complex
    kappa: complex
    modulus: float
    simple: bool
    fold_ok: bool


def _char_derivs(p: ParamPoint, x: complex, y: complex):
    """F and its partials at (x, y), plus a cancellation-free term scale."""
    F = y - 1.0
    Fy = 1.0 + 0.0j
    Fx = 0.0 + 0.0j
    Fyy = 0.0 + 0.0j
    Fyx = 0.0 + 0.0j
    scale = 1.0
    for zn, sn in zip(p.zeta, p.leaf.exponents):
        if zn == 0:
            continue
        xs = x**sn
        ys1 = y ** (sn - 1)
        term = zn * xs * ys1
        F -= term * y
        Fy -= sn * term
        Fx -= sn * term * y / x
        Fyy -= sn * (sn - 1) * term / y
        Fyx -= sn * sn * term / x
        scale += sn * (sn - 1) * abs(term / y)
    return F, Fy, Fx, Fyy, Fyx, scale


def _kappa_branch(k2: complex) -> complex:
    k = cmath.sqrt(k2)
    if k.real < 0 or (k.real == 0 and k.imag < 0):
        k = -k
    return k


def _char_point_at(p: ParamPoint, x: complex, y: complex) -> CharPoint:
    _, _, Fx, Fyy, _, scale = _char_derivs(p, x, y)
    simple = abs(Fyy) > SIMPLE_TOL * scale
    fold_ok = abs(Fx) > SIMPLE_TOL * scale / max(abs(x), 1e-300)
    kappa = _kappa_branch(2.0 * x * Fx / Fyy) if simple else 0.0 + 0.0j
    return CharPoint(x_star=x, lam=y, kappa=kappa, modulus=abs(x),
                     simple=simple, fold_ok=fold_ok)


def _psi(p: ParamPoint, u: complex) -> complex:
    return sum(zn * u**sn for zn, sn in zip(p.zeta, p.leaf.exponents))


def solve_characteristic(p: ParamPoint) -> list[CharPoint]:
    """All finite characteristic solutions (x_*, lambda) of the leaf.

    Eliminates to the single polynomial P(u) = 1 + sum zeta_n (1-s_n) u^{s_n}
    via u = x*lambda, polishes each root by one-dimensional Newton on P, and
    maps back.  Roots mapping to infinity (lambda = 0) are dropped; the
    remaining count is checked against the polynomial degree.

    Raises
    ------
    NoConvergence
        If fewer finite solutions survive residual filtering than the
        algebraic degree allows.
    """
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
        lam = 1.0 + _psi(p, u)
        lam_scale = 1.0 + sum(abs(zn) * abs(u) ** sn
                              for zn, sn in zip(p.zeta, p.leaf.exponents))
        if abs(lam) <= TOL_CHAR * lam_scale:
            at_infinity += 1
            continue
        x = u / lam
        cp = _char_point_at(p, x, lam)
        F, Fy, *_ = _char_derivs(p, x, lam)
        tol = TOL_CHAR * (1.0 + abs(lam))
        if abs(F) > tol or abs(Fy) > tol:
            continue
        out.append(cp)
    if len(out) + at_infinity < len(kept_u) or not out:
        raise NoConvergence(
            f"characteristic solve kept {len(out)} of {len(kept_u)} clustered "
            f"roots (degree {top}, {at_infinity} at infinity)"
        )
    out.sort(key=lambda c: (c.modulus, cmath.phase(c.x_star) % (2 * math.pi)))
    return out


def radius_estimate(u: PowerSeries, s: int) -> tuple[float, float]:
    """Analyticity-radius and singularity-exponent estimate from coefficients.

    Fits the ratio sequence q_m = |u_m / u_{m+1}| linearly against 1/m over
    the top third of available orders.  The intercept estimates the radius
    in z = x**s (so rho_hat = intercept**(1/s)); the ratio -slope/intercept
    estimates the coefficient exponent a in u_m ~ m**a * radius**(-m),
    which is -3/2 at a square-root branch point.

    Raises
    ------
    DegenerateSeries
        If coefficients in the fit window vanish (terminating or lacunary
        series); carries the first vanishing index.
    """
    if u.order < 50:
        raise ValueError("radius_estimate needs order >= 50")
    c = np.abs(u.coeffs)
    zero_idx = np.nonzero(c[1:] == 0.0)[0]
    start = (2 * u.order) // 3
    if zero_idx.size and zero_idx[0] + 1 >= start:
        raise DegenerateSeries(
            f"coefficient {zero_idx[0] + 1} vanished inside the ratio window",
            first_zero_index=int(zero_idx[0] + 1),
        )
    if zero_idx.size:
        raise DegenerateSeries(
            f"coefficient {zero_idx[0] + 1} is exactly zero",
            first_zero_index=int(zero_idx[0] + 1),
        )
    m = np.arange(start, u.order)
    q = c[start:-1] / c[start + 1 :]
    slope, intercept = np.polyfit(1.0 / m, q, 1)
    if not intercept > 0:
        raise NoConvergence("ratio extrapolation gave a non-positive radius")
    return float(intercept ** (1.0 / s)), float(-slope / intercept)


@dataclass
class DominantData:
    """Dominant s-orbit of characteristic points with transfer amplitudes.

    ``rho_star`` is the matched characteristic modulus (exact, not the
    coefficient estimate); ``phi`` = arg(x_*^s) is shared by the whole
    orbit.  The representative's kappa is re-oriented here to the sign the
    Taylor sheet actually realizes (the branch expands as
    U = lam + kappa*sqrt(1 - x/x_*) + ...), so the amplitudes
    A_p = -(s^{-1/2}/(2 sqrt(pi))) p kappa lam^{p-1} are asymptotically
    exact, not just up to phase.  ``amplitudes[p]`` holds A_p for the powers
    requested at construction; ``amplitude(p)`` computes any other on demand.
    """

    rho_star: float
    representative: CharPoint
    orbit: tuple[CharPoint, ...]
    orbit_size: int
    separation: float
    phi: float
    s: int
    amplitudes: dict[int, complex] = field(default_factory=dict)
    rho_hat: float = float("nan")
    exponent_hat: float = float("nan")

    def amplitude(self, p: int) -> complex:
        if p not in self.amplitudes:
            self.amplitudes[p] = amplitude_A(
                self.s, self.representative.kappa, self.representative.lam, p
            )
        return self.amplitudes[p]


def amplitude_A(s: int, kappa: complex, lam: complex, p: int) -> complex:
    """Transfer amplitude A_p = -(s^{-1/2} / (2 sqrt(pi))) p kappa lam^(p-1)."""
    return -(s**-0.5 / (2.0 * math.sqrt(math.pi))) * p * kappa * lam ** (p - 1)


def _group_orbits(points: list[CharPoint], s: int) -> list[list[CharPoint]]:
    """Group characteristic points into rotation orbits by their shared x^s."""
    groups: list[tuple[complex, list[CharPoint]]] = []
    for cp in points:
        z = cp.x_star**s
        for z0, members in groups:
            if abs(z - z0) <= CLUSTER_RADIUS * max(abs(z0), 1.0):
                members.append(cp)
                break
        else:
            groups.append((z, [cp]))
    return [members for _, members in groups]


def dominant_data(p: ParamPoint, order: int, *,
                  p_values: tuple[int, ...] = (1, 2, 5),
                  sep_min: float = SEP_MIN_DEFAULT,
                  tol_match: float = TOL_MATCH_DEFAULT,
                  points: list[CharPoint] | None = None) -> DominantData:
    """Identify the dominant orbit by matching series data to characteristic moduli.

    Runs the coefficient-ratio radius estimate at the given truncation order,
    finds the characteristic orbit whose modulus agrees within ``tol_match``
    (relative), and certifies dominance when that orbit is alone at its
    modulus with the next modulus at least ``sep_min`` (relative) above.
    The fitted coefficient exponent must also sit within 0.3 of -3/2 — the
    signature of a square-root point on the relevant sheet.  ``points``
    passes in ``solve_characteristic(p)`` when the caller already has it.

    Raises
    ------
    NoDominantOrbit
        Two orbits tied at the minimal modulus, no modulus match, exponent
        far from -3/2, or undecidable square-root sign.
    """
    s = p.leaf.s
    if points is None:
        points = solve_characteristic(p)
    orbits = _group_orbits(points, s)
    orbits.sort(key=lambda g: g[0].modulus)
    if (len(orbits) > 1
            and orbits[1][0].modulus - orbits[0][0].modulus
            <= sep_min * orbits[0][0].modulus):
        raise NoDominantOrbit(
            f"two orbits share the minimal modulus {orbits[0][0].modulus:.6g} "
            f"within sep_min={sep_min:g}"
        )

    series = taylor_branch(p, order)
    rho_hat, exponent_hat = radius_estimate(series, s)
    matched = [g for g in orbits
               if abs(g[0].modulus - rho_hat) <= tol_match * rho_hat]
    if not matched:
        moduli = [g[0].modulus for g in orbits]
        raise NoDominantOrbit(
            f"no characteristic modulus within {tol_match:g} of the series "
            f"estimate {rho_hat:.6g} (moduli: {moduli})"
        )
    if abs(exponent_hat + 1.5) > EXPONENT_WINDOW:
        raise NoDominantOrbit(
            f"fitted coefficient exponent {exponent_hat:.3f} is not the "
            f"square-root value -1.5 (window {EXPONENT_WINDOW:g})"
        )
    best = matched[0]
    rho = best[0].modulus
    higher = [g[0].modulus for g in orbits if g[0].modulus - rho > sep_min * rho]
    separation = (min(higher) - rho) / rho if higher else math.inf
    if len(best) != s:
        raise NoDominantOrbit(
            f"matched orbit has {len(best)} members, expected s = {s}"
        )
    # orbit arguments are spaced by 2*pi/s, so the member with the smallest
    # non-negative argument is the (unique) one in [0, 2*pi/s)
    rep = min(best, key=lambda c: cmath.phase(c.x_star) % (2.0 * math.pi))
    sign = _sheet_sign(series, rep, s)
    if sign < 0:
        best = [CharPoint(c.x_star, c.lam, -c.kappa, c.modulus, c.simple,
                          c.fold_ok) for c in best]
        rep = min(best, key=lambda c: cmath.phase(c.x_star) % (2.0 * math.pi))
    phi = cmath.phase(rep.x_star**s)
    dom = DominantData(
        rho_star=rho, representative=rep, orbit=tuple(best), orbit_size=len(best),
        separation=separation, phi=phi, s=s,
        rho_hat=rho_hat, exponent_hat=exponent_hat,
    )
    for pv in p_values:
        dom.amplitude(pv)
    return dom


def _sheet_sign(series: PowerSeries, rep: CharPoint, s: int) -> int:
    """Orient kappa to the Taylor sheet's actual square-root coefficient.

    kappa**2 is branch-agnostic; the sign realized on the Taylor sheet is
    read off by comparing a deep series coefficient with the two candidate
    transfer predictions A_1 * m**(-3/2) * x_***(-m*s).
    """
    m = series.order
    pred = (amplitude_A(s, rep.kappa, rep.lam, 1)
            * m**-1.5 * rep.x_star ** (-m * s))
    if pred == 0 or not np.isfinite(abs(pred)):
        raise NoDominantOrbit("transfer prediction under/overflowed; "
                              "cannot orient the square-root branch")
    ratio = complex(series.coeffs[m]) / pred
    if abs(ratio.real) < 0.2:
        raise NoDominantOrbit(
            f"square-root sign undecidable (coefficient/prediction ratio "
            f"{ratio:.3g} at order {m})"
        )
    return 1 if ratio.real > 0 else -1


def _newton_char(p: ParamPoint, x: complex, y: complex,
                 max_iter: int = 60) -> tuple[complex, complex] | None:
    """Damped Newton on (F, dF/dy) = 0 in the unknowns (y, x)."""
    for _ in range(max_iter):
        F, Fy, Fx, Fyy, Fyx, _ = _char_derivs(p, x, y)
        det = Fy * Fyx - Fx * Fyy
        if det == 0:
            return None
        # solve [[Fy, Fx], [Fyy, Fyx]] @ [dy, dx] = [F, Fy]
        dy = (F * Fyx - Fx * Fy) / det
        dx = (Fy * Fy - Fyy * F) / det
        limit = 0.5 * max(abs(x), abs(y))
        norm = max(abs(dx), abs(dy))
        if norm > limit:
            damp = limit / norm
            dx *= damp
            dy *= damp
        x, y = x - dx, y - dy
        if max(abs(dx), abs(dy)) < 1e-14 * (1.0 + max(abs(x), abs(y))):
            F, Fy, *_ = _char_derivs(p, x, y)
            tol = TOL_CHAR * (1.0 + abs(y))
            if abs(F) <= tol and abs(Fy) <= tol:
                return x, y
            return None
    return None


def continue_critical(path, t_grid, *, order: int = 200,
                      jump_max: float = 0.1) -> list[tuple[float, CharPoint, float]]:
    """Continue the dominant characteristic point along zeta(t).

    ``path`` maps t to a ParamPoint.  The dominant orbit is identified at the
    first grid point; after that each step reuses the previous (x_*, lambda)
    as the Newton seed.  A step whose solution moves by more than
    ``jump_max * |x_*|`` is bisected until continuity is restored.

    Returns a list of (t, CharPoint, rho_star) in grid order.

    Raises
    ------
    BranchJump
        Bisection hit depth 48 without restoring continuity (a different
        orbit captured the iteration).
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        return []
    dom = dominant_data(path(t_grid[0]), order)
    cp0 = dom.representative
    out = [(t_grid[0], cp0, cp0.modulus)]
    prev_t, prev = t_grid[0], cp0

    def step(t0: float, cp: CharPoint, t1: float, depth: int) -> CharPoint:
        sol = _newton_char(path(t1), cp.x_star, cp.lam)
        if sol is not None:
            x, y = sol
            if abs(x - cp.x_star) <= jump_max * abs(cp.x_star):
                return _char_point_at(path(t1), x, y)
        if depth >= 48:
            raise BranchJump(
                f"continuation lost the orbit between t={t0:.6g} and t={t1:.6g}"
            )
        tm = 0.5 * (t0 + t1)
        mid = step(t0, cp, tm, depth + 1)
        return step(tm, mid, t1, depth + 1)

    for t in t_grid[1:]:
        cp = step(prev_t, prev, t, 0)
        out.append((t, cp, cp.modulus))
        prev_t, prev = t, cp
    return out


def critical_parameter(path, t_lo: float, t_hi: float, *,
                       order: int = 200, coarse: int = 17,
                       xtol: float = 1e-12) -> float:
    """Solve rho_*(zeta(t)) = 1 on [t_lo, t_hi] by continuation plus Brent.

    Marches the dominant point over a coarse grid to bracket a sign change
    of rho_*(t) - 1, then refines with a seeded Newton inside brentq.

    Raises
    ------
    NotBracketed
        rho_* - 1 does not change sign on the interval.
    """
    grid = np.linspace(t_lo, t_hi, coarse)
    track = continue_critical(path, grid, order=order)
    vals = [rho - 1.0 for _, _, rho in track]
    bracket = None
    for i in range(len(vals) - 1):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] < 0:
            bracket = i
            break
    if vals[-1] == 0.0:
        return float(grid[-1])
    if bracket is None:
        raise NotBracketed(
            f"rho_* - 1 keeps sign on [{t_lo:g}, {t_hi:g}] "
            f"(endpoints {vals[0]:.3e}, {vals[-1]:.3e})"
        )
    seed = {"cp": track[bracket][1]}

    def g(t: float) -> float:
        sol = _newton_char(path(t), seed["cp"].x_star, seed["cp"].lam)
        if sol is None:
            raise NoConvergence(f"characteristic Newton failed at t={t:.6g}")
        x, y = sol
        seed["cp"] = _char_point_at(path(t), x, y)
        return abs(x) - 1.0

    return float(brentq(g, grid[bracket], grid[bracket + 1], xtol=xtol))
