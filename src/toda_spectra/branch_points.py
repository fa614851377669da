"""Characteristic points of the inverse-map equation and dominant-orbit data.

With F(y, x) = y - 1 - sum_n zeta_n x^{s_n} y^{s_n}, the Taylor branch
y = U(x) loses analyticity where F and dF/dy vanish simultaneously.  Every
s_n is a multiple of the leaf's symmetry index s, and the substitution
w = (x*y)^s collapses that two-equation system to one polynomial

    Q(w) = 1 + sum_n zeta_n (1 - s_n) w^{s_n/s}

of degree at most s_N/s.  Each root yields one s-orbit of characteristic points
through lambda = 1 + Psi(w) and z_* = x_*^s = w / lambda^s, where
Psi(w) = sum_n zeta_n w^{s_n/s}; its s members share lambda and kappa.
Roots with lambda = 0 correspond to solutions at infinity and are
discarded.

The module classifies the finite orbits (square-root coefficient kappa,
simple/fold flags) and identifies the dominant s-orbit, the one of least
modulus on the Taylor branch itself: it continues F(y, t x_*) = 0 from
(t, y) = (0, 1) toward each orbit in turn, in order of modulus, and takes
the first whose square-root germ lambda +- kappa sqrt(1 - t) the branch
meets (the connection problem of Flajolet and Sedgewick, *Analytic
Combinatorics*, VII.7).  Along a parameter path it carries that
certificate from point to point, and ``critical_parameter`` finds the
first crossing of rho_*(zeta(t)) = 1 on certified values alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from ._brent import first_zero
from .errors import NoConvergence, NoDominantOrbit, NotBracketed
from .series_engine import ParamPoint
from .series_engine import taylor_branch  # noqa: F401  (looked up by perfbench/tracer.py)

__all__ = [
    "CharPoint",
    "DominantData",
    "solve_characteristic",
    "dominant_data",
    "critical_parameter",
    "amplitude_A",
]

TOL_CHAR = 1e-10
SIMPLE_TOL = 1e-8
CLUSTER_RADIUS = 1e-8
# relative modulus gap below which two orbits count as tied
SEP_MIN = 1e-6
# w = (U - lam)/(kappa sqrt(h)) at t = 1 - CERT_H on the ray t x_* is
# +-1 + O(sqrt(h)) at the branch's own singularity (within 0.05 of +-1
# over random points) and O(1/sqrt(h)) off it (at least 12 away)
CERT_H = 1e-4
CERT_TOL = 0.3
# ray step accepted when its first Newton step d has |d Fyy / Fy| <=
# RAY_ALPHA (Smale's alpha test with gamma from Fyy, inside his bound)
RAY_ALPHA = 0.25
RAY_STEP_MIN = 1e-13
# an inherited orbit moves by at most this fraction of |x_*| (dominant_data)
JUMP_MAX = 0.1
# grid steps and Brent tolerance of critical_parameter, as the scan uses it
CRIT_STEPS = 16
CRIT_XTOL = 1e-12


@dataclass(frozen=True)
class CharPoint:
    """One s-orbit of finite solutions of the characteristic system.

    The orbit's s points x_* e^{2 pi i k/s} share lam and kappa;
    ``x_star`` is its representative, the member with arg in [0, 2 pi/s).
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
        scale += sn * (sn - 1) * abs(term / y)
    return F, Fy, Fx, Fyy, scale


def _kappa_branch(k2: complex) -> complex:
    k = cmath.sqrt(k2)
    if k.real < 0 or (k.real == 0 and k.imag < 0):
        k = -k
    return k


def solve_characteristic(p: ParamPoint) -> list[CharPoint]:
    """All finite characteristic orbits of the leaf, one CharPoint each.

    With u = x*lambda the system collapses to P(u) = 1 + sum zeta_n (1-s_n)
    u^{s_n}; every s_n is a multiple of s, so P(u) = Q(w) in w = u^s, of
    degree top/s.  Each root of Q is polished by Newton in w and gives one
    orbit: lambda = 1 + Psi(w), with Psi(w) = sum zeta_n w^{s_n/s}, and
    z_* = x_*^s = w / lambda^s.  x F_x and F_yy do not change under
    x -> x e^{2 pi i/s}, so the members share lambda and kappa, and one
    evaluation at the representative classifies the orbit.  Roots mapping
    to infinity (lambda = 0) are dropped; the remaining count is checked
    against the degree of Q.  Sorted by modulus, then by arg x_*.

    Raises
    ------
    NoConvergence
        If fewer finite solutions survive residual filtering than the
        algebraic degree allows.
    """
    if p.is_zero():
        raise ValueError("characteristic system needs zeta != 0")
    s = p.leaf.s
    terms = [(zn, sn // s) for zn, sn in zip(p.zeta, p.leaf.exponents)
             if zn != 0]
    q = [(zn * (1 - m * s), m) for zn, m in terms]
    top = max(m for _, m in q)
    # Q coefficients, highest power first, for np.roots
    coeff = np.zeros(top + 1, dtype=np.complex128)
    coeff[-1] = 1.0
    for c, m in q:
        coeff[top - m] += c
    roots = np.roots(coeff)

    polished = []
    for w in roots:
        for _ in range(40):
            v = sum((c * w**m for c, m in q), 1.0 + 0.0j)
            dv = sum((c * m * w ** (m - 1) for c, m in q), 0.0j)
            if dv == 0:
                break
            step = v / dv
            w = w - step
            if abs(step) < 1e-15 * (1.0 + abs(w)):
                break
        polished.append(w)

    # cluster duplicates (multiple roots split by rounding), relative to
    # each root: with a tiny zeta_n the roots of Q span many decades
    kept_w: list[complex] = []
    for w in sorted(polished, key=lambda v: (abs(v), v.real, v.imag)):
        if all(abs(w - v) > CLUSTER_RADIUS * abs(w) for v in kept_w):
            kept_w.append(w)

    out = []
    at_infinity = 0
    for w in kept_w:
        lam = 1.0 + sum(zn * w**m for zn, m in terms)
        lam_scale = 1.0 + sum(abs(zn) * abs(w) ** m for zn, m in terms)
        if abs(lam) <= TOL_CHAR * lam_scale:
            at_infinity += 1
            continue
        # the representative, arg x_* = arg(z_*)/s in [0, 2 pi/s)
        modulus = abs(w) ** (1.0 / s) / abs(lam)
        z = w / lam**s
        x = cmath.rect(modulus, (cmath.phase(z) % (2.0 * math.pi)) / s)
        F, Fy, Fx, Fyy, scale = _char_derivs(p, x, lam)
        # relative to the size of F's and F_y's terms, which far orbits
        # (lam -> 0, |x_*| large) leave much larger than 1 + |lam|
        tol = TOL_CHAR * (1.0 + abs(lam) + sum(
            sn * abs(zn) * modulus**sn * abs(lam) ** (sn - 1)
            for zn, sn in zip(p.zeta, p.leaf.exponents)))
        if abs(F) > tol or abs(Fy) > tol:
            continue
        simple = abs(Fyy) > SIMPLE_TOL * scale
        fold_ok = abs(Fx) > SIMPLE_TOL * scale / max(modulus, 1e-300)
        # kappa^2 = 2 x F_x / F_yy, with x F_x = -lam read off F_y = 0:
        # summed, x F_x cancels to |lam| from terms of size ~1, which far
        # orbits (lam -> 0) would pass on to kappa as a relative error ~1/|lam|
        kappa = _kappa_branch(-2.0 * lam / Fyy) if simple else 0.0 + 0.0j
        out.append(CharPoint(x_star=x, lam=lam, kappa=kappa, modulus=modulus,
                             simple=simple, fold_ok=fold_ok))
    if len(out) + at_infinity < len(kept_w) or not out:
        raise NoConvergence(
            f"characteristic solve kept {len(out)} of {len(kept_w)} clustered "
            f"roots (degree {top} in w = u^{s}, {at_infinity} at infinity)"
        )
    out.sort(key=lambda c: (c.modulus, cmath.phase(c.x_star) % (2 * math.pi)))
    return out


@dataclass
class DominantData:
    """Dominant s-orbit of characteristic points with transfer amplitudes.

    The orbit is the least one whose square-root germ the continued
    Taylor branch meets (``dominant_data``); ``representative`` is its
    CharPoint, ``rho_star`` its exact characteristic modulus, and ``phi``
    = arg z_* (z_* = x_*^s) is shared by the whole orbit.  The same
    continuation gives kappa the sign the Taylor sheet realizes
    (U = lam + kappa*sqrt(1 - x/x_*) + ...), so the amplitudes
    A_p = -(s^{-1/2}/(2 sqrt(pi))) p kappa lam^{p-1} are asymptotically
    exact, not just up to phase; ``amplitude_A`` computes A_p from the
    representative's kappa and lam.  ``rank`` is the orbit's place among
    all orbits in order of modulus (0 = least) and ``gaps`` holds
    (m - rho_star)/rho_star for every other orbit, in that order: what a
    nearby point needs to inherit the certificate (``dominant_data``).
    """

    rho_star: float
    representative: CharPoint
    separation: float
    phi: float
    s: int
    rank: int
    gaps: tuple[float, ...]


def amplitude_A(s: int, kappa: complex, lam: complex, p: int) -> complex:
    """Transfer amplitude A_p = -(s^{-1/2} / (2 sqrt(pi))) p kappa lam^(p-1)."""
    return -(s**-0.5 / (2.0 * math.sqrt(math.pi))) * p * kappa * lam ** (p - 1)


def _ray_value(p: ParamPoint, x_star: complex) -> complex:
    """U(t x_*) at t = 1 - CERT_H, continued from U(0) = 1 along the ray.

    The path runs in r = sqrt(1 - t), from 1 down to sqrt(CERT_H): the
    branch is analytic in r even where x_* is its singularity, so the
    steps need not crowd toward it.  Each step predicts along the tangent
    dy/dr = 2 r x_* Fx/Fy and corrects by Newton's method at fixed r.  A
    step whose predictor fails the RAY_ALPHA test, or whose corrector has
    not converged in eight evaluations, halves; one that converged within
    three doubles the next.

    Raises
    ------
    NoDominantOrbit
        If the step falls below RAY_STEP_MIN.
    """
    r, y, dydr, dr = 1.0, 1.0 + 0.0j, 0.0j, 0.25
    end = math.sqrt(CERT_H)
    while r > end:
        r1 = max(r - dr, end)
        y1 = y + (r1 - r) * dydr
        for evals in range(1, 9):
            F, Fy, Fx, Fyy, _ = _char_derivs(p, (1.0 - r1 * r1) * x_star, y1)
            step = F / Fy
            if evals == 1 and abs(step * Fyy) > RAY_ALPHA * abs(Fy):
                break
            y1 -= step
            if abs(step) <= 1e-10 * (1.0 + abs(y1)):
                dr = (r - r1) * (2.0 if evals <= 3 else 1.0)
                r, y, dydr = r1, y1, 2.0 * r1 * x_star * Fx / Fy
                break
        if r > r1:  # rejected
            dr = 0.5 * (r - r1)
            if dr < RAY_STEP_MIN:
                raise NoDominantOrbit(
                    f"continuation toward x_*={x_star:.6g} stalled at "
                    f"t={1.0 - r * r:.6g}: the step fell below "
                    f"{RAY_STEP_MIN:g}")
    return y


def _inherited(orbits: list[CharPoint], near: DominantData):
    """(rank, kappa sign) of the orbit that continues ``near``'s, or None
    where its certificate cannot be carried over (``dominant_data``)."""
    if len(orbits) != len(near.gaps) + 1:
        return None
    ref, s = near.representative, near.s
    # match on z_* = x_*^s: unlike the representative, it does not change
    # member when the orbit's phase passes the sector boundary
    z_ref = ref.x_star**s
    rank = min(range(len(orbits)),
               key=lambda i: abs(orbits[i].x_star**s - z_ref))
    best = orbits[rank]
    # |dz/z| = s |dx/x| to first order
    if (rank != near.rank
            or abs(best.x_star**s - z_ref) > s * JUMP_MAX * abs(z_ref)
            or not best.simple
            or not all(c.simple and c.fold_ok for c in orbits[:rank])):
        return None
    rho = best.modulus
    gaps = [(c.modulus - rho) / rho for c in orbits if c is not best]
    for new, old in zip(gaps, near.gaps):
        if new * old <= 0.0 or abs(new) <= SEP_MIN:
            return None
        # on the bounded scale g/(1 + |g|) a near orbit must hold its gap,
        # while a far one may race away, or through infinity
        new, old = new / (1.0 + abs(new)), old / (1.0 + abs(old))
        if abs(new - old) >= 0.5 * min(abs(new), abs(old)):
            return None
    # the representative's canonical kappa against near's oriented one
    # decides the sign, as its ray would
    turn = best.kappa * ref.kappa.conjugate()
    cos = turn.real / abs(turn)
    if abs(cos) < 0.5:  # more than 60 degrees from either sign
        return None
    return rank, (1.0 if cos > 0.0 else -1.0)


def dominant_data(p: ParamPoint, *, points: list[CharPoint] | None = None,
                  near: DominantData | None = None) -> DominantData:
    """Identify the dominant orbit by continuing the Taylor branch to it.

    Takes the characteristic orbits in order of modulus and continues the
    branch along the ray to each representative x_* up to t = 1 - CERT_H
    (``_ray_value``).  The first orbit where
    w = (U - lam)/(kappa sqrt(CERT_H)) lies within CERT_TOL of +1 or -1 is
    dominant: the branch meets its germ lam +- kappa sqrt(1 - t), and every
    orbit of smaller modulus was shown to be off the sheet.  The sign of
    Re w orients kappa.  A non-simple orbit has no germ to compare: it is
    passed over where its ray ends far from its lam, and refused
    otherwise.  Another orbit within SEP_MIN (relative) of the dominant
    modulus is a tie, refused unless its ray rules it out in the same
    way; U is a series in x^s, so orbits at the same z_* = x_*^s share one
    ray.  ``separation`` is the relative gap to the next larger orbit.
    ``points`` passes in ``solve_characteristic(p)`` when the caller
    already has it.

    ``near`` is the certified data of a nearby point on the same parameter
    path.  Its certificate is inherited, and no ray runs, when the orbit
    whose z_* is nearest to ``near``'s moved by at most
    s * JUMP_MAX * |z_*|; it keeps its rank and the number of orbits is
    unchanged; every other orbit's signed relative gap g keeps its sign,
    stays above SEP_MIN and, on the scale g/(1 + |g|), changes by less
    than half its smaller size; the orbit is simple and every orbit below
    it is simple and fold_ok; and kappa lies within 60 degrees of +-
    ``near``'s kappa, whose sheet sign it takes by continuity.  Otherwise
    the rays run as without ``near``.  Inside its disc of convergence U is
    analytic, and F_y U' + F_x = 0 bars it from a characteristic point
    with F_y = 0 and F_x != 0, so dominance can pass to another orbit only
    where some orbit's modulus crosses the tracked one's, which the gap
    rule sees.

    Raises
    ------
    NoDominantOrbit
        No orbit is met, a non-simple candidate before the dominant one
        is not ruled out by its ray, the dominant orbit ties with another
        that the branch may meet, or a continuation stalls.
    """
    s = p.leaf.s
    orbits = solve_characteristic(p) if points is None else points
    rays: list[tuple[complex, complex]] = []  # (z_*, U) of each ray run

    def meets(c: CharPoint) -> float | None:
        # +-1: the branch meets the orbit, with that sign of kappa; 0.0: it
        # does not; None: a non-simple orbit its ray cannot rule out
        z = c.x_star**s
        u = next((u for z_ray, u in rays
                  if abs(z - z_ray) <= CLUSTER_RADIUS * abs(z_ray)), None)
        if u is None:
            u = _ray_value(p, complex(c.x_star))
            rays.append((z, u))
        if not c.simple:
            # where the branch meets a point, U(t x_*) - lam shrinks like
            # an m-th root of 1 - t (m = 2 at a simple point), so at
            # 1 - t = CERT_H it is down to CERT_H^(1/m) of its way from
            # U(0) = 1: 5% for a cube root, below half up to m = 13.  A
            # ray ending more than half of |lam - 1| from lam missed it
            return 0.0 if abs(u - c.lam) > 0.5 * abs(c.lam - 1.0) else None
        w = (u - c.lam) / (c.kappa * math.sqrt(CERT_H))
        sign = 1.0 if w.real >= 0 else -1.0
        return sign if abs(w - sign) <= CERT_TOL else 0.0

    inherited = None if near is None else _inherited(orbits, near)
    if inherited is not None:
        rank, sign = inherited
    else:
        for rank, c in enumerate(orbits):
            sign = meets(c)
            if sign is None:
                raise NoDominantOrbit(
                    f"characteristic point x_*={c.x_star:.6g} is not a "
                    f"simple square-root point; its germ cannot be compared")
            if sign:
                break
        else:
            raise NoDominantOrbit(
                f"the Taylor branch meets no characteristic orbit (moduli: "
                f"{[c.modulus for c in orbits]})")
    best = orbits[rank]
    rho = best.modulus
    others = [c for c in orbits if c is not best]
    gaps = tuple((c.modulus - rho) / rho for c in others)
    if any(abs(gap) <= SEP_MIN and meets(c) != 0.0
           for c, gap in zip(others, gaps)):
        raise NoDominantOrbit(
            f"two orbits share the dominant modulus {rho:.6g} within "
            f"SEP_MIN={SEP_MIN:g}")
    rep = replace(best, kappa=sign * best.kappa)
    separation = min((gap for gap in gaps if gap > 0.0), default=math.inf)
    return DominantData(
        rho_star=rho, representative=rep, separation=separation,
        phi=cmath.phase(rep.x_star**s), s=s, rank=rank, gaps=gaps,
    )


def critical_parameter(path, t_lo: float, t_hi: float,
                       steps: int = CRIT_STEPS,
                       xtol: float = CRIT_XTOL) -> float:
    """First downward crossing of rho_*(zeta(t)) = 1 on [t_lo, t_hi].

    ``path`` maps t to a ParamPoint, or to None for zeta = 0, whose
    branch is entire (rho_* - 1 = +inf there).  The dominant orbit is
    certified at the points of a uniform grid of ``steps`` steps in turn,
    each with the previous point's data as ``near`` (``dominant_data``),
    up to the first step over which rho_* - 1 falls from above 0 to 0 or
    below; a step from zeta = 0 is halved until rho_* - 1 is finite at its
    left end (``first_zero``).  ``brentq`` solves it there to ``xtol``,
    each iterate certified with the data at the step's first grid point as
    ``near``, so the result does not depend on the order of the iterates.
    Every rho_* read is a certified one: where orbits cross along the
    path, the certificate falls back to the rays and dominance may pass to
    another orbit.

    Raises
    ------
    NotBracketed
        rho_* - 1 is below 0 at t_lo, or does not fall to 0 on the
        interval.
    NoDominantOrbit
        A certification refuses a grid point or an iterate.
    """
    grid = np.linspace(t_lo, t_hi, steps + 1)
    chain = [None, None]  # data at the last two grid points certified
    vals = []

    def excess(t: float, near: DominantData | None):
        point = path(t)
        dom = None if point is None else dominant_data(point, near=near)
        return dom, (math.inf if dom is None else dom.rho_star - 1.0)

    def sample(j: int) -> float:
        dom, val = excess(float(grid[j]), chain[1])
        chain[:] = chain[1], dom
        vals.append(val)
        return val

    def on_step(j: int):
        left = chain[0]  # asked right after sample(j): grid[j - 1]'s data
        return lambda t: excess(t, left)[1]

    t = first_zero(sample, grid, on_step, xtol=xtol)
    if t is None or vals[0] < 0.0:
        raise NotBracketed(
            f"rho_* - 1 does not fall to 0 on [{t_lo:g}, {t_hi:g}] "
            f"(it is {vals[0]:.3e} at t={t_lo:g} and {vals[-1]:.3e} at "
            f"t={grid[len(vals) - 1]:g})")
    return t
