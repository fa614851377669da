"""Laplacian-growth evolution of exterior polynomial maps.

The maps f(w) = r w + sum_n a_n w^(1-s_n) evolve under fluid injection at
infinity.  Instead of time-stepping the boundary equation, each accepted
step solves the conserved-moment system: the area moment t_0 follows the
prescribed linear ramp (unit injection rate) while the higher contour
moments t_k on the leaf's active exponent set stay pinned at their initial
values.  A Newton iteration with a finite-difference Jacobian enforces the
system at every step, so conservation holds by construction rather than by
accumulation of small integration errors.

Threshold detection marches a trajectory driver in T while monitoring the
excess dominant-singularity modulus rho_*(zeta(T)) - 1 and the univalence
margin min_{|w|=1} |f'(w)|, then brackets and bisects the first zero of
each.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .branch_points import dominant_data, solve_characteristic
from .errors import QuadratureNotConverged, TrajectoryStalled, UnivalenceLost
from .series_engine import Leaf, ParamPoint

N_QUAD_DEFAULT = 512
QUAD_TOL = 1e-10
CONS_TOL = 1e-8
DT_MIN = 1e-9
T_TOL_DEFAULT = 1e-6

_CUSP_GRID = 2048
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TrajectoryState:
    """Snapshot of an evolving exterior map at injection time ``t``.

    ``moments`` holds (t_0, t_{s_1}, ..., t_{s_N}) as returned by
    :func:`harmonic_moments`; on the real-coefficient slice they are real
    up to quadrature roundoff.  ``univalence_margin`` is the minimum of
    |f'(w)| over the unit circle; the map is univalent while it stays
    positive.
    """

    leaf: Leaf
    t: float
    r: float
    a: tuple[complex, ...]
    moments: tuple[complex, ...]
    univalence_margin: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("conformal radius must stay positive")
        if len(self.a) != len(self.leaf.exponents):
            raise ValueError("one coefficient a_n per leaf exponent required")
        object.__setattr__(self, "a", tuple(complex(v) for v in self.a))
        object.__setattr__(self, "moments",
                           tuple(complex(v) for v in self.moments))

    @property
    def zeta(self) -> tuple[complex, ...]:
        """Reduced (scale-free) parameters a_n / r."""
        return tuple(an / self.r for an in self.a)

    @property
    def univalent(self) -> bool:
        return self.univalence_margin > 0.0

    def param_point(self) -> ParamPoint:
        return ParamPoint(self.leaf, self.zeta, r=self.r)


def _boundary_factors(r, a, leaf: Leaf, n: int):
    """f(w) and w f'(w) on the n-point uniform grid of the unit circle."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    f = r * w
    wfp = r * w
    for an, sn in zip(a, leaf.exponents):
        mono = an * w ** (1 - sn)
        f = f + mono
        wfp = wfp + (1 - sn) * mono
    return f, wfp


def _moments_at(r, a, leaf: Leaf, ks, n: int) -> np.ndarray:
    # z runs over the boundary as w = e^{i theta}; on |w| = 1 the
    # Schwarz reflection of z is literally conj(f(w)).
    f, wfp = _boundary_factors(r, a, leaf, n)
    g = np.conj(f) * wfp
    out = np.empty(1 + len(ks), dtype=np.complex128)
    out[0] = g.mean()
    for i, k in enumerate(ks, start=1):
        out[i] = np.mean(f ** (-k) * g) / k
    return out


def harmonic_moments(r: float, a: Sequence[complex], leaf: Leaf,
                     k_set=None, *, n_quad: int = N_QUAD_DEFAULT) -> np.ndarray:
    """Area moment t_0 and contour moments t_k by trapezoid quadrature.

    Evaluates t_0 = Area/pi = (1/2 pi i) oint conj(z) dz and
    t_k = (1/2 pi i k) oint z^{-k} conj(z) dz on the image of the unit
    circle.  The trapezoid rule on a periodic analytic integrand is
    spectrally accurate, so the result at ``n_quad`` nodes is checked
    against the doubled grid and must agree to ``QUAD_TOL`` relative.

    ``k_set`` defaults to the leaf's exponent set, the generically
    nonvanishing moments of the ansatz.  Returns the refined values as a
    complex array [t_0, t_k...] with k ascending.
    """
    ks = leaf.exponents if k_set is None else tuple(sorted(int(k) for k in k_set))
    if any(k < 1 for k in ks):
        raise ValueError("contour moment indices must be >= 1")
    a = tuple(complex(v) for v in a)
    coarse = _moments_at(r, a, leaf, ks, n_quad)
    fine = _moments_at(r, a, leaf, ks, 2 * n_quad)
    err = np.abs(fine - coarse) / (1.0 + np.abs(fine))
    if np.max(err) > QUAD_TOL:
        raise QuadratureNotConverged(
            f"moment quadrature changed by {np.max(err):.3e} on doubling "
            f"{n_quad} -> {2 * n_quad} nodes")
    return fine


def _abs_fprime(r, a, leaf: Leaf, w):
    fp = r + np.zeros_like(w)
    for an, sn in zip(a, leaf.exponents):
        fp = fp + (1 - sn) * an * w ** (-sn)
    return np.abs(fp)


def _golden_min(fun, lo: float, hi: float, iters: int = 48) -> float:
    # Golden-section shrink.  |f'| is not differentiable at a zero, so a
    # derivative-free bracketing search is the right tool near a cusp.
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


def _fprime_root_moduli(r: float, a, leaf: Leaf) -> np.ndarray:
    # Zeros of f' in w, from the polynomial w^{s_N} f'(w) / r.  They sit
    # inside the unit disk while the map is univalent and cross outward
    # at a cusp.
    s_top = leaf.exponents[-1]
    coeffs = np.zeros(s_top + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    for an, sn in zip(a, leaf.exponents):
        coeffs[sn] -= (sn - 1) * (an / r)
    roots = np.roots(coeffs)
    return np.abs(roots) if roots.size else np.zeros(1)


def univalence_margin(r: float, a: Sequence[complex], leaf: Leaf,
                      *, n_grid: int = _CUSP_GRID) -> float:
    """Signed cusp margin of the boundary curve.

    The magnitude is min over |w| = 1 of |f'(w)| (coarse minimum on an
    ``n_grid``-point circle grid, refined by local golden-section around
    the best cell).  The sign tracks univalence through the typical
    breakdown f'(w) = 0 on |w| = 1: positive while every zero of f' stays
    inside the unit disk, negative once one has crossed outside.  A plain
    modulus would touch zero at the cusp and rise again, so this signed
    version is what makes the first loss of univalence a bracketable sign
    change.
    """
    a = tuple(complex(v) for v in a)
    theta = 2.0 * np.pi * np.arange(n_grid) / n_grid
    vals = _abs_fprime(r, a, leaf, np.exp(1j * theta))
    i = int(np.argmin(vals))
    step = 2.0 * np.pi / n_grid
    refined = _golden_min(
        lambda th: float(_abs_fprime(r, a, leaf, np.exp(1j * th))),
        theta[i] - step, theta[i] + step)
    mag = min(float(vals[i]), refined)
    if np.all(_fprime_root_moduli(r, a, leaf) < 1.0):
        return mag
    return -mag


def initial_state(point: ParamPoint, *,
                  n_quad: int = N_QUAD_DEFAULT) -> TrajectoryState:
    """Trajectory state at T = 0 for the given reduced parameters.

    Uses ``point.r`` as the conformal radius (default 1) and sets
    a_n = zeta_n * r.
    """
    r = point.r if point.r is not None else 1.0
    a = tuple(z * r for z in point.zeta)
    moms = harmonic_moments(r, a, point.leaf, n_quad=n_quad)
    return TrajectoryState(point.leaf, 0.0, r, a, tuple(moms),
                           univalence_margin(r, a, point.leaf))


def _require_real_slice(a) -> None:
    if any(abs(complex(v).imag) > 1e-12 * (1.0 + abs(complex(v))) for v in a):
        raise ValueError(
            "the default moment solver works on the real-coefficient slice; "
            "complex slices need a declared phase gauge")


def _moment_residual(leaf: Leaf, v: np.ndarray, targets: np.ndarray,
                     n_quad: int) -> np.ndarray:
    m = _moments_at(float(v[0]), tuple(v[1:]), leaf, leaf.exponents, n_quad)
    return m.real - targets


def _newton_moments(leaf: Leaf, targets: np.ndarray, seed: np.ndarray,
                    *, n_quad: int, max_iter: int = 30):
    """Solve the real-slice moment system for v = (r, a_1..a_N).

    Returns the solution vector, or None when the iteration fails (the
    caller then halves its step).  Converges well past the acceptance
    threshold whenever Newton contracts at all.
    """
    scale = 1.0 + np.abs(targets)
    v = np.array(seed, dtype=float)
    if v[0] <= 0.0:
        return None
    res = _moment_residual(leaf, v, targets, n_quad)
    for _ in range(max_iter):
        if np.max(np.abs(res) / scale) < 1e-12:
            return v
        jac = np.empty((v.size, v.size))
        for j in range(v.size):
            h = 1e-7 * (1.0 + abs(v[j]))
            vp = v.copy()
            vp[j] += h
            jac[:, j] = (_moment_residual(leaf, vp, targets, n_quad) - res) / h
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return None
        v = v - step
        if not np.all(np.isfinite(v)) or v[0] <= 0.0:
            return None
        res = _moment_residual(leaf, v, targets, n_quad)
    if np.all(np.isfinite(res)) and np.max(np.abs(res) / scale) < CONS_TOL:
        return v
    return None


def _march(leaf: Leaf, v: np.ndarray, t_cur: float, t_target: float,
           ramp, tk_fixed: np.ndarray, *, n_quad: int,
           dt_min: float = DT_MIN) -> np.ndarray:
    """Advance the real-slice solution vector from t_cur to t_target.

    The t_0 target is the linear ramp anchored at ``ramp = (t_ref,
    t0_ref)``; the higher moments stay at ``tk_fixed``.  Failed Newton
    solves halve the sub-step; the floor ``dt_min`` raises
    TrajectoryStalled.
    """
    t_ref, t0_ref = ramp
    h = t_target - t_cur
    while t_cur < t_target - 1e-15 * max(1.0, abs(t_target)):
        rem = t_target - t_cur
        if h >= rem:
            h, t_next = rem, t_target
        else:
            t_next = t_cur + h
        targets = np.concatenate(([t0_ref + (t_next - t_ref)], tk_fixed))
        sol = _newton_moments(leaf, targets, v, n_quad=n_quad)
        if sol is None:
            h *= 0.5
            if h < dt_min:
                raise TrajectoryStalled(
                    f"moment-step size fell below {dt_min:g} at T = {t_cur:.9g}")
            continue
        v, t_cur = sol, t_next
        h *= 2.0
    return v


def _checked_state(leaf: Leaf, t: float, v: np.ndarray,
                   n_quad: int) -> TrajectoryState:
    # Recompute the accepted point's moments with the doubling check, so
    # every recorded state carries independently verified values.
    r = float(v[0])
    a = tuple(float(x) for x in v[1:])
    moms = harmonic_moments(r, a, leaf, n_quad=n_quad)
    return TrajectoryState(leaf, t, r, a, tuple(moms),
                           univalence_margin(r, a, leaf))


def evolve(initial: TrajectoryState, dT: float, steps: int, *,
           n_quad: int = N_QUAD_DEFAULT,
           dt_min: float = DT_MIN) -> list[TrajectoryState]:
    """Evolve ``initial`` through ``steps`` uniform injection steps of ``dT``.

    Returns the trajectory [initial, state(T0+dT), ..., state(T0+steps*dT)].
    Each recorded state sits exactly on the area ramp t_0(T) = t_0(T0) +
    (T - T0); sub-steps between grid points are refined adaptively.

    Raises TrajectoryStalled when step halving hits ``dt_min`` and
    UnivalenceLost when a recorded state's margin is nonpositive; the
    exception's ``states`` attribute carries the trajectory up to and
    including the flagged state.
    """
    if dT < 0:
        raise ValueError("suction (dT < 0) is outside the injection model")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    _require_real_slice(initial.a)
    states = [initial]
    if not initial.univalent:
        raise UnivalenceLost("initial map is not univalent", states=states)
    leaf = initial.leaf
    ramp = (initial.t, initial.moments[0].real)
    tk_fixed = np.array([m.real for m in initial.moments[1:]])
    v = np.array([initial.r] + [an.real for an in initial.a])
    t_cur = initial.t
    for i in range(1, steps + 1):
        t_next = initial.t + i * dT
        v = _march(leaf, v, t_cur, t_next, ramp, tk_fixed,
                   n_quad=n_quad, dt_min=dt_min)
        t_cur = t_next
        st = _checked_state(leaf, t_next, v, n_quad)
        states.append(st)
        if not st.univalent:
            raise UnivalenceLost(
                f"univalence lost at T = {t_next:.9g}", states=states)
    return states


class MomentDriver:
    """Conservation-driven trajectory with random access in T.

    ``state(T)`` Newton-solves the moment system at the requested time,
    seeding from the nearest previously accepted state, and caches the
    result.  This gives threshold bisection cheap repeated evaluation
    without a fixed step grid.
    """

    def __init__(self, initial: TrajectoryState, *,
                 n_quad: int = N_QUAD_DEFAULT, dt_min: float = DT_MIN):
        _require_real_slice(initial.a)
        if not initial.univalent:
            raise UnivalenceLost("initial map is not univalent",
                                 states=[initial])
        self.leaf = initial.leaf
        self.initial = initial
        self._n_quad = n_quad
        self._dt_min = dt_min
        self._ramp = (initial.t, initial.moments[0].real)
        self._tk = np.array([m.real for m in initial.moments[1:]])
        self._ts = [initial.t]
        self._states = [initial]

    def state(self, t: float) -> TrajectoryState:
        t = float(t)
        if t < self.initial.t - 1e-12:
            raise ValueError("cannot run the injection trajectory backwards")
        i = bisect.bisect_right(self._ts, t) - 1
        seed = self._states[max(i, 0)]
        if abs(seed.t - t) <= 1e-15 * max(1.0, abs(t)):
            return seed
        v = np.array([seed.r] + [an.real for an in seed.a])
        v = _march(self.leaf, v, seed.t, t, self._ramp, self._tk,
                   n_quad=self._n_quad, dt_min=self._dt_min)
        st = _checked_state(self.leaf, t, v, self._n_quad)
        j = bisect.bisect_left(self._ts, t)
        self._ts.insert(j, t)
        self._states.insert(j, st)
        return st

    def trajectory(self) -> list[TrajectoryState]:
        """All states accepted so far, ascending in T."""
        return list(self._states)


class SliceDriver:
    """Prescribed parameter slice zeta(T), optionally with a radius law.

    ``zeta_of_t`` may return a scalar (one-mode leaves) or a sequence.
    Without ``r_of_t`` the conformal radius is held at 1, so coefficients
    equal the reduced parameters.

    The moments on a prescribed slice are diagnostics, not constraints.
    Near a cusp the boundary approaches z = 0 and their quadrature slows
    down, so the driver escalates the node count a few times and then
    records NaN instead of blocking threshold detection; the univalence
    margin itself is unaffected.
    """

    def __init__(self, leaf: Leaf, zeta_of_t: Callable, r_of_t=None, *,
                 n_quad: int = N_QUAD_DEFAULT):
        self.leaf = leaf
        self._zeta = zeta_of_t
        self._r = r_of_t
        self._n_quad = n_quad

    def state(self, t: float) -> TrajectoryState:
        t = float(t)
        r = float(self._r(t)) if self._r is not None else 1.0
        z = self._zeta(t)
        if np.isscalar(z) or isinstance(z, complex):
            z = (z,)
        zt = tuple(complex(v) for v in z)
        a = tuple(v * r for v in zt)
        moms = None
        n = self._n_quad
        for _ in range(5):
            try:
                moms = harmonic_moments(r, a, self.leaf, n_quad=n)
                break
            except QuadratureNotConverged:
                n *= 2
        if moms is None:
            moms = np.full(1 + len(self.leaf.exponents), complex("nan+nanj"))
        return TrajectoryState(self.leaf, t, r, a, tuple(moms),
                               univalence_margin(r, a, self.leaf))


def radius_excess(state: TrajectoryState, *, order: int = 200,
                  validate_below: float = 4.0) -> float:
    """rho_*(zeta) - 1 for the state's reduced parameters.

    The circle (zeta = 0, up to solver roundoff) has an entire branch,
    reported as +inf.  Deeply subcritical points — smallest
    characteristic modulus above ``validate_below`` — return the plain
    characteristic minimum, which is all a monotone threshold monitor
    needs there; closer to the threshold the fully validated dominant
    modulus is used.
    """
    point = state.param_point()
    if max(abs(z) for z in point.zeta) < 1e-12:
        return math.inf
    points = solve_characteristic(point)
    rho_min = min(cp.modulus for cp in points)
    if rho_min > validate_below:
        return rho_min - 1.0
    return dominant_data(point, order, points=points).rho_star - 1.0


@dataclass(frozen=True)
class ThresholdReport:
    """First-crossing times of the spectral and geometric thresholds.

    ``t_c``: first zero of rho_*(zeta(T)) - 1 (None if not reached).
    ``t_univ``: first zero of the univalence margin (None if not reached).
    ``margin_at_tc``: univalence margin evaluated at t_c.
    ``separated``: True when the margin at t_c is strictly positive and
    any detected t_univ lies after t_c, i.e. the spectral threshold
    precedes geometric breakdown.
    """

    t_c: float | None
    t_univ: float | None
    margin_at_tc: float | None
    separated: bool | None


def _first_zero(fun, grid, vals, xtol):
    if math.isfinite(vals[0]) and vals[0] <= 0.0:
        return float(grid[0])
    for j in range(1, len(vals)):
        vlo, vhi = vals[j - 1], vals[j]
        if not (math.isfinite(vlo) and math.isfinite(vhi)):
            continue
        if vhi == 0.0:
            return float(grid[j])
        if vlo > 0.0 > vhi:
            return float(brentq(fun, float(grid[j - 1]), float(grid[j]),
                                xtol=xtol))
    return None


def detect_thresholds(driver, t_max: float, *, order: int = 200,
                      coarse: int = 64,
                      t_tol: float = T_TOL_DEFAULT) -> ThresholdReport:
    """Locate the first spectral (t_c) and geometric (t_univ) thresholds.

    Marches ``driver.state`` over [0, t_max] on a coarse grid, then
    brackets and bisects the first sign change of g(T) = rho_* - 1 and of
    the univalence margin.  Bisection resolves the crossing times well
    inside ``t_tol``.  Thresholds not reached by ``t_max`` come back as
    None.
    """
    grid = np.linspace(0.0, float(t_max), coarse + 1)
    g_vals = []
    u_vals = []
    for t in grid:
        st = driver.state(float(t))
        u_vals.append(st.univalence_margin)
        g_vals.append(radius_excess(st, order=order))
    xtol = 0.01 * t_tol
    t_c = _first_zero(lambda t: radius_excess(driver.state(t), order=order),
                      grid, g_vals, xtol)
    t_univ = _first_zero(lambda t: driver.state(t).univalence_margin,
                         grid, u_vals, xtol)
    margin = driver.state(t_c).univalence_margin if t_c is not None else None
    separated = None
    if t_c is not None:
        separated = margin > 0.0 and (t_univ is None or t_univ > t_c)
    return ThresholdReport(t_c, t_univ, margin, separated)


def approach_path(driver, t_c: float):
    """Parameter path delta -> zeta(t_c - delta) for near-critical scans.

    Adapts a trajectory driver to the path convention of the spectral
    scanner, with delta = t_c - T the time remaining to the threshold.
    """
    def path(delta: float) -> ParamPoint:
        return driver.state(t_c - float(delta)).param_point()
    return path
