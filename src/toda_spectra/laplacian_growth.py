"""Laplacian-growth evolution of exterior polynomial maps.

The maps f(w) = r w + sum_n a_n w^(1-s_n) evolve under fluid injection at
infinity.  Instead of time-stepping the boundary equation, each accepted
step solves the conserved-moment system: the area moment t_0 follows the
prescribed linear ramp (unit injection rate) while the higher contour
moments t_k on the leaf's active exponent set stay pinned at their initial
values.  On the real slice each moment is a finite residue sum in
(r, a_n), so a Newton iteration on those sums, with their exact Jacobian
by complex step, enforces the system at every step, and conservation
holds by construction rather than by accumulation of small integration
errors.  Every recorded state's moments are recomputed by quadrature and
checked against the targets the state was solved for.

Threshold detection finds the first crossing of rho_*(zeta(T)) = 1 by
the certified solver ``branch_points.critical_parameter`` on a trajectory
driver's probes, and the first zero of the univalence margin
min_{|w|=1} |f'(w)| on the same probe times.  The margin is a grid
minimum refined by safeguarded Newton on the smooth |f'|^2, its sign a
Schur-Cohn test on the zeros of f', and every circle grid with its
monomials w^p is built once per (node count, powers) and then shared.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._brent import first_zero
from .branch_points import DominantData, critical_parameter, dominant_data
from .errors import (MomentMismatch, NotBracketed, QuadratureNotConverged,
                     TrajectoryStalled, UnivalenceLost)
from .series_engine import Leaf, ParamPoint

N_QUAD_DEFAULT = 512
QUAD_TOL = 1e-10
CONS_TOL = 1e-8
DT_MIN = 1e-9
# brentq step tolerance on threshold times, 1% of their 1e-6 target
T_XTOL = 1e-8
# steps of detect_thresholds' bracketing grid over [0, t_max]
DETECT_STEPS = 64

# coarse circle grid of univalence_margin, refined around its best cell
_CUSP_GRID = 2048
# iteration cap of the margin's safeguarded Newton: 2 to 4 steps are
# typical, and bisection alone shrinks the bracket to rounding in about 45
_NEWTON_MAX = 60
# complex step of the moment Jacobian: the derivative is Im(F(v + ih))/h,
# free of cancellation, and its O(h^2) error is far below rounding
_CSTEP = 1e-20


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


@functools.lru_cache(maxsize=None)
def _circle_powers(n: int, powers: tuple[int, ...]):
    """Nodes w = exp(2 pi i k / n) and the monomials w**p, one per power.

    Cached per (n, powers) and read-only, since every caller shares them.
    """
    w = np.exp(2j * np.pi * np.arange(n) / n)
    monos = tuple(w ** p for p in powers)
    for arr in (w,) + monos:
        arr.flags.writeable = False
    return w, monos


def _boundary_factors(r, a, leaf: Leaf, n: int):
    """f(w) and w f'(w) on the n-point uniform grid of the unit circle."""
    w, monos = _circle_powers(n, tuple(1 - sn for sn in leaf.exponents))
    f = r * w
    wfp = r * w
    for an, sn, wp in zip(a, leaf.exponents, monos):
        mono = an * wp
        f = f + mono
        wfp = wfp + (1 - sn) * mono
    return f, wfp


def _integrands(r, a, leaf: Leaf, ks, n: int) -> np.ndarray:
    # Rows conj(f) w f' and then f^{-k} conj(f) w f' on the n nodes: z
    # runs over the boundary as w = e^{i theta}, and on |w| = 1 the
    # Schwarz reflection of z is literally conj(f(w)).
    f, wfp = _boundary_factors(r, a, leaf, n)
    g = np.conj(f) * wfp
    rows = np.empty((1 + len(ks), n), dtype=np.complex128)
    rows[0] = g
    for i, k in enumerate(ks, start=1):
        rows[i] = f ** (-k) * g
    return rows


def _row_means(rows: np.ndarray, ks) -> np.ndarray:
    out = np.empty(len(rows), dtype=np.complex128)
    out[0] = rows[0].mean()
    for i, k in enumerate(ks, start=1):
        out[i] = rows[i].mean() / k
    return out


def harmonic_moments(r: float, a: Sequence[complex], leaf: Leaf,
                     *, n_quad: int = N_QUAD_DEFAULT) -> np.ndarray:
    """Area moment t_0 and contour moments t_k by trapezoid quadrature.

    Evaluates t_0 = Area/pi = (1/2 pi i) oint conj(z) dz and
    t_k = (1/2 pi i k) oint z^{-k} conj(z) dz on the image of the unit
    circle.  The trapezoid rule on a periodic analytic integrand is
    spectrally accurate, so the result at ``n_quad`` nodes is checked
    against the doubled grid and must agree to ``QUAD_TOL`` relative.
    The integrands are evaluated once, on the doubled grid; its even
    nodes are the ``n_quad``-node grid to the bit.

    The moments taken are those of the leaf's exponent set, the
    generically nonvanishing moments of the ansatz.  Returns the refined
    values as a complex array [t_0, t_k...] with k ascending.
    """
    ks = leaf.exponents
    a = tuple(complex(v) for v in a)
    rows = _integrands(r, a, leaf, ks, 2 * n_quad)
    # contiguous copy, so each mean sums in the order of an n_quad-node grid
    coarse = _row_means(np.ascontiguousarray(rows[:, ::2]), ks)
    fine = _row_means(rows, ks)
    err = np.abs(fine - coarse) / (1.0 + np.abs(fine))
    if np.max(err) > QUAD_TOL:
        raise QuadratureNotConverged(
            f"moment quadrature changed by {np.max(err):.3e} on doubling "
            f"{n_quad} -> {2 * n_quad} nodes")
    return fine


def _refine_min(r: float, terms, theta: float, step: float) -> float:
    """|f'(e^{i theta})| at the local minimum of P = |f'|^2 within one step.

    f'(e^{i theta}) = r + sum_n c_n e^{-i s_n theta} over ``terms`` =
    ((c_n, s_n), ...).  |f'| is V-shaped where it touches zero, but P is
    smooth, with P'' = 2 |d f'/d theta|^2 > 0 there, so Newton on P' = 0
    converges quadratically right up to a cusp.  The bracket
    [theta - step, theta + step] shrinks on the sign of P'; a step that
    would leave it, or meets P'' <= 0, is a bisection.
    Newton stops once its step is at the rounding level of theta or the
    decrease of P it predicts is at that of P.
    """
    lo, hi = theta - step, theta + step
    for _ in range(_NEWTON_MAX):
        z = cmath.exp(-1j * theta)
        fp, d1, d2 = complex(r), 0j, 0j
        for cn, sn in terms:
            e = cn * z ** sn
            fp += e
            d1 -= 1j * sn * e
            d2 -= sn * sn * e
        # half of P' and of P''
        dp = (fp.conjugate() * d1).real
        ddp = abs(d1) ** 2 + (fp.conjugate() * d2).real
        if dp == 0.0:
            break
        if dp > 0.0:
            hi = theta
        else:
            lo = theta
        if ddp > 0.0:
            nxt = theta - dp / ddp
            if (abs(nxt - theta) <= 1e-15 * (1.0 + abs(theta))
                    or dp * dp <= 1e-16 * ddp * abs(fp) ** 2):
                theta = nxt
                break
            if lo < nxt < hi:
                theta = nxt
                continue
        theta = 0.5 * (lo + hi)
    z = cmath.exp(-1j * theta)
    return abs(r + sum(cn * z ** sn for cn, sn in terms))


def _zeros_inside(c) -> bool:
    """Whether every zero of the monic polynomial sum_i c_i w^i has |w| < 1.

    ``c`` ascends and ends in 1.  Schur-Cohn: if |c_0| >= 1 the zeros'
    product already has modulus >= 1; otherwise, since |p*| = |p| on the
    unit circle for p*(w) = w^d conj(p(1/conj w)), Rouche gives
    (p - c_0 p*)/w exactly one zero fewer inside than p, and that degree
    d - 1 polynomial, made monic, carries the test on.  O(d^2) operations.
    """
    while len(c) > 1:
        c0 = c[0]
        lead = 1.0 - abs(c0) ** 2
        if lead <= 0.0:
            return False
        d = len(c) - 1
        c = [(c[i + 1] - c0 * c[d - 1 - i].conjugate()) / lead
             for i in range(d)]
    return True


def univalence_margin(r: float, a: Sequence[complex], leaf: Leaf) -> float:
    """Signed cusp margin of the boundary curve.

    The magnitude is min over |w| = 1 of |f'(w)|: the coarse minimum on the
    cached _CUSP_GRID-point circle grid, refined by safeguarded Newton on
    the smooth |f'|^2 within one grid step of the best node.  The sign
    tracks univalence through the typical breakdown f'(w) = 0 on |w| = 1:
    positive while every zero of f' stays inside the unit disk (a
    Schur-Cohn test, :func:`_zeros_inside`), negative once one has crossed
    outside.  A plain modulus would touch zero at the cusp and rise again,
    so this signed version is what makes the first loss of univalence a
    bracketable sign change.
    """
    a = tuple(complex(v) for v in a)
    terms = tuple(((1 - sn) * an, sn) for an, sn in zip(a, leaf.exponents))
    _, monos = _circle_powers(_CUSP_GRID, tuple(-sn for sn in leaf.exponents))
    fp = np.full(_CUSP_GRID, complex(r))
    for (cn, _), wp in zip(terms, monos):
        fp += cn * wp
    vals = np.abs(fp)
    i = int(np.argmin(vals))
    step = 2.0 * np.pi / _CUSP_GRID
    refined = _refine_min(r, terms, i * step, step)
    mag = min(float(vals[i]), refined)
    # zeros of f' in w are those of w^{s_N} f'(w) / r; they sit inside the
    # unit disk while the map is univalent and cross outward at a cusp
    s_top = leaf.exponents[-1]
    coeffs = [0j] * s_top + [1.0]
    for an, sn in zip(a, leaf.exponents):
        coeffs[s_top - sn] -= (sn - 1) * (an / r)
    return mag if _zeros_inside(coeffs) else -mag


def initial_state(point: ParamPoint) -> TrajectoryState:
    """Trajectory state at T = 0 for the given reduced parameters.

    Uses ``point.r`` as the conformal radius (default 1) and sets
    a_n = zeta_n * r.
    """
    r = point.r if point.r is not None else 1.0
    a = tuple(z * r for z in point.zeta)
    moms = harmonic_moments(r, a, point.leaf)
    return TrajectoryState(point.leaf, 0.0, r, a, tuple(moms),
                           univalence_margin(r, a, point.leaf))


def _require_real_slice(a) -> None:
    if any(abs(complex(v).imag) > 1e-12 * (1.0 + abs(complex(v))) for v in a):
        raise ValueError(
            "the default moment solver works on the real-coefficient slice; "
            "complex slices need a declared phase gauge")


def _residue_moments(leaf: Leaf, v) -> list:
    """[t_0, t_k...] at v = (r, a_1..a_N) on the real slice, as residue sums.

    With real a_n, conj f(w) = f(1/w) on |w| = 1, so each moment integrand
    is a Laurent series in x = 1/w and its mean is a constant term:
    t_0 = r^2 - sum (s_n - 1) a_n^2 and
    t_k = (r^(2-k) / k) sum_{s_n >= k} zeta_n [x^(s_n-k)] (B^-k D), where
    zeta_n = a_n / r, f = r w B with B = 1 + sum zeta_n x^s_n, and
    w f' = r w D with D = 1 + sum (1 - s_n) zeta_n x^s_n.  B^-k comes from
    Miller's recurrence i p_i = sum_n ((1 - k) s_n - i) zeta_n p_(i-s_n).
    These equal the contour integrals of :func:`harmonic_moments` only
    while f has no zero on |w| >= 1.  Every operation is holomorphic, so a
    complex entry of ``v`` yields the complex-step derivative.
    """
    r, a = v[0], v[1:]
    exps = leaf.exponents
    zeta = [an / r for an in a]
    out = [r * r - sum((sn - 1) * an * an for sn, an in zip(exps, a))]
    for k in exps:
        p = [1.0] + [0.0] * (exps[-1] - k)
        for i in range(1, len(p)):
            acc = 0.0
            for sn, zn in zip(exps, zeta):
                if sn > i:
                    break
                acc += ((1 - k) * sn - i) * zn * p[i - sn]
            p[i] = acc / i
        tk = 0.0
        for sn, zn in zip(exps, zeta):
            if sn < k:
                continue
            i = sn - k
            coef = p[i]
            for sm, zm in zip(exps, zeta):
                if sm > i:
                    break
                coef += (1 - sm) * zm * p[i - sm]
            tk += zn * coef
        out.append(r ** (2 - k) * tk / k)
    return out


def _moment_residual(leaf: Leaf, v: np.ndarray,
                     targets: np.ndarray) -> np.ndarray:
    return np.array(_residue_moments(leaf, v.tolist())) - targets


def _moment_jacobian(leaf: Leaf, v: np.ndarray) -> np.ndarray:
    """d[t_0, t_k...]/dv of the residue sums, column j by a complex step."""
    base = v.tolist()
    jac = np.empty((v.size, v.size))
    for j in range(v.size):
        vj = list(base)
        vj[j] = complex(base[j], _CSTEP)
        jac[:, j] = [m.imag / _CSTEP for m in _residue_moments(leaf, vj)]
    return jac


def _newton_moments(leaf: Leaf, targets: np.ndarray, seed: np.ndarray):
    """Solve the real-slice moment system for v = (r, a_1..a_N).

    Returns the solution vector, or None when the iteration fails (the
    caller then halves its step).  Converges well past the acceptance
    threshold whenever Newton contracts at all.
    """
    scale = 1.0 + np.abs(targets)
    v = np.array(seed, dtype=float)
    if v[0] <= 0.0:
        return None
    res = _moment_residual(leaf, v, targets)
    for _ in range(30):
        if np.max(np.abs(res) / scale) < 1e-12:
            return v
        try:
            step = np.linalg.solve(_moment_jacobian(leaf, v), res)
        except np.linalg.LinAlgError:
            return None
        v = v - step
        if not np.all(np.isfinite(v)) or v[0] <= 0.0:
            return None
        res = _moment_residual(leaf, v, targets)
    if np.all(np.isfinite(res)) and np.max(np.abs(res) / scale) < CONS_TOL:
        return v
    return None


def _march(leaf: Leaf, v: np.ndarray, t_cur: float, t_target: float,
           targets_at: Callable[[float], np.ndarray]) -> np.ndarray:
    """Advance the real-slice solution vector from t_cur to t_target.

    ``targets_at(t)`` gives the moment targets at time t.  Failed Newton
    solves halve the sub-step; the floor ``DT_MIN`` raises
    TrajectoryStalled.
    """
    h = t_target - t_cur
    while t_cur < t_target - 1e-15 * max(1.0, abs(t_target)):
        rem = t_target - t_cur
        if h >= rem:
            h, t_next = rem, t_target
        else:
            t_next = t_cur + h
        sol = _newton_moments(leaf, targets_at(t_next), v)
        if sol is None:
            h *= 0.5
            if h < DT_MIN:
                raise TrajectoryStalled(
                    f"moment-step size fell below {DT_MIN:g} at T = {t_cur:.9g}")
            continue
        v, t_cur = sol, t_next
        h *= 2.0
    return v


def _checked_state(leaf: Leaf, t: float, v: np.ndarray,
                   targets: np.ndarray) -> TrajectoryState:
    # Recompute the accepted point's moments by quadrature with its
    # doubling check, so every recorded state carries independently
    # verified values, and hold them to the targets the residue sums were
    # solved for: the two part ways once f has a zero on |w| >= 1.
    r = float(v[0])
    a = tuple(float(x) for x in v[1:])
    moms = harmonic_moments(r, a, leaf)
    err = np.max(np.abs(moms - targets) / (1.0 + np.abs(targets)))
    if not err <= CONS_TOL:
        raise MomentMismatch(
            f"quadrature moments at T = {t:.9g} differ from the residue-sum "
            f"targets by {err:.3e} relative")
    return TrajectoryState(leaf, t, r, a, tuple(moms),
                           univalence_margin(r, a, leaf))


class MomentDriver:
    """Conservation-driven trajectory with random access in T.

    ``state(T)`` Newton-solves the moment system at the requested time,
    seeding from the nearest previously accepted state, and caches the
    result.  This gives threshold bisection cheap repeated evaluation
    without a fixed step grid.  The t_0 ramp and the pinned t_k come from
    ``initial``, which must lie on the real-coefficient slice.

    Raises UnivalenceLost when ``initial`` is not univalent; ``state``
    raises TrajectoryStalled when step halving falls below ``DT_MIN``.
    """

    def __init__(self, initial: TrajectoryState):
        _require_real_slice(initial.a)
        if not initial.univalent:
            raise UnivalenceLost("initial map is not univalent")
        self.leaf = initial.leaf
        self.initial = initial
        self._ramp = (initial.t, initial.moments[0].real)
        self._tk = [m.real for m in initial.moments[1:]]
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
        v = _march(self.leaf, v, seed.t, t, self._targets)
        st = _checked_state(self.leaf, t, v, self._targets(t))
        j = bisect.bisect_left(self._ts, t)
        self._ts.insert(j, t)
        self._states.insert(j, st)
        return st

    def probe(self, t: float) -> TrajectoryState:
        """``state(t)``: the accepted state is already cached and checked."""
        return self.state(t)

    def _targets(self, t: float) -> np.ndarray:
        # t_0 on the unit-rate ramp through the initial state, t_k pinned
        t_ref, t0_ref = self._ramp
        return np.array([t0_ref + (t - t_ref)] + self._tk)


class SliceDriver:
    """Prescribed parameter slice zeta(T) at conformal radius 1.

    ``zeta_of_t`` may return a scalar (one-mode leaves) or a sequence; at
    r = 1 the coefficients equal the reduced parameters.

    The moments on a prescribed slice are diagnostics, not constraints.
    Near a cusp the boundary approaches z = 0 and their quadrature slows
    down, so the driver escalates the node count a few times and then
    records NaN instead of blocking threshold detection; the univalence
    margin itself is unaffected.  ``probe(t)`` skips the quadrature
    altogether.
    """

    def __init__(self, leaf: Leaf, zeta_of_t: Callable):
        self.leaf = leaf
        self._zeta = zeta_of_t

    def _coefficients(self, t: float) -> tuple[complex, ...]:
        z = self._zeta(t)
        if np.isscalar(z) or isinstance(z, complex):
            z = (z,)
        return tuple(complex(v) for v in z)

    def probe(self, t: float) -> TrajectoryState:
        """The state at T = t without its moments (NaN): threshold
        detection reads only zeta(T) and the univalence margin, so the
        quadrature that recorded states print is skipped."""
        t = float(t)
        a = self._coefficients(t)
        moms = (complex("nan+nanj"),) * (1 + len(self.leaf.exponents))
        return TrajectoryState(self.leaf, t, 1.0, a, moms,
                               univalence_margin(1.0, a, self.leaf))

    def state(self, t: float) -> TrajectoryState:
        t = float(t)
        r = 1.0
        a = self._coefficients(t)
        moms = None
        n = N_QUAD_DEFAULT
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


def _point(state: TrajectoryState) -> ParamPoint | None:
    """The state's reduced parameters, or None for the circle (zeta = 0,
    up to solver roundoff), whose branch is entire."""
    point = state.param_point()
    return None if max(abs(z) for z in point.zeta) < 1e-12 else point


def dominant_at(state: TrajectoryState,
                near: DominantData | None = None) -> DominantData | None:
    """Certified dominant orbit of the state's reduced parameters, or None
    for the circle.  ``near`` is the data of a nearby state on the same
    trajectory, whose certificate ``dominant_data`` inherits where the
    orbits show it may; a trajectory passes each state's data on to the
    next."""
    point = _point(state)
    return None if point is None else dominant_data(point, near=near)


def radius_excess(state: TrajectoryState) -> float:
    """rho_*(zeta) - 1 for the state's reduced parameters.

    The circle has an entire branch, reported as +inf.  Any other state,
    however far subcritical, takes rho_* from a fresh ``dominant_data``
    and raises as it does: its least characteristic modulus may belong to
    an orbit off the Taylor sheet.  Along a trajectory, ``dominant_at``
    with the previous state's data gives the same value, bit for bit, and
    mostly skips the certifying rays.
    """
    dom = dominant_at(state)
    return math.inf if dom is None else dom.rho_star - 1.0


@dataclass(frozen=True)
class ThresholdReport:
    """First-crossing times of the spectral and geometric thresholds.

    ``t_c``: first downward crossing of rho_*(zeta(T)) = 1 (None if there
    is none: not reached, or a trajectory that starts past it).
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


def detect_thresholds(driver, t_max: float) -> ThresholdReport:
    """Locate the first spectral (t_c) and geometric (t_univ) thresholds.

    t_c is ``critical_parameter`` on the path of ``driver.probe``'s zeta(T)
    over [0, t_max] in DETECT_STEPS steps, to ``T_XTOL``: the certified
    dominant orbit is carried from probe to probe, so its rays run at the
    first probe and where orbits cross, and the march stops at the first
    bracket.  t_univ is the first zero of the univalence margin on the
    same grid, bracketed and refined by ``brentq`` to ``T_XTOL``, with the
    margins of the probes already made.  Thresholds not reached by
    ``t_max`` come back as None.  The probes carry zeta(T) and the margin
    only (a ``SliceDriver`` skips the moment quadrature), and no probe
    time is probed twice.
    """
    t_max = float(t_max)
    margins = {}  # univalence margin by probe time

    def point_at(t: float) -> ParamPoint | None:
        st = driver.probe(t)
        margins[t] = st.univalence_margin
        return _point(st)

    def margin_at(t: float) -> float:
        if t not in margins:
            point_at(t)
        return margins[t]

    try:
        t_c = critical_parameter(point_at, 0.0, t_max, DETECT_STEPS, T_XTOL)
    except NotBracketed:
        t_c = None
    # the grid of critical_parameter, so that its probes' margins serve
    grid = np.linspace(0.0, t_max, DETECT_STEPS + 1)
    t_univ = first_zero(lambda j: margin_at(float(grid[j])), grid,
                        lambda j: margin_at, xtol=T_XTOL)
    margin = margin_at(t_c) if t_c is not None else None
    separated = None
    if t_c is not None:
        separated = margin > 0.0 and (t_univ is None or t_univ > t_c)
    return ThresholdReport(t_c, t_univ, margin, separated)


def approach_path(driver, t_c: float):
    """Parameter path delta -> zeta(t_c - delta) for near-critical scans.

    Adapts a trajectory driver to the path convention of the spectral
    scanner, with delta = t_c - T the time remaining to the threshold.
    Only zeta(T) is read, so the path takes the driver's probes.
    """
    def path(delta: float) -> ParamPoint:
        return driver.probe(t_c - float(delta)).param_point()
    return path
