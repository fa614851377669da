"""Closed-form characteristic diagnostics for two infinite-mode leaves.

The single-pole leaf (exterior map with one simple pole) has explicit
characteristic values x_*^(+/-) = 1/(b +/- 2 sqrt(c)); their minimal
modulus is the exact radius of analyticity of the associated germ.  The
single-log leaf has explicit characteristic *points* from a quadratic,
but the characteristic *values* involve log(1 - b u) and are therefore
sheet-dependent; everything here refers to the principal branch continued
from the germ log(1 - b u) ~ -b u at u = 0.

When a characteristic point lands on the standard cut (1 - b u real and
nonpositive, the generic situation for real roots), the principal value
is ambiguous.  The default is to report that as an error; the "split"
policy instead continues each root family one-sidedly from the
complex-conjugate regime (upper-half root -> arg = -pi, lower-half root
-> arg = +pi), which is the convention behind the plotted branch moduli.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._brent import fminbound
from .branch_points import radius_estimate
from .errors import (Degenerate, InsufficientData, LogBranchCut, NotBracketed,
                     TodaSpectraError)
from .series_engine import PowerSeries

_CUT_TOL = 1e-12
_CONJ_TOL = 1e-10


@dataclass(frozen=True)
class PoleLeafPoint:
    """Parameters of the single-pole leaf: pole position b, strength c = A/r."""

    b: complex
    c: float

    def __post_init__(self):
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", float(self.c))
        if not abs(self.b) < 1.0:
            raise ValueError("pole position must satisfy |b| < 1")
        if not self.c > 0.0:
            raise ValueError("pole strength c must be positive")


@dataclass(frozen=True)
class LogLeafPoint:
    """Parameters of the single-log leaf: cut endpoint b, strength gamma = c/r."""

    b: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not 0.0 < self.b < 1.0:
            raise ValueError("log endpoint must satisfy 0 < b < 1")
        if not self.gamma > 0.0:
            raise ValueError("log strength gamma must be positive")


def pole_rho_char(p: PoleLeafPoint) -> tuple[float, complex, complex]:
    """Characteristic values 1/(b +/- 2 sqrt(c)) and their minimal modulus."""
    root = 2.0 * math.sqrt(p.c)
    scale = max(1.0, abs(p.b) + root)
    den_p = p.b + root
    den_m = p.b - root
    if min(abs(den_p), abs(den_m)) < 1e-15 * scale:
        raise Degenerate("characteristic value at infinity: b +/- 2 sqrt(c) = 0")
    x_plus = 1.0 / den_p
    x_minus = 1.0 / den_m
    return min(abs(x_plus), abs(x_minus)), x_plus, x_minus


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
        rho, _ = radius_estimate(PowerSeries.from_coeffs(u[1::2]), 2)
    else:
        # u_2 vanishes identically (u = x + c x^3 + b c x^4 + ...), so the
        # ratio fit starts at u_3; a fixed index shift leaves the large-m
        # ratio limit, hence the radius, unchanged.
        rho, _ = radius_estimate(PowerSeries.from_coeffs(u[3:]), 1)
    return rho


@dataclass(frozen=True)
class LogCharData:
    """Principal-sheet characteristic data of a single-log point.

    ``conjugate_pair`` reflects the discriminant side: True below the
    line b = 4 gamma, where u_+ and u_- are complex conjugates and the
    two characteristic moduli tie exactly.
    """

    rho: float
    u_plus: complex
    u_minus: complex
    x_plus: complex
    x_minus: complex
    conjugate_pair: bool


def _on_cut(v: complex) -> bool:
    scale = max(1.0, abs(v))
    return v.real < _CUT_TOL * scale and abs(v.imag) <= _CUT_TOL * scale


def _log_x_value(u: complex, b: float, gamma: float, on_cut: str,
                 cut_arg: float) -> complex:
    w = 1.0 - b * u
    if _on_cut(w):
        if on_cut == "error":
            raise LogBranchCut(
                f"1 - b u = {w!r} lies on the principal logarithm cut")
        ell = complex(math.log(abs(w)), cut_arg)
    else:
        ell = cmath.log(w)
    den = 1.0 + gamma * u * ell
    return u / den


def log_rho_char(p: LogLeafPoint, on_cut: str = "error") -> LogCharData:
    """Principal-sheet characteristic values of the single-log leaf.

    Solves gamma*b u^2 - b u + 1 = 0 and evaluates X(u) = u / (1 +
    gamma u log(1 - b u)).  Below the discriminant line b = 4 gamma the
    roots are complex conjugates and so are the characteristic values;
    above it both roots are real with 1 - b u < 0, i.e. exactly on the
    logarithm's cut.

    ``on_cut`` selects the policy there: "error" raises LogBranchCut
    (nothing is silently continued), while "split" assigns each root the
    one-sided determination it approaches from the conjugate regime
    (u_+ gets arg = -pi, u_- gets arg = +pi), which continues the branch
    moduli through the discriminant.
    """
    if on_cut not in ("error", "split"):
        raise ValueError("on_cut must be 'error' or 'split'")
    b, gamma = p.b, p.gamma
    disc = 1.0 - 4.0 * gamma / b
    w = cmath.sqrt(complex(disc))
    u_plus = (1.0 + w) / (2.0 * gamma)
    if disc < 0.0:
        u_minus = (1.0 - w) / (2.0 * gamma)
    else:
        # Vieta's product avoids the 1 - w cancellation for real roots
        u_minus = 1.0 / (gamma * b * u_plus)
    x_plus = _log_x_value(u_plus, b, gamma, on_cut, -math.pi)
    x_minus = _log_x_value(u_minus, b, gamma, on_cut, math.pi)
    return LogCharData(min(abs(x_plus), abs(x_minus)),
                       u_plus, u_minus, x_plus, x_minus,
                       conjugate_pair=b < 4.0 * gamma)


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
    rho, _ = radius_estimate(PowerSeries.from_coeffs(u[3:]), 1)
    return rho


@dataclass(frozen=True)
class PhaseCell:
    """One grid cell of a phase diagram; ``error_code`` is empty on success."""

    b: float
    second: float
    rho_char: float
    x_plus_abs: float
    x_minus_abs: float
    conjugate_pair: bool
    error_code: str


@dataclass(frozen=True)
class PhaseTable:
    """Grid evaluation of rho_char plus the bisected unit-level contour.

    ``contour`` holds (b, second) points with rho_char = level, one per
    grid column that brackets the level.
    """

    kind: str
    level: float
    cells: tuple[PhaseCell, ...]
    contour: tuple[tuple[float, float], ...]


def _pole_cell(b: float, c: float) -> PhaseCell:
    try:
        rho, xp, xm = pole_rho_char(PoleLeafPoint(b, c))
    except (TodaSpectraError, ValueError) as exc:
        return PhaseCell(b, c, math.nan, math.nan, math.nan, False,
                         type(exc).__name__)
    pair = abs(xp.conjugate() - xm) <= _CONJ_TOL * (1.0 + abs(xp))
    return PhaseCell(b, c, rho, abs(xp), abs(xm), pair, "")


def _log_cell(b: float, gamma: float, on_cut: str) -> PhaseCell:
    try:
        data = log_rho_char(LogLeafPoint(b, gamma), on_cut=on_cut)
    except (TodaSpectraError, ValueError) as exc:
        return PhaseCell(b, gamma, math.nan, math.nan, math.nan, False,
                         type(exc).__name__)
    return PhaseCell(b, gamma, data.rho, abs(data.x_plus), abs(data.x_minus),
                     data.conjugate_pair, "")


def _rho_of(kind: str, b: float, second: float, on_cut: str) -> float:
    if kind == "pole":
        return pole_rho_char(PoleLeafPoint(b, second))[0]
    return log_rho_char(LogLeafPoint(b, second), on_cut=on_cut).rho


def _column_contour(kind: str, b: float, seconds: Sequence[float],
                    rhos: Sequence[float], level: float, on_cut: str):
    """Bisect rho_char = level along one fixed-b column, if bracketed.

    ``rhos`` are the column's grid values of rho_char, NaN where a cell
    failed.
    """
    vals = [rho - level for rho in rhos]
    for (s0, v0), (s1, v1) in zip(zip(seconds, vals), zip(seconds[1:], vals[1:])):
        if math.isnan(v0) or math.isnan(v1) or v0 * v1 > 0.0:
            continue
        lo, hi = (s0, s1) if v0 >= 0.0 else (s1, s0)  # keep lo on the >= side
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            try:
                fm = _rho_of(kind, b, mid, on_cut) - level
            except (TodaSpectraError, ValueError):
                return None
            if fm >= 0.0:
                lo = mid
            else:
                hi = mid
        return (b, 0.5 * (lo + hi))
    return None


def phase_diagram(kind: str, b_values: Iterable[float],
                  second_values: Iterable[float], *,
                  level: float = 1.0, on_cut: str = "split") -> PhaseTable:
    """Evaluate rho_char on a rectangular grid and trace its unit level set.

    ``kind`` is "pole" (second axis c) or "log" (second axis gamma).
    Per-cell failures are recorded in ``error_code`` without aborting the
    grid.  Each column's contour is bisected from its table values, so
    rho_char is evaluated once per cell plus the bisection steps.  Log cells default to the "split" policy so the table shows the
    branch moduli on both sides of the discriminant; pass
    ``on_cut="error"`` to surface cut hits as error codes instead.
    """
    if kind not in ("pole", "log"):
        raise ValueError("kind must be 'pole' or 'log'")
    bs = [float(b) for b in b_values]
    seconds = [float(s) for s in second_values]
    cells = []
    contour = []
    for b in bs:
        column = [_pole_cell(b, sec) if kind == "pole"
                  else _log_cell(b, sec, on_cut) for sec in seconds]
        cells.extend(column)
        if len(seconds) >= 2:
            hit = _column_contour(kind, b, seconds,
                                  [cell.rho_char for cell in column],
                                  level, on_cut)
            if hit is not None:
                contour.append(hit)
    return PhaseTable(kind, level, tuple(cells), tuple(contour))


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


def _log_boundary_limit(gamma: float) -> float:
    """Limit of rho_char(b, gamma) as b -> 1-, by Richardson extrapolation.

    Evaluates at b = 1 - 10**-k for k = 2..6 and removes the leading
    O(1-b) correction from the last two points.
    """
    eps = [10.0 ** (-k) for k in range(2, 7)]
    vals = [log_rho_char(LogLeafPoint(1.0 - e, gamma), on_cut="split").rho
            for e in eps]
    return vals[-1] + (vals[-1] - vals[-2]) * eps[-1] / (eps[-2] - eps[-1])


def _unit_level_attained(gamma: float) -> bool:
    """Whether rho_char(., gamma) dips to 1 at some interior b < 1.

    A bounded scalar minimization guards against an interior dip; if the
    interior minimum stays above 1, the boundary limit decides (values
    converge to it, so a limit below 1 forces interior attainment).
    """
    _, low = fminbound(
        lambda b: log_rho_char(LogLeafPoint(b, gamma), on_cut="split").rho,
        0.01, 0.99, xatol=1e-8)
    if low <= 1.0:
        return True
    return _log_boundary_limit(gamma) < 1.0


def gamma_c_solve(tol: float, *, bracket: tuple[float, float] = (0.1, 0.5)) -> float:
    """Threshold gamma_c above which the unit level reaches interior b.

    For gamma below the threshold the active envelope b -> rho_char(b,
    gamma) stays above 1 on all of (0, 1), approaching its infimum only
    as b -> 1-; above it, the envelope dips below 1 at interior b and the
    unit level set crosses the slice.  Bisects that change of behaviour
    over ``bracket``.

    The returned value reproduces an empirically observed principal-sheet
    threshold (about 0.27997); it is a numerical guide, not a closed-form
    constant, and its accuracy is ``tol`` plus the envelope-evaluation
    error (about 1e-6).

    Raises
    ------
    NotBracketed
        If attainment does not change across ``bracket``.
    """
    if not tol >= 1e-6:
        raise ValueError("gamma_c_solve needs tol >= 1e-6")
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    if _unit_level_attained(lo) or not _unit_level_attained(hi):
        raise NotBracketed(
            f"unit-level attainment does not change over gamma in "
            f"[{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _unit_level_attained(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
