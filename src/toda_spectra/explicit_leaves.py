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

from ._brent import brentq, fminbound
from .errors import Degenerate, LogBranchCut, NotBracketed, TodaSpectraError

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
    """Grid evaluation of rho_char plus its unit-level contour.

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
    """Solve rho_char = level along one fixed-b column, by ``brentq`` on
    the first grid cell that brackets it.

    ``rhos`` are the column's grid values of rho_char, NaN where a cell
    failed.  A cell end exactly at the level is returned as it is; a
    failed evaluation inside the cell drops the column's point.  The
    second axis (c or gamma) is positive, so the root is solved to
    brentq's relative tolerance alone (xtol = 0).
    """
    vals = [rho - level for rho in rhos]
    for (s0, v0), (s1, v1) in zip(zip(seconds, vals), zip(seconds[1:], vals[1:])):
        if math.isnan(v0) or math.isnan(v1) or v0 * v1 > 0.0:
            continue
        try:
            return (b, brentq(lambda sec: _rho_of(kind, b, sec, on_cut) - level,
                              s0, s1, xtol=0.0))
        except (TodaSpectraError, ValueError):
            return None
    return None


def phase_diagram(kind: str, b_values: Iterable[float],
                  second_values: Iterable[float], *,
                  level: float = 1.0, on_cut: str = "split") -> PhaseTable:
    """Evaluate rho_char on a rectangular grid and trace its unit level set.

    ``kind`` is "pole" (second axis c) or "log" (second axis gamma).
    Per-cell failures are recorded in ``error_code`` without aborting the
    grid.  Each column's contour is solved by ``brentq`` inside the first
    grid cell that brackets the level, so rho_char is evaluated once per
    cell plus the root finder's steps.  Log cells default to the "split"
    policy so the table shows the branch moduli on both sides of the
    discriminant; pass ``on_cut="error"`` to surface cut hits as error
    codes instead.
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
