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

from ._brent import brentq
from .errors import (Degenerate, LogBranchCut, NoConvergence, NotBracketed,
                     TodaSpectraError)

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
    return _log_char(p.b, p.gamma, on_cut)


def _log_char(b: float, gamma: float, on_cut: str) -> LogCharData:
    """``log_rho_char`` on plain floats, so that it also takes b = 1."""
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

    ``contour`` holds (b, second) points with rho_char = 1, one per grid
    column that brackets the unit level.
    """

    kind: str
    cells: tuple[PhaseCell, ...]
    contour: tuple[tuple[float, float], ...]


def _cell(kind: str, b: float, second: float) -> PhaseCell:
    """rho_char and both characteristic moduli at one point, log cells on
    the "split" policy; a failure leaves NaN values and the exception's
    name as ``error_code``."""
    try:
        if kind == "pole":
            rho, xp, xm = pole_rho_char(PoleLeafPoint(b, second))
            pair = abs(xp.conjugate() - xm) <= _CONJ_TOL * (1.0 + abs(xp))
        else:
            data = log_rho_char(LogLeafPoint(b, second), on_cut="split")
            rho, xp, xm = data.rho, data.x_plus, data.x_minus
            pair = data.conjugate_pair
    except (TodaSpectraError, ValueError) as exc:
        return PhaseCell(b, second, math.nan, math.nan, math.nan, False,
                         type(exc).__name__)
    return PhaseCell(b, second, rho, abs(xp), abs(xm), pair, "")


def _column_contour(kind: str, b: float, seconds: Sequence[float],
                    rhos: Sequence[float]):
    """Solve rho_char = 1 along one fixed-b column, by ``brentq`` on the
    first grid cell that brackets it.

    ``rhos`` are the column's grid values of rho_char, NaN where a cell
    failed.  A cell end exactly at the level is returned as it is; a
    failed evaluation inside the cell gives NaN, which ``brentq`` reports
    as NoConvergence, and drops the column's point.  The second axis (c
    or gamma) is positive, so the root is solved to brentq's relative
    tolerance alone (xtol = 0).
    """
    vals = [rho - 1.0 for rho in rhos]
    for (s0, v0), (s1, v1) in zip(zip(seconds, vals), zip(seconds[1:], vals[1:])):
        if math.isnan(v0) or math.isnan(v1) or v0 * v1 > 0.0:
            continue
        try:
            return (b, brentq(
                lambda sec: _cell(kind, b, sec).rho_char - 1.0,
                s0, s1, xtol=0.0))
        except NoConvergence:  # a failed cell's NaN, or the budget
            return None
    return None


def phase_diagram(kind: str, b_values: Iterable[float],
                  second_values: Iterable[float]) -> PhaseTable:
    """Evaluate rho_char on a rectangular grid and trace its unit level set.

    ``kind`` is "pole" (second axis c) or "log" (second axis gamma).
    Per-cell failures are recorded in ``error_code`` without aborting the
    grid.  Each column's contour is solved by ``brentq`` inside the first
    grid cell that brackets the level, so rho_char is evaluated once per
    cell plus the root finder's steps.  Log cells take the "split"
    policy, so the table shows the branch moduli on both sides of the
    discriminant; ``log_rho_char`` with its default ``on_cut="error"``
    reports a single point's cut hit instead.
    """
    if kind not in ("pole", "log"):
        raise ValueError("kind must be 'pole' or 'log'")
    bs = [float(b) for b in b_values]
    seconds = [float(s) for s in second_values]
    cells = []
    contour = []
    for b in bs:
        column = [_cell(kind, b, sec) for sec in seconds]
        cells.extend(column)
        if len(seconds) >= 2:
            hit = _column_contour(kind, b, seconds,
                                  [cell.rho_char for cell in column])
            if hit is not None:
                contour.append(hit)
    return PhaseTable(kind, tuple(cells), tuple(contour))


def gamma_c_solve(tol: float, *, bracket: tuple[float, float] = (0.1, 0.5)) -> float:
    """Threshold gamma_c above which the unit level reaches interior b.

    gamma_c is the root of rho_char(1, gamma) = 1, where rho_char(1, .)
    is the log leaf's closed form at the slice's edge b = 1 ("split"
    policy), solved by ``brentq`` over ``bracket`` to ``tol``.  For
    gamma > 1/4 the roots are complex and 1 - u is off the cut, so the
    closed form is analytic there; across gamma = 1/4 it is continuous.

    This rests on one premise: the envelope b -> rho_char(b, gamma)
    decreases toward b = 1, so that its infimum over (0, 1) is its value
    at b = 1.  It then stays above 1 on all of (0, 1) while that value
    does, and the unit level set crosses the slice once that value is
    below 1.  The test
    ``test_gamma_c_matches_envelope_minimum`` checks this premise against
    a bounded minimization over interior b plus a Richardson limit toward
    b = 1.  gamma_c is about 0.2799674.

    Raises
    ------
    NotBracketed
        If rho_char(1, gamma) - 1 has the same sign at both ends of
        ``bracket``.
    """
    if not tol >= 1e-6:
        raise ValueError("gamma_c_solve needs tol >= 1e-6")
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    try:
        return brentq(lambda g: _log_char(1.0, g, "split").rho - 1.0,
                      lo, hi, xtol=tol)
    except ValueError:
        raise NotBracketed(
            f"rho_char(1, gamma) - 1 does not change sign over gamma in "
            f"[{lo}, {hi}]") from None
