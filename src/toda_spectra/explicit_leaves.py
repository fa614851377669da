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

Each leaf's closed form is one numpy kernel over arrays of points
(``_pole_kernel``, ``_log_kernel``) that reports per-point failures by
masks.  The single-point functions, the phase grids and ``gamma_c_solve``
all call it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np

from ._brent import brentq, brentq_many
from .errors import Degenerate, LogBranchCut, NotBracketed

_CUT_TOL = 1e-12
_CONJ_TOL = 1e-10
# gamma interval of gamma_c_solve, around gamma_c ~ 0.28
GAMMA_C_BRACKET = (0.1, 0.5)
# brentq_many's (positive) xtol on the phase contour: xtol + RTOL * c
# rounds to RTOL * c for every c above 1e-276
_CONTOUR_XTOL = sys.float_info.min


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


class _Leaf(NamedTuple):
    """Closed-form values of one leaf at an array of points.

    ``error_code`` is "" where the point succeeds and otherwise the name
    of the exception the point stands for: "ValueError" outside the
    leaf's domain, "Degenerate" for a pole-leaf characteristic value at
    infinity, "LogBranchCut" for a log-leaf characteristic point on the
    logarithm's cut under ``on_cut="error"``.  The other entries of a
    failed point are whatever the arithmetic gave.  ``u_plus`` and
    ``u_minus`` are the log leaf's characteristic points.
    """

    rho: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray
    conjugate_pair: np.ndarray
    error_code: np.ndarray
    u_plus: np.ndarray | None = None
    u_minus: np.ndarray | None = None


def _pole_kernel(b, c) -> _Leaf:
    """x_*^(+/-) = 1/(b +/- 2 sqrt(c)) at broadcast arrays b, c; a real
    b stays in real arithmetic."""
    b, c = np.asarray(b), np.asarray(c, dtype=float)
    with np.errstate(all="ignore"):
        root = 2.0 * np.sqrt(c)
        den_p, den_m = b + root, b - root
        scale = np.maximum(1.0, np.abs(b) + root)
        degenerate = np.minimum(np.abs(den_p), np.abs(den_m)) < 1e-15 * scale
        x_plus, x_minus = 1.0 / den_p, 1.0 / den_m
        abs_plus = np.abs(x_plus)
        pair = np.abs(np.conj(x_plus) - x_minus) <= _CONJ_TOL * (1.0 + abs_plus)
    outside = ~(np.abs(b) < 1.0) | ~(c > 0.0)
    code = np.where(outside, "ValueError",
                    np.where(degenerate, "Degenerate", ""))
    return _Leaf(np.minimum(abs_plus, np.abs(x_minus)), x_plus, x_minus,
                 pair, code)


def pole_rho_char(p: PoleLeafPoint) -> tuple[float, complex, complex]:
    """Characteristic values 1/(b +/- 2 sqrt(c)) and their minimal modulus."""
    v = _pole_kernel(p.b, p.c)
    if v.error_code == "Degenerate":
        raise Degenerate("characteristic value at infinity: b +/- 2 sqrt(c) = 0")
    return float(v.rho), complex(v.x_plus), complex(v.x_minus)


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


def _log_x_value(u, b, gamma, cut_arg):
    """X(u) = u / (1 + gamma u log(1 - b u)) on the principal sheet, with
    arg(1 - b u) = ``cut_arg`` where 1 - b u lies on the cut; and the
    mask of those points."""
    w = 1.0 - b * u
    abs_w = np.abs(w)
    scale = np.maximum(1.0, abs_w)
    on_cut = (w.real < _CUT_TOL * scale) & (np.abs(w.imag) <= _CUT_TOL * scale)
    # log|w| + i arg w, by real functions: numpy's complex log costs
    # about ten times as much
    ell = np.log(abs_w) + 1j * np.where(on_cut, cut_arg,
                                        np.arctan2(w.imag, w.real))
    return u / (1.0 + gamma * u * ell), on_cut


def _log_kernel(b, gamma, on_cut: str = "split") -> _Leaf:
    """The log leaf's characteristic points and values (see
    ``log_rho_char``) at broadcast arrays b, gamma.

    b = 1, the edge of the slice, is evaluated like any other b; only its
    ``error_code`` says that it lies outside the leaf's domain.
    """
    b, gamma = np.asarray(b, dtype=float), np.asarray(gamma, dtype=float)
    with np.errstate(all="ignore"):
        disc = 1.0 - 4.0 * gamma / b
        root = np.sqrt(np.abs(disc))
        complex_roots = disc < 0.0
        u_plus = (np.where(complex_roots, 1.0, 1.0 + root) / (2.0 * gamma)
                  + 1j * (np.where(complex_roots, root, 0.0) / (2.0 * gamma)))
        # Vieta's product avoids the 1 - root cancellation for real roots
        u_minus = np.where(complex_roots, np.conj(u_plus),
                           1.0 / (gamma * b * u_plus.real))
        x_plus, cut_plus = _log_x_value(u_plus, b, gamma, -math.pi)
        x_minus, cut_minus = _log_x_value(u_minus, b, gamma, math.pi)
        rho = np.minimum(np.abs(x_plus), np.abs(x_minus))
    outside = ~((0.0 < b) & (b < 1.0)) | ~(gamma > 0.0)
    cut = (cut_plus | cut_minus) & (on_cut == "error")
    code = np.where(outside, "ValueError", np.where(cut, "LogBranchCut", ""))
    return _Leaf(rho, x_plus, x_minus, b < 4.0 * gamma, code, u_plus, u_minus)


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
    v = _log_kernel(p.b, p.gamma, on_cut)
    if v.error_code == "LogBranchCut":
        raise LogBranchCut(f"1 - b u lies on the principal logarithm cut at "
                           f"b = {p.b!r}, gamma = {p.gamma!r}")
    return LogCharData(float(v.rho), complex(v.u_plus), complex(v.u_minus),
                       complex(v.x_plus), complex(v.x_minus),
                       bool(v.conjugate_pair))


class PhaseCell(NamedTuple):
    """One grid cell of a phase diagram; ``error_code`` is empty on success.

    A named tuple, fields in the column order of the CLI's phase table,
    so that a grid of thousands of cells costs one small tuple each.
    """

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


def _contour(kernel, bs: np.ndarray, seconds: np.ndarray, rho: np.ndarray):
    """Solve rho_char = 1 along every fixed-b column, each inside the
    first grid cell that brackets it, by ``brentq_many``.

    ``rho`` holds the grid's values, NaN where a cell failed.  A cell end
    exactly at the level is returned as it is; a failed evaluation inside
    the cell drops the column's point, as does the iteration budget.  The
    second axis (c or gamma) is positive, so roots are solved to brentq's
    relative tolerance alone: xtol = _CONTOUR_XTOL lies far below its
    RTOL * c.
    """
    if seconds.size < 2:
        return ()
    gap = rho - 1.0
    lo, hi = gap[:, :-1], gap[:, 1:]
    brackets = ~(np.isnan(lo) | np.isnan(hi) | (lo * hi > 0.0))
    cols = np.flatnonzero(brackets.any(axis=1))
    first = brackets.argmax(axis=1)[cols]

    def unit_gap(i, second):
        v = kernel(bs[cols[i]], second)
        return np.where(v.error_code == "", v.rho - 1.0, np.nan)

    roots = brentq_many(unit_gap, seconds[first], seconds[first + 1],
                        gap[cols, first], gap[cols, first + 1],
                        xtol=_CONTOUR_XTOL)
    hit = ~np.isnan(roots)
    return tuple(zip(bs[cols[hit]].tolist(), roots[hit].tolist()))


def phase_diagram(kind: str, b_values: Iterable[float],
                  second_values: Iterable[float]) -> PhaseTable:
    """Evaluate rho_char on a rectangular grid and trace its unit level set.

    ``kind`` is "pole" (second axis c) or "log" (second axis gamma).  The
    leaf's kernel evaluates the whole grid at once; per-cell failures are
    recorded in ``error_code`` (with NaN values) without aborting the
    grid.  The contour is solved for all columns together, each inside
    the first grid cell that brackets the level.  Log cells take the
    "split" policy, so the table shows the branch moduli on both sides of
    the discriminant; ``log_rho_char`` with its default ``on_cut="error"``
    reports a single point's cut hit instead.
    """
    if kind not in ("pole", "log"):
        raise ValueError("kind must be 'pole' or 'log'")
    bs = np.fromiter(b_values, dtype=float)
    seconds = np.fromiter(second_values, dtype=float)
    kernel = _pole_kernel if kind == "pole" else _log_kernel
    v = kernel(bs[:, None], seconds)
    failed = v.error_code != ""
    rho = np.where(failed, np.nan, v.rho)
    columns = (*np.broadcast_arrays(bs[:, None], seconds), rho,
               np.where(failed, np.nan, np.abs(v.x_plus)),
               np.where(failed, np.nan, np.abs(v.x_minus)),
               v.conjugate_pair & ~failed, v.error_code)
    # tuple.__new__ skips the argument binding of PhaseCell(...)
    cells = tuple(map(tuple.__new__, repeat(PhaseCell),
                      zip(*(np.ravel(c).tolist() for c in columns))))
    return PhaseTable(kind, cells, _contour(kernel, bs, seconds, rho))


def gamma_c_solve(tol: float) -> float:
    """Threshold gamma_c above which the unit level reaches interior b.

    gamma_c is the root of rho_char(1, gamma) = 1, where rho_char(1, .)
    is the log leaf's closed form at the slice's edge b = 1 ("split"
    policy), solved by ``brentq`` over ``GAMMA_C_BRACKET`` to ``tol``.  For
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
        ``GAMMA_C_BRACKET``.
    """
    if not tol >= 1e-6:
        raise ValueError("gamma_c_solve needs tol >= 1e-6")
    lo, hi = GAMMA_C_BRACKET
    try:
        return brentq(lambda g: float(_log_kernel(1.0, g).rho) - 1.0,
                      lo, hi, xtol=tol)
    except ValueError:
        raise NotBracketed(
            f"rho_char(1, gamma) - 1 does not change sign over gamma in "
            f"[{lo}, {hi}]") from None
