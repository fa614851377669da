"""Per-cell scalar closed forms of the explicit leaves: an oracle for the
array kernels of ``explicit_leaves``.

Each phase-grid cell is evaluated here one point at a time, in Python
floats and ``cmath``: the pole leaf's 1/(b +/- 2 sqrt(c)), and the log
leaf's quadratic roots with X(u) = u / (1 + gamma u log(1 - b u)) on the
principal sheet (or the one-sided "split" determination on the cut).  A
point outside a leaf's parameter domain fails with ``ValueError``, as the
leaf point containers reject it.  ``phase_diagram`` solves each column's
unit-level contour by the scalar ``brentq`` inside the first grid cell
that brackets it.  The kernels do the same arithmetic on whole grids with
numpy's complex ``sqrt``, ``log`` and division, so pole cells agree to the
bit and log cells to a few ulp.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Iterable, Sequence

from toda_spectra._brent import brentq
from toda_spectra.errors import (Degenerate, LogBranchCut, NoConvergence,
                                 TodaSpectraError)
from toda_spectra.explicit_leaves import (LogCharData, PhaseCell,
                                          PhaseTable)

_CUT_TOL = 1e-12
_CONJ_TOL = 1e-10


def pole_char(b: complex, c: float) -> tuple[float, complex, complex]:
    """Characteristic values 1/(b +/- 2 sqrt(c)) and their minimal modulus."""
    b, c = complex(b), float(c)
    if not abs(b) < 1.0:
        raise ValueError("pole position must satisfy |b| < 1")
    if not c > 0.0:
        raise ValueError("pole strength c must be positive")
    root = 2.0 * math.sqrt(c)
    scale = max(1.0, abs(b) + root)
    den_p = b + root
    den_m = b - root
    if min(abs(den_p), abs(den_m)) < 1e-15 * scale:
        raise Degenerate("characteristic value at infinity: b +/- 2 sqrt(c) = 0")
    x_plus = 1.0 / den_p
    x_minus = 1.0 / den_m
    return min(abs(x_plus), abs(x_minus)), x_plus, x_minus


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


def log_char(b: float, gamma: float, on_cut: str) -> LogCharData:
    """Principal-sheet characteristic data of the log leaf at (b, gamma);
    ``b = 1`` is taken too, as the edge of the slice."""
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


def log_point_char(b: float, gamma: float, on_cut: str) -> LogCharData:
    """``log_char`` on the leaf's domain 0 < b < 1, gamma > 0."""
    b, gamma = float(b), float(gamma)
    if not 0.0 < b < 1.0:
        raise ValueError("log endpoint must satisfy 0 < b < 1")
    if not gamma > 0.0:
        raise ValueError("log strength gamma must be positive")
    return log_char(b, gamma, on_cut)


def cell(kind: str, b: float, second: float, on_cut: str = "split") -> PhaseCell:
    """rho_char and both characteristic moduli at one point; a failure
    leaves NaN values and the exception's name as ``error_code``."""
    try:
        if kind == "pole":
            rho, xp, xm = pole_char(b, second)
            pair = abs(xp.conjugate() - xm) <= _CONJ_TOL * (1.0 + abs(xp))
        else:
            data = log_point_char(b, second, on_cut)
            rho, xp, xm = data.rho, data.x_plus, data.x_minus
            pair = data.conjugate_pair
    except (TodaSpectraError, ValueError) as exc:
        return PhaseCell(b, second, math.nan, math.nan, math.nan, False,
                         type(exc).__name__)
    return PhaseCell(b, second, rho, abs(xp), abs(xm), pair, "")


def column_contour(kind: str, b: float, seconds: Sequence[float],
                   rhos: Sequence[float]):
    """rho_char = 1 along one fixed-b column, by ``brentq`` (xtol the least
    normal float, far below its relative tolerance on c > 0) on
    the first grid cell that brackets it; None when no cell brackets it
    or the solve meets a failed evaluation."""
    vals = [rho - 1.0 for rho in rhos]
    for (s0, v0), (s1, v1) in zip(zip(seconds, vals), zip(seconds[1:], vals[1:])):
        if math.isnan(v0) or math.isnan(v1) or v0 * v1 > 0.0:
            continue
        try:
            return (b, brentq(lambda sec: cell(kind, b, sec).rho_char - 1.0,
                              s0, s1, xtol=sys.float_info.min))
        except NoConvergence:
            return None
    return None


def phase_diagram(kind: str, b_values: Iterable[float],
                  second_values: Iterable[float]) -> PhaseTable:
    """The phase table cell by cell, each column's contour from its cells."""
    bs = [float(b) for b in b_values]
    seconds = [float(s) for s in second_values]
    cells, contour = [], []
    for b in bs:
        column = [cell(kind, b, sec) for sec in seconds]
        cells.extend(column)
        if len(seconds) >= 2:
            hit = column_contour(kind, b, seconds,
                                 [c.rho_char for c in column])
            if hit is not None:
                contour.append(hit)
    return PhaseTable(kind, tuple(cells), tuple(contour))
