"""Taylor branch of the inverse-map equation and coefficient power tables.

The central object is the unique germ ``U`` with ``U(0) = 1`` solving

    U = 1 + sum_n zeta_n * x**s_n * U**s_n

on a fixed exponent set ``{s_1 < ... < s_N}``.  Because every exponent is a
multiple of ``s = gcd(s_n)``, ``U`` is a function of ``z = x**s`` alone and
all series in this module are stored in the collapsed variable ``z`` (one
coefficient per power of ``x**s``).  The coefficient arrays

    R_p(m) = [x**(m*s)] U**p

feed every Gram/Hessian construction downstream; ``powers_table`` and
``branch_power_rows`` produce them, optionally divided by ``alpha**p`` so
that renormalized assemblies never form overflowing weights explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import NoConvergence

__all__ = [
    "Leaf",
    "ParamPoint",
    "PowerSeries",
    "taylor_branch",
    "taylor_branch_x_grid",
    "powers_table",
    "raney_oracle",
    "functional_residual",
    "branch_power_rows",
    "CirclePowerTable",
]

# Above this truncation order, series products switch from direct convolution
# to FFT-based convolution, and power rows switch to circle sampling.
_DIRECT_CONV_MAX = 1024
_CIRCLE_PATH_MIN = 3000


@dataclass(frozen=True)
class Leaf:
    """Fixed exponent set {s_1 < ... < s_N} with its symmetry index s = gcd."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if not exps:
            raise ValueError("Leaf needs at least one exponent")
        if any(e < 2 for e in exps):
            raise ValueError(f"exponents must all be >= 2, got {exps}")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError(f"exponents must be strictly increasing, got {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def s(self) -> int:
        """Symmetry index: gcd of the exponent set."""
        return math.gcd(*self.exponents)

    @property
    def collapsed_shifts(self) -> tuple[int, ...]:
        """Exponents divided by s (powers of z = x**s contributed per term)."""
        s = self.s
        return tuple(e // s for e in self.exponents)


@dataclass(frozen=True)
class ParamPoint:
    """A reduced parameter vector zeta on a leaf (optionally with a radius r)."""

    leaf: Leaf
    zeta: tuple[complex, ...]
    r: float | None = None

    def __post_init__(self):
        z = tuple(complex(v) for v in self.zeta)
        if len(z) != len(self.leaf.exponents):
            raise ValueError(
                f"zeta has {len(z)} entries for {len(self.leaf.exponents)} exponents"
            )
        object.__setattr__(self, "zeta", z)
        if self.r is not None and not self.r > 0:
            raise ValueError("conformal radius r must be positive")

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.zeta)


@dataclass
class PowerSeries:
    """Truncated series in z = x**s.

    ``coeffs[m]`` is the coefficient of ``x**(m*s)``; stored values represent
    ``c_m * exp(log_scale)`` so scaled tables remain in double-precision range.
    """

    coeffs: np.ndarray
    order: int
    log_scale: float = 0.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.order + 1,):
            raise ValueError(
                f"coeffs has {self.coeffs.shape[0]} entries, expected order+1 = {self.order + 1}"
            )

    @classmethod
    def from_coeffs(cls, coeffs, log_scale: float = 0.0) -> "PowerSeries":
        arr = np.asarray(coeffs, dtype=np.complex128)
        return cls(arr, order=len(arr) - 1, log_scale=log_scale)

    def unscaled(self) -> np.ndarray:
        """Coefficient values with the log scale folded back in."""
        if self.log_scale == 0.0:
            return self.coeffs.copy()
        return self.coeffs * math.exp(self.log_scale)


def _mul_trunc(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated product of coefficient arrays, to `order` inclusive."""
    if order + 1 <= _DIRECT_CONV_MAX:
        return np.convolve(a[: order + 1], b[: order + 1])[: order + 1]
    na = min(len(a), order + 1)
    nb = min(len(b), order + 1)
    size = 1
    while size < na + nb - 1:
        size *= 2
    fa = np.fft.fft(a[:na], size)
    fb = np.fft.fft(b[:nb], size)
    return np.fft.ifft(fa * fb)[: order + 1]


def _recursion_coeffs(zetas: Sequence[complex], shifts: Sequence[int],
                      powers_of: Sequence[int], order: int) -> np.ndarray:
    """Order-by-order substitution for u = 1 + sum_n zeta_n * z^shift_n * u^k_n.

    Maintains each needed power u**k_n incrementally via the standard
    power-of-a-series recurrence (from u * (u^k)' = k * u' * u^k), so the
    whole computation is O(order^2) with vectorized inner products.
    """
    u = np.zeros(order + 1, dtype=np.complex128)
    u[0] = 1.0
    pw = [np.zeros(order + 1, dtype=np.complex128) for _ in powers_of]
    for arr in pw:
        arr[0] = 1.0
    filled = [0] * len(powers_of)
    for m in range(1, order + 1):
        total = 0.0 + 0.0j
        for n, (zn, shift, k) in enumerate(zip(zetas, shifts, powers_of)):
            t = m - shift
            if t < 0 or zn == 0:
                continue
            P = pw[n]
            while filled[n] < t:
                j = filled[n] + 1
                i = np.arange(1, j + 1)
                P[j] = np.dot(((k + 1) * i - j) * u[1 : j + 1], P[j - 1 :: -1]) / j
                filled[n] = j
            total += zn * P[t]
        u[m] = total
    return u


def taylor_branch(p: ParamPoint, order: int) -> PowerSeries:
    """Taylor branch of the inverse-map equation, collapsed to z = x**s.

    Parameters
    ----------
    p : ParamPoint
        Leaf and parameter values.
    order : int
        Highest retained power of z = x**s.

    Returns
    -------
    PowerSeries
        Coefficients u_m with u_0 = 1 satisfying
        U = 1 + sum_n zeta_n x**s_n U**s_n through order ``order``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    u = _recursion_coeffs(p.zeta, p.leaf.collapsed_shifts, p.leaf.exponents, order)
    return PowerSeries(u, order=order)


def taylor_branch_x_grid(p: ParamPoint, order: int) -> np.ndarray:
    """Same recursion on the full x-grid (no collapse); used to check that
    every coefficient of an exponent not divisible by s vanishes."""
    return _recursion_coeffs(p.zeta, p.leaf.exponents, p.leaf.exponents, order)


def powers_table(u: PowerSeries, p_max: int, scale: float = 1.0) -> list[PowerSeries]:
    """Scaled powers (U/alpha)**p for p = 1..p_max by repeated multiplication.

    Entry ``p-1`` holds coefficients ``R_p(m)/alpha**p`` with
    ``log_scale = p*log(alpha)`` so unscaled values are recoverable.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if not scale > 0:
        raise ValueError("scale must be positive")
    base = u.coeffs / scale
    log_alpha = math.log(scale)
    out = []
    cur = base.copy()
    for p in range(1, p_max + 1):
        out.append(PowerSeries(cur.copy(), order=u.order,
                               log_scale=p * (u.log_scale + log_alpha)))
        if p < p_max:
            cur = _mul_trunc(cur, base, u.order)
    return out


def raney_oracle(s: int, p: int, m: int) -> Fraction:
    """Exact one-mode coefficient p/(s*m+p) * binomial(s*m+p, m).

    Big-integer arithmetic throughout; on a one-mode leaf {s} the series
    coefficient R_p(m) equals this number times zeta**m.
    """
    if s < 2 or p < 1 or m < 0:
        raise ValueError("need s >= 2, p >= 1, m >= 0")
    n = s * m + p
    return Fraction(p * math.comb(n, m), n)


def functional_residual(p: ParamPoint, u: PowerSeries) -> float:
    """Max coefficient residual of U - 1 - sum_n zeta_n x^{s_n} U^{s_n},
    relative to the largest coefficient of U."""
    order = u.order
    coeffs = u.unscaled()
    res = coeffs.copy()
    res[0] -= 1.0
    for zn, shift, k in zip(p.zeta, p.leaf.collapsed_shifts, p.leaf.exponents):
        if zn == 0:
            continue
        upow = coeffs
        for _ in range(k - 1):
            upow = _mul_trunc(upow, coeffs, order)
        res[shift:] -= zn * upow[: order + 1 - shift]
    scale = np.abs(coeffs).max()
    return float(np.abs(res).max() / scale)


# ---------------------------------------------------------------------------
# Circle evaluation of the branch
#
# Deep subcritical points need U's coefficients to orders ~1e5, where the
# O(M^2) convolution chain is hopeless.  When rho_* > 1 the branch is
# analytic on the closed unit disk in z, so it is evaluated once on a uniform
# grid of the unit circle.  Gram blocks are Parseval sums over these samples
# (``hessian_blocks.gram_block``); ``CirclePowerTable.rows`` instead forms
# powers pointwise and recovers coefficient rows by one inverse FFT per p,
# with aliasing error ~ rho_*^(-s*N_grid).
# ---------------------------------------------------------------------------


def _branch_values_on_circle(p: ParamPoint, n_points: int, radius: float = 1.0,
                             tol: float = 1e-13) -> np.ndarray:
    """Values of the Taylor branch at z = radius * exp(2*pi*i*k/n_points).

    Continues the solution of y = 1 + sum zeta_n z^shift_n y^k_n from the
    center (y = 1 at radius 0) outward, shrinking the radius step near the
    target so Newton always stays on the Taylor sheet.
    """
    zetas = np.asarray(p.zeta, dtype=np.complex128)
    shifts = p.leaf.collapsed_shifts
    kexps = p.leaf.exponents
    z_unit = np.exp(2j * np.pi * np.arange(n_points) / n_points)

    def newton_at(rad, y):
        zz = (rad * radius) * z_unit
        zpow = [zz**sh for sh in shifts]
        for _ in range(60):
            f = y - 1.0
            fy = np.ones_like(y)
            for zn, zp, k in zip(zetas, zpow, kexps):
                yk1 = y ** (k - 1)
                f -= zn * zp * yk1 * y
                fy -= k * zn * zp * yk1
            step = f / fy
            y = y - step
            if np.abs(step).max() < tol * (1.0 + np.abs(y).max()):
                return y
        raise NoConvergence("circle evaluation: Newton stalled on the radius ramp")

    y = np.ones(n_points, dtype=np.complex128)
    # coarse march to half radius, then geometric approach to the rim
    for rad in np.linspace(0.125, 0.5, 4):
        y = newton_at(rad, y)
    gap = 0.5
    while gap > 1e-7:
        gap *= 0.6
        y = newton_at(1.0 - gap, y)
    return newton_at(1.0, y)


def _int_pow_values(vals: np.ndarray, k: int) -> np.ndarray:
    """vals**k for integer k >= 0 by binary powering (deterministic rounding)."""
    out = np.ones_like(vals)
    base = vals
    e = k
    while e:
        if e & 1:
            out = out * base
        base = base * base if e > 1 else base
        e >>= 1
    return out


class CirclePowerTable:
    """Samples of U on the unit circle in z, with coefficient rows of
    (U/alpha)**p recovered from them.

    Build once per parameter point (the expensive part is the branch
    evaluation), then take Gram blocks or rows for any set of powers.  The
    grid has at least 2*(order+1) points, and the first coefficients of the
    samples are checked against the series recursion.  Requires the Taylor
    branch to be analytic beyond |z| = 1, i.e. rho_*(zeta)**s > 1.
    """

    def __init__(self, p: ParamPoint, order: int, alpha: float = 1.0,
                 validate_orders: int = 128):
        self.param = p
        self.order = order
        self.alpha = float(alpha)
        n = 4096
        while n < 2 * (order + 1):
            n *= 2
        self.n_grid = n
        self.values = _branch_values_on_circle(p, n)
        if validate_orders:
            self._validate(min(validate_orders, order))

    def _validate(self, n_check: int) -> None:
        got = (np.fft.fft(self.values) / self.n_grid)[: n_check + 1]
        want = taylor_branch(self.param, n_check).coeffs
        scale = np.abs(want).max()
        err = np.abs(got - want).max() / scale
        if not err < 1e-8:
            raise NoConvergence(
                f"circle samples disagree with the series recursion "
                f"(relative error {err:.2e}); wrong sheet or insufficient grid"
            )

    def samples(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid points lo..hi-1 as (z_k, U(z_k), z_k U'(z_k) / U(z_k)).

        Differentiating the branch equation gives
        z U' = sum_n sh_n zeta_n z^sh_n U^k_n
               / (1 - sum_n k_n zeta_n z^sh_n U^(k_n - 1)),
        whose denominator is the Newton derivative of the radius ramp.
        """
        z = np.exp(2j * np.pi * np.arange(lo, hi) / self.n_grid)
        u = self.values[lo:hi]
        num = np.zeros_like(u)
        den = np.ones_like(u)
        for zn, sh, k in zip(self.param.zeta, self.param.leaf.collapsed_shifts,
                             self.param.leaf.exponents):
            t = zn * z**sh * u ** (k - 1)
            num += sh * t * u
            den -= k * t
        return z, u, num / (den * u)

    def rows(self, p_list: Iterable[int]) -> np.ndarray:
        """Array of shape (len(p_list), order+1): row i holds R_{p_i}(m)/alpha**p_i."""
        ps = [int(v) for v in p_list]
        if any(v < 1 for v in ps):
            raise ValueError("powers must be >= 1")
        order_idx = np.argsort(ps, kind="stable")
        scaled = self.values / self.alpha
        out = np.empty((len(ps), self.order + 1), dtype=np.complex128)
        cur = None
        cur_p = 0
        for idx in order_idx:
            target = ps[idx]
            if cur is None:
                cur = _int_pow_values(scaled, target)
            elif target != cur_p:
                cur = cur * _int_pow_values(scaled, target - cur_p)
            cur_p = target
            out[idx] = (np.fft.fft(cur) / self.n_grid)[: self.order + 1]
        return out


def _series_power_rows(p: ParamPoint, p_list: Sequence[int], order: int,
                       alpha: float) -> np.ndarray:
    base = taylor_branch(p, order).coeffs / alpha
    out = np.empty((len(p_list), order + 1), dtype=np.complex128)
    wanted = {}
    for i, pv in enumerate(p_list):
        wanted.setdefault(pv, []).append(i)
    cur = base.copy()
    cur_p = 1
    top = max(p_list)
    while True:
        if cur_p in wanted:
            for i in wanted[cur_p]:
                out[i] = cur
        if cur_p == top:
            break
        cur = _mul_trunc(cur, base, order)
        cur_p += 1
    return out


def branch_power_rows(p: ParamPoint, p_list: Sequence[int], order: int,
                      alpha: float = 1.0, subcritical: bool = False) -> np.ndarray:
    """Coefficient rows R_p(m)/alpha**p for each requested power p.

    Chooses between the convolution chain (moderate orders) and circle
    sampling (deep tails; only valid when the point is subcritical, i.e.
    the branch is analytic past |x| = 1 — pass ``subcritical=True`` to
    allow that path).
    """
    if not p_list:
        raise ValueError("p_list must be nonempty")
    if order + 1 >= _CIRCLE_PATH_MIN and subcritical:
        return CirclePowerTable(p, order, alpha).rows(p_list)
    return _series_power_rows(p, list(p_list), order, alpha)
