"""Taylor branch of the inverse-map equation and coefficient power tables.

The central object is the unique germ ``U`` with ``U(0) = 1`` solving

    U = 1 + sum_n zeta_n * x**s_n * U**s_n

on a fixed exponent set ``{s_1 < ... < s_N}``.  Because every exponent is a
multiple of ``s = gcd(s_n)``, ``U`` is a function of ``z = x**s`` alone and
all series in this module are stored in the collapsed variable ``z`` (one
coefficient per power of ``x**s``).  ``taylor_branch`` finds the Taylor
coefficients by Newton's method on truncated power series (Brent & Kung,
J. ACM 25, 1978) with direct-convolution products, so that exact zeros stay
exact.  The coefficient arrays

    R_p(m) = [x**(m*s)] U**p

are what the ``series`` command writes, and the Hessian oracles of the
test suite read.  ``branch_power_rows`` produces them by the convolution
chain (optionally divided by ``alpha**p``).  On a subcritical point U is
also sampled on the unit circle in z (``CirclePowerTable``): on nodes
graded toward the dominant singularity, doubled until the samples pass
their checks, for the scan's Gram blocks; or on a uniform grid, whose
inverse FFT gives deep coefficient rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import GridTooLarge, NoConvergence, TailNotConverged, WrongSheet

if TYPE_CHECKING:
    from .branch_points import DominantData

__all__ = [
    "Leaf",
    "ParamPoint",
    "taylor_branch",
    "branch_power_rows",
    "CirclePowerTable",
]


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

    def is_real(self) -> bool:
        """True when every zeta_n is real, so that U(conj z) = conj U(z)."""
        return all(v.imag == 0 for v in self.zeta)


def _mul_trunc(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated product of coefficient arrays, to `order` inclusive, padded
    with zeros when the operands are too short to reach it.

    Direct convolution only: a product with an exact zero stays exactly zero,
    and the rounding of each coefficient depends on the operands' lengths
    alone.
    """
    prod = np.convolve(a[: order + 1], b[: order + 1])[: order + 1]
    if len(prod) == order + 1:
        return prod
    out = np.zeros(order + 1, dtype=prod.dtype)
    out[: len(prod)] = prod
    return out


def _newton_coeffs(zetas: Sequence[complex], shifts: Sequence[int],
                   powers_of: Sequence[int], order: int) -> np.ndarray:
    """Coefficients u_0..u_order of the root u = 1 + O(z) of
    F(u) = u - 1 - sum_n zeta_n z^shift_n u^k_n, by Newton's method on
    truncated series.

    Each step doubles the precision h of u, up to the power of two
    N >= order + 1.  It forms u^(k_n - 1) mod z^2h by binary powering,
    Q = sum_n zeta_n z^shift_n u^(k_n - 1) (so F = u - 1 - Q u) and F', and
    refreshes g = 1/F' mod z^h by g <- g - g (F' g - 1); the new half of u
    is that of u - g F.  Array lengths depend on h alone, never on the
    order, which keeps lower orders a bit-exact prefix of higher ones.
    """
    real = all(zn.imag == 0 for zn in zetas)
    dtype = np.float64 if real else np.complex128
    modes = [(zn.real if real else zn, sh, k)
             for zn, sh, k in zip(zetas, shifts, powers_of) if zn != 0]
    size = 1
    while size < order + 1:
        size *= 2
    u = np.zeros(size, dtype=dtype)
    u[0] = 1.0
    g = np.ones(1, dtype=dtype)  # 1/F'(u) mod z^h; F'(u) = 1 + O(z)
    h = 1
    while h < size and modes:
        n = 2 * h
        squares = [u[:h]]  # u^(2^j) mod z^n
        q = np.zeros(n, dtype=dtype)
        dq = np.zeros(n, dtype=dtype)
        for zn, sh, k in modes:
            w, e, j = None, k - 1, 0
            while e:
                if j == len(squares):
                    squares.append(_mul_trunc(squares[-1], squares[-1], n - 1))
                if e & 1:
                    w = squares[j] if w is None else _mul_trunc(w, squares[j],
                                                               n - 1)
                e >>= 1
                j += 1
            top = min(len(w), n - sh)
            if top > 0:
                q[sh : sh + top] += zn * w[:top]
                dq[sh : sh + top] += (k * zn) * w[:top]
        if h > 1:  # F' = 1 - dq; g from mod z^(h/2) to mod z^h
            gh = np.zeros(h, dtype=dtype)
            gh[: len(g)] = g
            err = _mul_trunc(-dq[:h], gh, h - 1)
            err += gh
            err[0] -= 1.0
            g = gh - _mul_trunc(gh, err, h - 1)
        # u's new half is still zero, so F's new half is that of -Q u
        qu = _mul_trunc(q, u[:h], n - 1)[h:]
        u[h:n] = _mul_trunc(g, qu, h - 1)
        h = n
    out = u[: order + 1]
    return out.astype(np.complex128) if real else out.copy()


# highest order ``taylor_branch`` computes.  It pads the order to a power of
# two and convolves directly, so the cost grows faster than the order: the
# ``series`` command on the {3,6} leaf takes 0.6 s at order 4096 and 6 s at
# 32768
MAX_ORDER = 4096


def taylor_branch(p: ParamPoint, order: int) -> np.ndarray:
    """Taylor branch of the inverse-map equation, collapsed to z = x**s.

    Parameters
    ----------
    p : ParamPoint
        Leaf and parameter values.
    order : int
        Highest retained power of z = x**s, at most ``MAX_ORDER``.

    Returns
    -------
    np.ndarray
        The complex128 coefficients u_0..u_order (u_0 = 1, entry m that of
        x**(m*s)) satisfying U = 1 + sum_n zeta_n x**s_n U**s_n through
        order ``order``; those of a lower order are a prefix of them, to
        the bit.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in 0..{MAX_ORDER}, got {order}")
    return _newton_coeffs(p.zeta, p.leaf.collapsed_shifts, p.leaf.exponents,
                          order)


# ---------------------------------------------------------------------------
# Circle evaluation of the branch
#
# When rho_* > 1 the branch is analytic on the closed unit disk in z, and the
# scan's Gram blocks are trapezoid sums over samples of U on |z| = 1
# (``hessian_blocks.gram_block``).  The integrands are analytic only in the
# annulus 1/|z_*| < |z| < |z_*|, where z_* = rho_*^s e^{i phi} is the
# dominant singularity, so on a uniform grid of N points the error decays like
# |z_*|^(-N): N grows like 1/eps toward the critical surface.
#
# The samples therefore sit on graded nodes (Hale & Trefethen, SIAM J.
# Numer. Anal. 46, 2008): z = e^{i phi} (w + c)/(1 + c w), c = 1 - d, with w
# on a uniform n-point grid of the unit circle and weight |dz/dw|.  This
# automorphism of the disk keeps |z| = 1, packs the nodes near e^{i phi} and
# moves the image of z_* out to |w_*| ~ 1 + 2e/d (e = |z_*| - 1).  The price
# is paid on the far side of the circle, which is stretched by ~ 2/d: the
# other singularities and the poles of |dz/dw| move in to distance ~ d.  With
# d ~ sqrt(e) both distances are ~ sqrt(e), so n grows like eps^(-1/2).  In
# angles, w = e^{i theta} goes to
#
#     z = e^{i (phi + psi)},  tan(psi/2) = (d / (2 - d)) tan(theta/2),
#     |dz/dw| = d (2 - d) / (d^2 + 4 (1 - d) cos^2(theta/2)),
#
# so the nodes nearest the singularity keep accurately rounded angles; theta
# = 2 pi k/n is taken with k - n in place of k when k > n/2, in (-pi, pi].
# d = 1 is the uniform grid.  Grids are nested: the n-node grid is the even
# half of the 2n-node grid, so a table doubles by solving at the odd nodes.
#
# Each sample is found by Newton's method at its own node, started from
# whichever of two guesses leaves the smaller residual in the branch
# equation: the Taylor polynomial of the point's series, accurate away from
# z_*, or the square-root germ U ~ lam + kappa sqrt(1 - x/x_*) of the
# dominant representative (``DominantData``), accurate near it.  Both lie on
# the Taylor sheet, so one Newton solve of a few iterations replaces a
# continuation from the centre of the disk.
#
# A sample that still lands on the other sheet breaks the table's
# continuity.  Along the Taylor sheet |U_{k+1} - U_k| stays within
# |z_{k+1} - z_k| max(|U'_k|, |U'_{k+1}|) (at most sqrt 2 times it with a
# square-root singularity midway between the two nodes), while the two
# sheets are about 2 |kappa| sqrt|1 - z/z_*| apart; so the jump to a wrong
# sample, against that bound, grows as the grid refines and no doubling
# hides it.  A table refuses a jump above SHEET_JUMP times the bound.  A
# table wholly on the other sheet is continuous; its circle mean, the value
# at z = 0, is not U(0) = 1 (-1 on the one-mode leaf), and the table checks
# that mean too.
#
# The cost is kept down five ways.  For real zeta (phi = 0 or pi),
# U(conj z) = conj U(z): node n-k is the conjugate of node k, a table holds
# only the closed half k = 0..n/2, its weights counting nodes 0 < k < n/2
# twice.  Each node's z, weight, U and z U'/U are computed once, when it
# joins the table (40 B a node beyond U).  A sample leaves Newton once its
# own step is below the tolerance or its rounding floor, so the slow
# samples near the dominant singularity do not drag the converged ones
# along.  Integer powers are
# formed by multiplication (``_int_pow_values``), not by complex ``**``.
# And no kernel issues one numpy call per power: the rows a * r^i of a
# geometric family come by doubling (``_power_rows``), the order-250 Taylor
# seed by Paterson-Stockmeyer (``_taylor_values``: 16 baby powers, one
# matrix product with the coefficient blocks, Horner in z^16), each over
# chunks of NODE_CHUNK nodes, so that their temporaries stay at a few dozen
# rows of one chunk whatever the grid size.
# ---------------------------------------------------------------------------

# above this many nodes a table is refused before it is allocated.  A {3,6}
# table doubled to 2**21 nodes under the scan's blocks peaks at 177 MB for
# real zeta (2**20 + 1 nodes held), 329 MB for complex zeta (tracemalloc),
# of which its rule, at 56 B a held node, is 59 MB and 117 MB
MAX_CIRCLE_GRID = 2**21

# nodes of a table's first grid.  Points with rho_*^s - 1 above ~1e-3 pass
# their checks on it.  A start at 512 stops the 9 points of the shipped
# {3,6} scan with delta >= 0.01 there and saves no time (0.115-0.136 s a
# scan against 0.112-0.128 s at 1024, three runs each); 1024 leaves those
# points' grids, and with them their Gram blocks, as they were
N_START = 1024

# grading depth d = GRADE * sqrt(2 e), at most 1 (uniform).  d = sqrt(2 e)
# balances the two distances above.  The blocks' aliasing contract sizes
# the scan's grids: on the 26 points of the {3,6} scan down to delta =
# 1e-6, GRADE 1, 1.5, 2 and 3 take 153600, 201728, 267264 and 396288 nodes
# in all.  Any change of GRADE moves every graded Gram block within its
# quadrature error, and the shipped outputs with it
GRADE = 2.0

# Newton step tolerance at the circle samples, relative to 1 + max|y|
_NEWTON_TOL = 1e-13
# order of the Taylor series that seeds a table's samples.  Away from z_*
# the polynomial is the closer of the two seeds (``_branch_values``), so the
# order decides the samples' last bits, and it is fixed
SEED_ORDER = 250
# largest jump between adjacent samples of a table, in units of
# |z_{k+1} - z_k| max(|U'_k|, |U'_{k+1}|).  Honest tables read at most 1.0
# when a node lies on the ray of z_* (every graded table, and uniform ones
# for real zeta: {3,6} and Leaf (2,) down to delta = 1e-7), up to 1.3 on
# uniform complex ones (sqrt 2 with z_* on the circle midway between two
# nodes); a single wrong-sheet sample reads 20 or more on the first grid,
# more on each doubling
SHEET_JUMP = 2.0


def _int_pow_values(vals: np.ndarray, k: int) -> np.ndarray:
    """vals**k for integer k >= 0 by binary powering (deterministic rounding).

    For k = 1 the input array itself is returned, not a copy.
    """
    out = None
    base = vals
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return np.ones_like(vals) if out is None else out


# nodes per step of the per-node kernels (``_taylor_values``, the
# continuity test, ``hessian_blocks.gram_block``): their temporaries hold at
# most a few dozen rows of this length
NODE_CHUNK = 8192
# baby steps of ``_taylor_values``: sqrt of the seed's 251 coefficients,
# rounded to a power of two
_BABY = 16


def _power_rows(first: np.ndarray, ratio: np.ndarray,
                count: int) -> np.ndarray:
    """Rows first * ratio**i for i < count, as a (count, len) array.

    Built by doubling: rows k..2k-1 are rows 0..k-1 times ratio**k, and
    ratio**2k is the square of ratio**k, so about 2 log2(count) numpy calls
    replace count - 1, for the same number of products.  Row i carries
    about as many rounded products as the chain first * ratio * ratio * ...
    """
    out = np.empty((count, len(ratio)), dtype=np.result_type(first, ratio))
    out[0] = first
    k, power = 1, ratio
    while k < count:
        m = min(k, count - k)
        np.multiply(out[:m], power, out=out[k:k + m])
        k += m
        if k < count:
            power = power * power
    return out


def _taylor_values(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The polynomial sum_i coeffs[i] z^i at the points ``z``, by
    Paterson-Stockmeyer.

    With the coefficients cut into blocks of _BABY, block a gives
    Q_a(z) = sum_b coeffs[_BABY a + b] z^b, all of them at once as one
    matrix product with the baby powers z^0..z^(_BABY-1); the sum is
    then Horner's rule in z^_BABY over the Q_a.  For 251 coefficients
    that is 16 blocks and 16 Horner steps, in place of 250.
    """
    blocks = -(-len(coeffs) // _BABY)
    cb = np.zeros(blocks * _BABY, dtype=np.complex128)
    cb[: len(coeffs)] = coeffs
    cb = cb.reshape(blocks, _BABY)
    out = np.empty(len(z), dtype=np.complex128)
    for lo in range(0, len(z), NODE_CHUNK):
        zc = z[lo : lo + NODE_CHUNK]
        baby = _power_rows(np.ones(len(zc)), zc, _BABY)
        q = cb @ baby
        giant = baby[-1] * zc
        y = q[-1]
        for row in q[-2::-1]:
            y *= giant
            y += row
        out[lo : lo + NODE_CHUNK] = y
    return out


def _circle_nodes(k: np.ndarray, n: int, depth: float = 1.0,
                  rot: complex = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_k and weights |dz/dw|_k of the n-node grid of grading depth
    ``depth`` centred on ``rot``, for the node indices ``k`` (0 <= k < n)."""
    k = np.array(k)
    k[k > n // 2] -= n
    theta = 2.0 * np.pi * k / n
    if depth >= 1.0:
        return rot * np.exp(1j * theta), np.ones(len(k))
    half = 0.5 * theta
    psi = 2.0 * np.arctan(depth / (2.0 - depth) * np.tan(half))
    weight = depth * (2.0 - depth) / (
        depth * depth + 4.0 * (1.0 - depth) * np.cos(half) ** 2)
    return rot * np.exp(1j * psi), weight


def _branch_values(p: ParamPoint, z: np.ndarray, series: np.ndarray,
                   dom: "DominantData | None" = None) -> tuple[np.ndarray, int]:
    """Values of the Taylor branch at the points ``z`` of the closed disk,
    and the number of Newton iterations the slowest of them took.

    Each sample starts from the Taylor polynomial with the coefficients
    ``series`` at its point or, when ``dom`` is given, from the germ
    lam + kappa sqrt(1 - (z/z_*)^(1/s)) of its representative (z_* = x_*^s),
    whichever leaves the smaller residual in y = 1 + sum zeta_n z^shift_n
    y^k_n.  Newton's method on that equation then runs at the points
    themselves.  The first iteration runs on every sample and fixes the
    tolerance _NEWTON_TOL * (1 + max|y|); after each iteration the samples
    whose step is below it keep their value and drop out, as does a sample
    whose step is below its rounding floor 16 ulp (1 + |y|) / |F_y|, which
    near z_* exceeds the tolerance, |F_y| shrinking like sqrt|1 - z/z_*|.

    Raises
    ------
    NoConvergence
        If some sample is still moving after 60 iterations.
    """
    kexps = p.leaf.exponents
    coef = [zn * _int_pow_values(z, sh)
            for zn, sh in zip(p.zeta, p.leaf.collapsed_shifts)]

    def residual(y):
        f = y - 1.0
        for a, k in zip(coef, kexps):
            f -= a * _int_pow_values(y, k)
        return np.abs(f)

    y = _taylor_values(series, z)
    if dom is not None:
        rep = dom.representative
        germ = rep.lam + rep.kappa * np.sqrt(
            1.0 - (z / rep.x_star**dom.s) ** (1.0 / dom.s))
        better = residual(germ) < residual(y)
        y[better] = germ[better]

    floor = 16.0 * np.finfo(np.float64).eps
    live = None  # indices of the samples still moving; None: all
    ya = y
    for it in range(1, 61):
        f = ya - 1.0
        fy = np.ones_like(ya)
        for a, k in zip(coef, kexps):
            t = a * _int_pow_values(ya, k - 1)
            f -= t * ya
            fy -= k * t
        step = f / fy
        ya = ya - step
        if live is None:
            thr = _NEWTON_TOL * (1.0 + np.abs(ya).max())
            y, live = ya, np.arange(len(ya))
        else:
            y[live] = ya
        size = np.abs(step)
        moving = ~((size < thr)
                   | (size * np.abs(fy) < floor * (1.0 + np.abs(ya))))
        if not moving.any():
            return y, it
        if not moving.all():
            live, ya = live[moving], ya[moving]
            coef = [a[moving] for a in coef]
    raise NoConvergence("circle evaluation: Newton stalled at the circle nodes")


class CirclePowerTable:
    """A quadrature rule on the unit circle in z, on nodes graded toward the
    dominant singularity and doubled until U's samples pass their checks;
    coefficient rows of U**p on the uniform grid.

    ``dom``, the point's ``DominantData``, places the dominant singularity
    z_* = rho_*^s e^{i phi}: the grid is centred on e^{i phi} with depth
    d = min(1, GRADE * sqrt(2 (|z_*| - 1))) (for real zeta on +1 or -1, by
    the sign of Re z_*, so that the grid stays closed under conjugation).
    Its germ and ``series``, the coefficient array of the point's Taylor
    branch (``taylor_branch(p, SEED_ORDER)`` in its place when it is
    absent), seed the samples (``_branch_values``); without ``dom`` the
    grid is uniform and the samples start from the Taylor polynomial alone.

    The table holds, in circular order, the nodes ``z``, their ``weight``
    m_k |dz/dw|_k / n (summing to 1), ``values`` U(z_k) and ``zdlog``
    z_k U'(z_k) / U(z_k): all n nodes for complex zeta (m_k = 1); for real zeta
    (``half``), where node n-k is the conjugate of node k, the closed half
    k = 0..n/2 (m_k = 2 but at the ends).  The first grid has N_START
    nodes, or the smallest power of two with at least 2*(order+1) if that
    is more.  Each grid's samples must be continuous along the circle: held
    nodes k, k+1 in circular order (and n-1, 0 for complex zeta) have
    |U_{k+1} - U_k| <= SHEET_JUMP |z_{k+1} - z_k| max(|U'_k|, |U'_{k+1}|).
    The grid doubles, solving only the new odd nodes it holds, until two
    more checks hold: the circle mean sum_k weight_k U(z_k) (its real part
    for real zeta) is U(0) = 1 to 1e-8; and ``accept(table)``, when given
    (the scan's Gram blocks, whose aliasing contract then sizes the grid),
    returns without raising TailNotConverged.  ``n_grid`` is the final node
    count, ``doublings`` the number of doublings, ``newton_iterations`` the
    most Newton iterations any node took and ``check_error`` the circle
    mean's error |mean - 1| on the final grid.  Requires the Taylor branch
    to be analytic beyond |z| = 1, i.e. rho_*(zeta)**s > 1.

    Raises
    ------
    GridTooLarge
        If the next grid would exceed MAX_CIRCLE_GRID nodes; it is refused
        before it is allocated, with the reason of the last failed check.
        A table wholly on the other sheet ends so: its circle mean stays
        off 1.
    WrongSheet
        If some grid's samples jump between adjacent nodes.
    NoConvergence
        If Newton stalls at some node.
    """

    def __init__(self, p: ParamPoint, order: int,
                 dom: "DominantData | None" = None,
                 accept: Callable[["CirclePowerTable"], object] | None = None,
                 *, series: np.ndarray | None = None):
        self.param = p
        self.order = order
        self.dom = dom
        self.half = p.is_real()
        self.depth, self.rot = 1.0, 1.0
        if dom is not None:
            z_star = dom.rho_star**dom.s * cmath.exp(1j * dom.phi)
            self.depth = min(1.0, GRADE * math.sqrt(2.0 * (abs(z_star) - 1.0)))
            self.rot = (math.copysign(1.0, z_star.real) if self.half
                        else z_star / abs(z_star))
        self.series = taylor_branch(p, SEED_ORDER) if series is None else series
        n = N_START
        while n < 2 * (order + 1):
            n *= 2
        self.n_grid = self.doublings = self.newton_iterations = 0
        why = ""
        while True:
            if n > MAX_CIRCLE_GRID:
                raise GridTooLarge(
                    f"circle grid of {n} points exceeds MAX_CIRCLE_GRID = "
                    f"{MAX_CIRCLE_GRID}" + (f" ({why})" if why else ""))
            self._refine(n)
            self._check_continuity()
            mean = (self.weight * self.values).sum()
            err = self.check_error = abs((mean.real if self.half else mean)
                                         - 1.0)
            if err < 1e-8:
                try:
                    if accept is not None:
                        accept(self)
                    return
                except TailNotConverged as exc:
                    why = str(exc)
            else:
                why = (f"circle mean of U is off U(0) = 1 by {err:.2e}; "
                       f"wrong sheet or insufficient grid")
            n *= 2
            self.doublings += 1

    def _refine(self, n: int) -> None:
        """The rule at the held nodes of the n-node grid: all of the first
        grid, or the new odd nodes of a doubled grid between the old ones,
        whose weights halve.  z U' = sum_n sh_n zeta_n z^sh_n U^k_n / F_y,
        by differentiating the branch equation, with its Newton derivative
        F_y = 1 - sum_n k_n zeta_n z^sh_n U^(k_n - 1).
        """
        held = n // 2 + 1 if self.half else n
        k = np.arange(held) if self.n_grid == 0 else np.arange(1, held, 2)
        # the rule is allocated first, so that the space the solve's
        # temporaries free stays in one piece for the Gram rows; the old
        # rule moves to the even nodes and is freed before the solve
        rule = [np.empty(held, dtype=t) for t in (complex, float, complex,
                                                  complex)]
        if self.n_grid:
            rule[0][0::2], rule[2][0::2] = self.z, self.values
            rule[3][0::2] = self.zdlog
            np.multiply(self.weight, 0.5, out=rule[1][0::2])
            del self.z, self.weight, self.values, self.zdlog
        z, weight = _circle_nodes(k, n, self.depth, self.rot)
        if self.half:  # node k, 0 < k < n/2, stands for itself and node n-k
            weight[(k > 0) & (k < n // 2)] *= 2.0
        u, iters = _branch_values(self.param, z, self.series, self.dom)
        num = np.zeros_like(u)
        den = np.ones_like(u)
        for zn, sh, kn in zip(self.param.zeta, self.param.leaf.collapsed_shifts,
                              self.param.leaf.exponents):
            t = zn * _int_pow_values(z, sh) * _int_pow_values(u, kn - 1)
            num += sh * t * u
            den -= kn * t
        at = slice(1, None, 2) if self.n_grid else slice(None)
        for a, b in zip(rule, (z, weight / n, u, num / (den * u))):
            a[at] = b
        self.z, self.weight, self.values, self.zdlog = rule
        self.newton_iterations = max(self.newton_iterations, iters)
        self.n_grid = n

    def _check_continuity(self) -> None:
        """Refuse the grid if adjacent held samples jump by more than
        SHEET_JUMP |z_{k+1} - z_k| max(|U'_k|, |U'_{k+1}|), over chunks of
        NODE_CHUNK nodes that share their end nodes.  For real zeta the
        pairs of the held half stand for their conjugates too; for complex
        zeta the last pair is (n-1, 0)."""
        held, n = len(self.values), self.n_grid
        chunks = [(lo, slice(lo, lo + NODE_CHUNK + 1))
                  for lo in range(0, held - 1, NODE_CHUNK)]
        if not self.half:
            chunks.append((held - 1, [-1, 0]))
        for lo, at in chunks:
            z, u = self.z[at], self.values[at]
            slope = np.abs(self.zdlog[at] * u)  # |U'|, as |z| = 1
            jump = np.abs(np.diff(u))
            limit = np.abs(np.diff(z)) * np.maximum(slope[:-1], slope[1:])
            bad = np.flatnonzero(jump > SHEET_JUMP * limit)
            if bad.size:
                i = bad[0]
                ratio = jump[i] / limit[i] if limit[i] else math.inf
                raise WrongSheet(
                    f"circle samples jump between nodes {lo + i} and "
                    f"{(lo + i + 1) % n} of {n}: |dU| is {ratio:.3g} times "
                    f"|dz| max|U'| (limit SHEET_JUMP = {SHEET_JUMP:g}); "
                    f"wrong sheet")

    def rows(self, p_list: Iterable[int]) -> np.ndarray:
        """Array of shape (len(p_list), order+1): row i holds R_{p_i}(m).

        Needs the uniform grid, whose samples the inverse FFT turns into
        coefficients; for real zeta the full circle is rebuilt from the held
        half by conjugation.
        """
        if self.depth < 1.0:
            raise ValueError("coefficient rows need the uniform grid")
        ps = [int(v) for v in p_list]
        if any(v < 1 for v in ps):
            raise ValueError("powers must be >= 1")
        vals = self.values
        if self.half:
            vals = np.concatenate((vals, np.conj(vals[-2:0:-1])))
        out = np.empty((len(ps), self.order + 1), dtype=np.complex128)
        cur, cur_p = None, 0
        for idx in np.argsort(ps, kind="stable"):
            if ps[idx] != cur_p:
                step = _int_pow_values(vals, ps[idx] - cur_p)
                cur, cur_p = step if cur is None else cur * step, ps[idx]
            out[idx] = (np.fft.fft(cur) / self.n_grid)[: self.order + 1]
        return out


def branch_power_rows(p: ParamPoint, p_list: Sequence[int], order: int,
                      alpha: float = 1.0) -> np.ndarray:
    """Coefficient rows R_p(m)/alpha**p, m = 0..order, for each requested
    power p, by the convolution chain of U/alpha.

    Deep rows on a subcritical point come from
    ``CirclePowerTable(p, order).rows(p_list)`` instead.
    """
    if not p_list:
        raise ValueError("p_list must be nonempty")
    base = taylor_branch(p, order) / alpha
    out = np.empty((len(p_list), order + 1), dtype=np.complex128)
    wanted = {}
    for i, pv in enumerate(p_list):
        wanted.setdefault(pv, []).append(i)
    cur, cur_p = base, 1
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
