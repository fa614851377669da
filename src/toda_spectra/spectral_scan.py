"""Subcritical approach scans: spike vectors, eigenvalue runs, scaling fits.

Along a path zeta(delta) approaching the critical locus, each symmetry
block q of the weighted Gram operator develops exactly one large
eigenvalue.  This module computes, per grid point and block,

    mu_1 .. mu_k   eigenvalues of the weighted block G~,
    d~, Gamma      the rank-one spike direction and its squared norm,
    C~             the deflated remainder G~ - L * (d~ x d~),

together with the logarithmic scale L(eps) that the top eigenvalue tracks
(mu_1 = Gamma * L + O(1)), and fits mu_1 against both L and log(1/delta).
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .branch_points import DominantData, dominant_data
from .errors import InsufficientData, TodaSpectraError
from .hessian_blocks import (
    RenormConfig,
    check_alpha_admissible,
    eigenvalues,
    gram_block,
)
from .series_engine import SEED_ORDER, CirclePowerTable, taylor_branch

__all__ = [
    "BlockSpectrum",
    "ScanPoint",
    "FitReport",
    "log_scale",
    "spike_vector",
    "scan_path",
    "fit_log_scaling",
]

K_MAX = 8
BOUNDED_TOL = 0.10


def log_scale(rho_star: float, s: int) -> tuple[float, float]:
    """Midpoint-cutoff logarithmic scale (eta, L).

    Uses rho = (1 + rho_*)/2, eta = (rho * rho_*)^(-2s) and the closed form
    L = -log(1 - eta)/eta.  As rho_* -> 1, L = log(1/(rho_* - 1)) + O(1).
    """
    if not rho_star > 1:
        raise ValueError("log_scale needs a subcritical point (rho_* > 1)")
    rho = 0.5 * (1.0 + rho_star)
    eta = (rho * rho_star) ** (-2 * s)
    L = -math.log1p(-eta) / eta
    return eta, L


def spike_vector(dom: DominantData, cfg: RenormConfig) -> tuple[np.ndarray, float]:
    """Rank-one spike d~(j) = e^{-ij phi} (s/sqrt(p_j)) conj(A_{p_j}) / w_j.

    The amplitude-to-weight ratio is accumulated iteratively through
    conj(A_{p_{j+1}})/alpha^{p_{j+1}} = (conj(lam)/alpha)^s * (...), so no
    alpha^{p_j} is ever formed.  Returns (d~, Gamma = ||d~||^2).
    """
    if cfg.s != dom.s:
        raise ValueError(f"config s={cfg.s} does not match dominant data s={dom.s}")
    rep = dom.representative
    kap = complex(rep.kappa).conjugate()
    lam = complex(rep.lam).conjugate()
    s = dom.s
    J = cfg.J
    d = np.zeros(J + 1, dtype=np.complex128)
    # t_j = conj(lam)^(p_j - 1) / alpha^(p_j), stepped by (conj(lam)/alpha)^s
    t = lam ** (cfg.q - 1) / cfg.alpha**cfg.q
    step = (lam / cfg.alpha) ** s
    pref = -math.sqrt(s) / (2.0 * math.sqrt(math.pi)) * kap
    for j in range(J + 1):
        pj = cfg.q + j * s
        d[j] = cmath.exp(-1j * j * dom.phi) * pref * pj ** (-1.0 - cfg.beta) * t
        t *= step
    return d, float(np.vdot(d, d).real)


@dataclass
class BlockSpectrum:
    """Spectral data of one symmetry block at one scan point."""

    q: int
    delta: float
    epsilon: float
    L: float
    mu: np.ndarray
    spike: np.ndarray
    gamma: float
    c_norm: float
    c_hs: float


@dataclass
class ScanPoint:
    """One (delta, q) cell of a scan: a spectrum, or the error that stopped it.

    ``n_grid``, ``doublings`` and ``newton_iterations`` are the final node
    count of the point's circle table, the doublings that reached it and the
    most Newton iterations any of its nodes took (0 when no table was
    completed); ``check_error`` is the error |mean - 1| of the table's
    circle mean of U against U(0) = 1 on that grid (None when no table was
    completed).
    """

    delta: float
    q: int
    spectrum: BlockSpectrum | None
    status: str = "ok"
    detail: str = ""
    n_grid: int = 0
    doublings: int = 0
    newton_iterations: int = 0
    check_error: float | None = None

    @property
    def ok(self) -> bool:
        return self.spectrum is not None


def scan_path(path, delta_grid, blocks: list[RenormConfig],
              *, threads: int | None = None) -> list[ScanPoint]:
    """Run the block-spectrum scan over a delta grid.

    ``path`` maps delta to a ParamPoint; ``blocks`` holds one
    ``RenormConfig`` per symmetry block to compute, all on the path's s
    and equal in everything but q, and the scan's points list them in
    that order; each block keeps its ``K_MAX`` leading eigenvalues.  Each
    point evaluates U once, on a circle grid graded toward its dominant
    singularity z_* = rho_*^s e^{i phi} (``dominant_data``) and seeded from
    that point's germ and its Taylor series to order ``SEED_ORDER``
    (``CirclePowerTable``), and shares it across the blocks: the grid
    doubles until its circle mean and every block's aliasing contract
    (``gram_block``) hold, each grid's samples continuous along the
    circle.  Its node count grows like eps^(-1/2).  Grid points are
    independent jobs, run on ``threads`` threads (default: the CPU count,
    at most 4); with more than one thread they are submitted deepest
    (smallest delta) first, and output order follows the grid either way,
    so results do not depend on scheduling.  A point or block that fails
    certification, convergence, the sheet check or the grid ceiling is
    recorded with the error's name and skipped.  For real zeta the blocks
    are real symmetric (the spike's phases e^{-ij phi} are +-1 up to
    rounding), and their real parts are solved.

    Raises
    ------
    ValueError
        If ``blocks`` is empty, its configs differ in more than q, or their
        s is not the s of the path's leaf.  These are caller errors, not
        per-point failures: the leaf's s is checked at each point before
        its ``dominant_data``.
    """
    if not blocks:
        raise ValueError("scan_path needs at least one block config")
    if any(replace(c, q=blocks[0].q) != blocks[0] for c in blocks):
        raise ValueError("scan_path blocks may differ only in q")
    deltas = [float(d) for d in delta_grid]
    threads = threads or min(4, os.cpu_count() or 1)
    deepest = deltas.index(min(deltas)) if deltas else -1

    def run_point(idx: int) -> list[ScanPoint]:
        delta = deltas[idx]
        try:
            param = path(delta)
            if blocks[0].s != param.leaf.s:
                raise ValueError(f"block configs have s={blocks[0].s}, the "
                                 f"leaf at delta={delta:g} has s={param.leaf.s}")
            dom = dominant_data(param)
            if not dom.rho_star > 1:
                return [ScanPoint(delta, c.q, None, "supercritical",
                                  f"rho_*={dom.rho_star:.6g}") for c in blocks]
            series = taylor_branch(param, SEED_ORDER)
            if idx == deepest:
                check_alpha_admissible(param, dom, series, blocks[0].alpha)
            _, L = log_scale(dom.rho_star, dom.s)
            eps = dom.rho_star - 1.0
            grams = []

            def accept(table):
                grams[:] = [gram_block(table, c) for c in blocks]

            # order 0: the blocks need the samples only, no coefficient rows
            table = CirclePowerTable(param, 0, dom, accept, series=series)
        except TodaSpectraError as e:
            return [ScanPoint(delta, c.q, None, type(e).__name__, str(e))
                    for c in blocks]
        grid = dict(n_grid=table.n_grid, doublings=table.doublings,
                    newton_iterations=table.newton_iterations,
                    check_error=table.check_error)
        out = []
        for c, G in zip(blocks, grams):
            try:
                d, gamma = spike_vector(dom, c)
                C = G - L * np.outer(d, d.conj())
                if param.is_real():
                    G, C = G.real, C.real
                mu = eigenvalues(G)[:K_MAX]
                ev_C = eigenvalues(C)
                block = BlockSpectrum(
                    q=c.q, delta=delta, epsilon=eps, L=L, mu=mu, spike=d,
                    gamma=gamma, c_norm=float(np.abs(ev_C).max()),
                    c_hs=float(np.linalg.norm(C)),
                )
                out.append(ScanPoint(delta, c.q, block, **grid))
            except TodaSpectraError as e:
                out.append(ScanPoint(delta, c.q, None, type(e).__name__,
                                     str(e), **grid))
        return out

    if threads > 1 and len(deltas) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            futures = {i: ex.submit(run_point, i)
                       for i in sorted(range(len(deltas)), key=deltas.__getitem__)}
            chunks = [futures[i].result() for i in range(len(deltas))]
    else:
        chunks = [run_point(i) for i in range(len(deltas))]
    return [pt for chunk in chunks for pt in chunk]


@dataclass
class FitReport:
    """Scaling fit of one block across the scan grid.

    ``slope``/``intercept``/``r_squared`` fit mu_1 against L(eps) on the
    last delta-decade; ``slope_log_delta``/``r_squared_log_delta`` repeat
    the fit against log(1/delta).  ``gamma_limit`` is Gamma at the smallest delta — the
    theorem's constant is the eps -> 0 limit, so both it and the fitted
    slope are reported without adjudicating which is closer.

    ``bounded[k]`` (k >= 2) is True when the growth of mu_k toward the
    critical end dies out from the second-to-last delta-decade to the last
    (rule in ``fit_log_scaling``): a level converging like
    A - B/log(1/delta) passes, one growing like log(1/delta) fails.
    ``decade_ratios[k]`` (k >= 1) lists, over every whole decade of delta
    from the far end inward, each decade's increase of mu_k divided by the
    increase over the decade before it.
    """

    q: int
    slope: float
    intercept: float
    r_squared: float
    slope_log_delta: float
    r_squared_log_delta: float
    gamma_limit: float
    mu1_over_L_final: float
    max_higher: dict[int, float]
    bounded: dict[int, bool]
    decade_ratios: dict[int, list[float]]


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_log_scaling(scan: list[ScanPoint]) -> dict[int, FitReport]:
    """Per-block scaling fits of the eigenvalue trajectories.

    Requires at least 6 successful points spanning two decades of delta
    per block.  Boundedness of mu_k (k >= 2) is operationalized as growth
    that dies out: mu_k, read at delta_min, 10 delta_min and 100 delta_min
    (linear in log delta between grid points), must increase over the last
    decade by no more than ``1 - BOUNDED_TOL`` times its increase over the
    decade before, or not at all.  Eigenvalues below the spike are capped
    by interlacing and approach their caps like A - B/L, so the raw size of
    the last-decade increase cannot separate them from mu_1; its decay from
    one decade to the next can.

    Raises
    ------
    InsufficientData
        Fewer than 6 good points or a delta span under two decades.
    """
    by_q: dict[int, list[BlockSpectrum]] = {}
    for pt in scan:
        if pt.ok:
            by_q.setdefault(pt.q, []).append(pt.spectrum)
    if not by_q:
        raise InsufficientData("no successful scan points")
    reports = {}
    for q, specs in sorted(by_q.items()):
        specs = sorted(specs, key=lambda b: b.delta)
        deltas = np.array([b.delta for b in specs])
        if len(specs) < 6 or deltas[-1] / deltas[0] < 99.0:
            raise InsufficientData(
                f"block q={q}: {len(specs)} points over "
                f"{deltas[-1] / deltas[0]:.3g}x in delta; need >= 6 points "
                f"and >= 2 decades"
            )
        mu1 = np.array([b.mu[0] for b in specs])
        L = np.array([b.L for b in specs])
        decade = deltas <= 10.0 * deltas[0]
        slope, intercept, r2 = _linfit(L[decade], mu1[decade])
        s2, _, r2d = _linfit(np.log(1.0 / deltas[decade]), mu1[decade])
        k_have = min(len(b.mu) for b in specs)
        log_d = np.log(deltas)
        # whole decades spanned; two at least (the span may fall just short)
        decades = max(2, int(math.log10(deltas[-1] / deltas[0]) + 1e-9))
        log_ends = math.log(deltas[0]) + math.log(10.0) * np.arange(decades + 1)
        max_higher = {}
        bounded = {}
        decade_ratios = {}
        for k in range(1, k_have + 1):
            muk = np.array([b.mu[k - 1] for b in specs])
            # growth of mu_k over each decade, from the far end inward
            grow = -np.diff(np.interp(log_ends, log_d, muk))[::-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                decade_ratios[k] = [float(r) for r in grow[1:] / grow[:-1]]
            if k == 1:
                continue
            max_higher[k] = float(muk.max())
            # the last decade's growth must be <= 0 or shrink from the
            # growth over the decade before
            limit = max(0.0, (1.0 - BOUNDED_TOL) * grow[-2])
            bounded[k] = bool(grow[-1] <= limit)
        reports[q] = FitReport(
            q=q, slope=slope, intercept=intercept, r_squared=r2,
            slope_log_delta=s2, r_squared_log_delta=r2d,
            gamma_limit=specs[0].gamma,
            mu1_over_L_final=float(mu1[0] / L[0]),
            max_higher=max_higher, bounded=bounded,
            decade_ratios=decade_ratios,
        )
    return reports
