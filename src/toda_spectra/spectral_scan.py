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
    tail_cutoff_for,
)
from .series_engine import CirclePowerTable

__all__ = [
    "BlockSpectrum",
    "ScanPoint",
    "FitReport",
    "log_scale",
    "spike_vector",
    "scan_path",
    "fit_log_scaling",
    "default_threads",
]

K_MAX_DEFAULT = 8
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
    if kap == 0:
        return d, 0.0
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
    """One (delta, q) cell of a scan: a spectrum, or the error that stopped it."""

    delta: float
    q: int
    spectrum: BlockSpectrum | None
    status: str = "ok"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.spectrum is not None


def default_threads() -> int:
    env = os.environ.get("TODA_SPECTRA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


def scan_path(path, delta_grid, cfg: RenormConfig, q_list,
              *, k_max: int = K_MAX_DEFAULT, order: int = 250,
              threads: int | None = None) -> list[ScanPoint]:
    """Run the block-spectrum scan over a delta grid.

    ``path`` maps delta to a ParamPoint; ``cfg`` supplies
    J/alpha/beta/s/tail_tol (its q is overridden per block).  Each point
    evaluates U once on a circle grid sized by the decay rate
    eta = rho_*^{-2s} there (``tail_cutoff_for``) and shares it across the
    q blocks.  Grid points are independent jobs; output order follows the
    grid, so results do not depend on scheduling.  A point or block that
    fails certification or convergence is recorded with the error's name
    and skipped.
    """
    deltas = [float(d) for d in delta_grid]
    qs = list(q_list)
    threads = threads or default_threads()
    deepest = deltas.index(min(deltas)) if deltas else -1

    def run_point(idx: int) -> list[ScanPoint]:
        delta = deltas[idx]
        try:
            param = path(delta)
            dom = dominant_data(param, order)
            if not dom.rho_star > 1:
                return [ScanPoint(delta, q, None, "supercritical",
                                  f"rho_*={dom.rho_star:.6g}") for q in qs]
            if idx == deepest:
                check_alpha_admissible(param, dom.rho_star, cfg.alpha)
            _, L = log_scale(dom.rho_star, dom.s)
            eps = dom.rho_star - 1.0
            table = CirclePowerTable(
                param, tail_cutoff_for(dom.rho_star, dom.s, cfg.tail_tol) + cfg.J)
        except TodaSpectraError as e:
            return [ScanPoint(delta, q, None, type(e).__name__, str(e))
                    for q in qs]
        out = []
        for q in qs:
            try:
                cq = replace(cfg, q=q)
                G = gram_block(table, cq, use_weights=True)
                d, gamma = spike_vector(dom, cq)
                C = G.entries - L * np.outer(d, d.conj())
                mu = eigenvalues(G)[:k_max]
                ev_C = np.linalg.eigvalsh(C)
                block = BlockSpectrum(
                    q=q, delta=delta, epsilon=eps, L=L, mu=mu, spike=d,
                    gamma=gamma, c_norm=float(np.abs(ev_C).max()),
                    c_hs=float(np.linalg.norm(C)),
                )
                out.append(ScanPoint(delta, q, block))
            except TodaSpectraError as e:
                out.append(ScanPoint(delta, q, None, type(e).__name__, str(e)))
        return out

    if threads > 1 and len(deltas) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            chunks = list(ex.map(run_point, range(len(deltas))))
    else:
        chunks = [run_point(i) for i in range(len(deltas))]
    return [pt for chunk in chunks for pt in chunk]


@dataclass
class FitReport:
    """Scaling fit of one block across the scan grid.

    ``slope``/``intercept``/``r_squared`` fit mu_1 against L(eps) on the
    last delta-decade; the ``log_delta`` triple repeats the fit against
    log(1/delta).  ``gamma_limit`` is Gamma at the smallest delta — the
    theorem's constant is the eps -> 0 limit, so both it and the fitted
    slope are reported without adjudicating which is closer.

    ``bounded[k]`` (k >= 2) is True when the growth of mu_k toward the
    critical end dies out from the second-to-last delta-decade to the last
    (rule in ``fit_log_scaling``): a level converging like
    A - B/log(1/delta) passes, one growing like log(1/delta) fails.
    """

    q: int
    slope: float
    intercept: float
    r_squared: float
    slope_log_delta: float
    intercept_log_delta: float
    r_squared_log_delta: float
    gamma_limit: float
    mu1_over_L_final: float
    max_higher: dict[int, float]
    bounded: dict[int, bool]


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_log_scaling(scan: list[ScanPoint],
                    bounded_tol: float = BOUNDED_TOL) -> dict[int, FitReport]:
    """Per-block scaling fits of the eigenvalue trajectories.

    Requires at least 6 successful points spanning two decades of delta
    per block.  Boundedness of mu_k (k >= 2) is operationalized as growth
    that dies out: mu_k, read at delta_min, 10 delta_min and 100 delta_min
    (linear in log delta between grid points), must increase over the last
    decade by no more than ``1 - bounded_tol`` times its increase over the
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
        s2, i2, r2d = _linfit(np.log(1.0 / deltas[decade]), mu1[decade])
        k_have = min(len(b.mu) for b in specs)
        log_d = np.log(deltas)
        log_ends = math.log(deltas[0]) + math.log(10.0) * np.arange(3)
        max_higher = {}
        bounded = {}
        for k in range(2, k_have + 1):
            muk = np.array([b.mu[k - 1] for b in specs])
            max_higher[k] = float(muk.max())
            # mu_k at delta_min, 10 and 100 delta_min: the last decade's
            # growth m0 - m1 must be <= 0 or shrink from the previous m1 - m2
            m0, m1, m2 = np.interp(log_ends, log_d, muk)
            limit = max(0.0, (1.0 - bounded_tol) * (m1 - m2))
            bounded[k] = bool(m0 - m1 <= limit)
        reports[q] = FitReport(
            q=q, slope=slope, intercept=intercept, r_squared=r2,
            slope_log_delta=s2, intercept_log_delta=i2, r_squared_log_delta=r2d,
            gamma_limit=specs[0].gamma,
            mu1_over_L_final=float(mu1[0] / L[0]),
            max_higher=max_higher, bounded=bounded,
        )
    return reports
