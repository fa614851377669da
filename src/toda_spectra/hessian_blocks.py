"""Mode-indexed Hessian blocks, tail-indexed Gram blocks, and their spectra.

Two equivalent constructions of the same operator family live here.  The
kernel oracle expands

    K(x, x') = log(1 - x conj(x') U(x) conj(U(x')))

directly and reads off H_{mn} = -mn [x^m][conj(x')^n] K; it is exact but
only affordable at small sizes.  The Gram route has, per symmetry class q
(indices p_j = q + j*s), the entries

    G_{j1 j2} = sum_m ((p_{j2} + s m)^2 / sqrt(p_{j1} p_{j2}))
                * conj(R_{p_{j1}}(m + j2 - j1)) * R_{p_{j2}}(m),

optionally renormalized by the weights w_j = p_j^{3/2+beta} alpha^{p_j}.
With f_j = z^j U^{p_j}, the sum is the coefficient inner product of
(q + s z d/dz) f_{j1} and (q + s z d/dz) f_{j2}, so on a subcritical point
(U analytic on the closed unit circle in z) Parseval turns it into a
trapezoid sum over samples of U on that circle (``gram_block``).  The
weighted assembly works with V = U/alpha, so no alpha^{p_j} is ever
materialized and the block stays finite far beyond the overflow point of
the weights themselves.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, TailNotConverged
from .series_engine import (
    CirclePowerTable,
    ParamPoint,
    _branch_values_on_circle,
    branch_power_rows,
    taylor_branch,  # noqa: F401  (looked up here by perfbench/tracer.py)
)

__all__ = [
    "RenormConfig",
    "HermitianMatrix",
    "kernel_hessian_oracle",
    "gram_block",
    "mode_gram_vectors",
    "eigenvalues",
    "eigensystem",
    "hs_norm",
    "tail_cutoff_for",
    "check_alpha_admissible",
]

_LOG_DBL_MAX = math.log(sys.float_info.max)

# circle samples per Gram accumulation step: bounds the synthesis rows held
# at once to GRAM_CHUNK x (J+1), whatever the grid size
GRAM_CHUNK = 8192


@dataclass(frozen=True)
class RenormConfig:
    """Truncation and renormalization knobs for one symmetry block.

    ``q`` selects the residue class (1..s); block indices are
    p_j = q + j*s for j = 0..J.  ``tail_tol`` is the relative accuracy
    asked of Gram entries (see ``gram_block``).  Construction verifies
    q's range and that every weight w_j = p_j^(3/2+beta) * alpha^p_j is
    finite in double precision, even though assemblies never form them.
    """

    q: int
    s: int
    J: int = 70
    alpha: float = 2.0
    beta: float = 1.0
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("symmetry index s must be >= 1")
        if not 1 <= self.q <= self.s:
            raise ValueError(f"q must lie in 1..s, got q={self.q}, s={self.s}")
        if self.J < 1:
            raise ValueError("J must be >= 1")
        if not self.alpha > 1:
            raise ValueError("alpha must exceed 1")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        p_top = self.q + self.J * self.s
        log_w = (1.5 + self.beta) * math.log(p_top) + p_top * math.log(self.alpha)
        if log_w >= _LOG_DBL_MAX:
            raise ValueError(
                f"weight w_J for p_J={p_top} overflows double precision "
                f"(log w = {log_w:.1f})"
            )

    @property
    def p_indices(self) -> np.ndarray:
        return self.q + self.s * np.arange(self.J + 1)


@dataclass
class HermitianMatrix:
    """Dense Hermitian matrix; hermiticity holds exactly by mirroring."""

    dim: int
    entries: np.ndarray

    @classmethod
    def from_lower(cls, lower: np.ndarray) -> "HermitianMatrix":
        """Build from an array with only the lower triangle (incl. diagonal)
        filled; the strict upper triangle is overwritten by the mirror and
        the diagonal's imaginary part is dropped."""
        a = np.array(lower, dtype=np.complex128)
        n = a.shape[0]
        i, j = np.triu_indices(n, k=1)
        a[i, j] = np.conj(a[j, i])
        di = np.diag_indices(n)
        a[di] = a[di].real
        return cls(dim=n, entries=a)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self.dim, self.entries - other.entries)


def kernel_hessian_oracle(p: ParamPoint, m_max: int) -> HermitianMatrix:
    """Direct expansion of the log-kernel; entry (m-1, n-1) holds H_{mn}.

    H_{mn} = m n sum_{p <= min(m,n), p == m == n (mod s)}
             (1/p) R_p((m-p)/s) conj(R_p((n-p)/s)),

    zero whenever m and n differ mod s.  Ground truth for small sizes.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    s = p.leaf.s
    order = m_max // s + 1
    R = branch_power_rows(p, list(range(1, m_max + 1)), order)  # R_p(k) at [p-1, k]
    H = np.zeros((m_max, m_max), dtype=np.complex128)
    for m in range(1, m_max + 1):
        for n in range(1, m + 1):
            if (m - n) % s:
                continue
            acc = 0.0 + 0.0j
            for pw in range(n % s if n % s else s, n + 1, s):
                acc += (R[pw - 1, (m - pw) // s]
                        * np.conj(R[pw - 1, (n - pw) // s]) / pw)
            H[m - 1, n - 1] = m * n * acc
    return HermitianMatrix.from_lower(H)


def tail_cutoff_for(rho_star: float, s: int, tail_tol: float = 1e-12) -> int:
    """Coefficient order past which the geometric entry tail is <= tail_tol.

    Entry tails decay like eta^m with eta = rho_*^(-2s); the floor of 64
    keeps shallow (large-eps) points from under-resolving the prefactor.
    A scan point's circle table is built to this order plus J.
    """
    if not rho_star > 1:
        raise ValueError("tail cutoff needs a subcritical point (rho_* > 1)")
    eta = rho_star ** (-2 * s)
    return max(64, math.ceil(math.log(tail_tol) / math.log(eta)))


def gram_block(table: CirclePowerTable, cfg: RenormConfig,
               use_weights: bool) -> HermitianMatrix:
    """Assemble one (J+1)x(J+1) symmetry block of the Gram operator by
    Parseval quadrature on the circle samples of ``table``.

    With V = U/alpha and p_j = q + s*j,
    (q + s z d/dz)(z^j V^{p_j}) = p_j z^j V^{p_j} (1 + s z U'/U), so the
    block is G = (1/N) X^H X over the N samples z_k, with

        X[k, j] = c_j |1 + s z_k U'_k/U_k| V_k^q (z_k V_k^s)^j.

    With ``use_weights`` the entries are G~_{j1j2} = G_{j1j2}/(w_{j1} w_{j2}):
    alpha = cfg.alpha and c_j = p_j^-(1+beta).  Without, alpha = 1 and
    c_j = p_j^(1/2).  The rows are built by repeated multiplication and
    accumulated over chunks of GRAM_CHUNK samples.

    Aliasing contract: the even samples give the same block on the N/2
    grid in the same pass, and max|G_N - G_{N/2}| must not exceed
    sqrt(tail_tol) * max|G_N|.  The trapezoid error decays geometrically in
    N, so the error of G_N is then about the square of that relative
    difference, at most tail_tol * max|G_N|.

    Raises
    ------
    TailNotConverged
        If the half-grid block misses the aliasing contract.
    """
    p = table.param
    if cfg.s != p.leaf.s:
        raise ValueError(f"config s={cfg.s} does not match leaf s={p.leaf.s}")
    J, n = cfg.J, table.n_grid
    pj = cfg.p_indices.astype(np.float64)
    if use_weights:
        alpha, c = cfg.alpha, pj ** -(1.0 + cfg.beta)
    else:
        alpha, c = 1.0, np.sqrt(pj)
    S = np.zeros((2, J + 1, J + 1), dtype=np.complex128)  # even, odd samples
    for lo in range(0, n, GRAM_CHUNK):
        z, u, zdlog = table.samples(lo, min(lo + GRAM_CHUNK, n))
        v = u / alpha
        row = np.abs(1.0 + cfg.s * zdlog)
        for _ in range(cfg.q):
            row = row * v
        step = z
        for _ in range(cfg.s):
            step = step * v
        # X^T of the chunk, even samples in X[0] and odd ones in X[1]
        X = np.empty((2, J + 1, len(z) // 2), dtype=np.complex128)
        for j in range(J + 1):
            X[:, j] = (c[j] * row).reshape(-1, 2).T
            row = row * step
        for parity in (0, 1):
            S[parity] += X[parity].conj() @ X[parity].T
    G = (S[0] + S[1]) / n
    alias = np.abs(S[1] - S[0]).max() / n
    scale = np.abs(G).max()
    if alias > math.sqrt(cfg.tail_tol) * scale:
        raise TailNotConverged(
            f"half-grid Gram block differs by {alias / scale:.2e} of max|G| "
            f"(limit sqrt(tail_tol) = {math.sqrt(cfg.tail_tol):.1e}) "
            f"at n_grid={n}"
        )
    return HermitianMatrix.from_lower(np.tril(G))


def mode_gram_vectors(p: ParamPoint, q: int, j_max: int,
                      p_count: int) -> list[np.ndarray]:
    """Synthesis vectors v^{(p)}_j = (p_j / sqrt(p)) R_p((p_j - p)/s).

    One vector per mode p = q + k*s, k = 0..p_count, each of length
    j_max + 1, zero below the mode's onset (p_j < p).  Finite partial sums
    of v v* reproduce kernel_hessian_oracle entries exactly.
    """
    s = p.leaf.s
    if not 1 <= q <= s:
        raise ValueError(f"q must lie in 1..s, got {q}")
    modes = [q + k * s for k in range(p_count + 1)]
    R = branch_power_rows(p, modes, j_max)
    pj = q + s * np.arange(j_max + 1)
    out = []
    for k, mode in enumerate(modes):
        v = np.zeros(j_max + 1, dtype=np.complex128)
        v[k:] = pj[k:] / math.sqrt(mode) * R[k, : j_max + 1 - k]
        out.append(v)
    return out


def eigensystem(h: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns."""
    try:
        vals, vecs = np.linalg.eigh(h.entries)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"Hermitian eigensolve failed: {e}") from e
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def eigenvalues(h: HermitianMatrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending."""
    try:
        vals = np.linalg.eigvalsh(h.entries)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"Hermitian eigensolve failed: {e}") from e
    return vals[::-1]


def hs_norm(h: HermitianMatrix) -> float:
    """Hilbert-Schmidt (Frobenius) norm of the truncated block."""
    return float(np.linalg.norm(h.entries))


def check_alpha_admissible(p: ParamPoint, rho_star: float,
                           alpha: float) -> float:
    """Estimate the branch bound on the midpoint circle and warn if alpha
    does not clear it.

    Samples |U| on |x| = (1 + rho_*)/2 and returns the maximum; the
    weighted renormalization is only guaranteed to tame the blocks when
    alpha exceeds this scale, so alpha <= max|U| triggers a warning rather
    than an error (the truncated numerics stay finite either way).
    """
    radius_z = ((1.0 + rho_star) / 2.0) ** p.leaf.s
    vals = _branch_values_on_circle(p, 512, radius=radius_z)
    m0 = float(np.abs(vals).max())
    if alpha <= m0:
        warnings.warn(
            f"alpha={alpha:g} does not exceed the midpoint branch bound "
            f"{m0:.3g}; weighted blocks may grow along the approach",
            RuntimeWarning,
            stacklevel=2,
        )
    return m0
