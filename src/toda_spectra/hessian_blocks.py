"""Tail-indexed Gram blocks, their eigenvalues, and the alpha check.

Per symmetry class q (indices p_j = q + j*s) the Gram block has the
entries

    G_{j1 j2} = sum_m ((p_{j2} + s m)^2 / sqrt(p_{j1} p_{j2}))
                * conj(R_{p_{j1}}(m + j2 - j1)) * R_{p_{j2}}(m),

renormalized by the weights w_j = p_j^{3/2+beta} alpha^{p_j}.  The same
operator family has a mode-indexed form, the log-kernel Hessian
H_{mn} = -mn [x^m][conj(x')^n] log(1 - x conj(x') U(x) conj(U(x'))),
whose direct expansion is the test oracle ``tests/kernel_oracle.py``.
With f_j = z^j U^{p_j}, the sum is the coefficient inner product of
(q + s z d/dz) f_{j1} and (q + s z d/dz) f_{j2}, so on a subcritical point
(U analytic on the closed unit circle in z) Parseval turns it into an
integral over that circle, which ``gram_block`` takes by the quadrature
rule of a ``CirclePowerTable``: a sum over the nodes it holds, with their
weights.  The weighted assembly works with V = U/alpha, so no alpha^{p_j}
is ever materialized and the block stays finite far beyond the overflow
point of the weights themselves.

Blocks are plain complex128 arrays, exactly Hermitian as assembled (see
``gram_block``); ``eigenvalues`` returns a block's spectrum in descending
order.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NoConvergence, TailNotConverged
from .series_engine import (
    NODE_CHUNK,
    CirclePowerTable,
    ParamPoint,
    _branch_values,
    _circle_nodes,
    _int_pow_values,
    _power_rows,
    branch_power_rows,  # noqa: F401  (looked up here by perfbench/tracer.py)
)

if TYPE_CHECKING:
    from .branch_points import DominantData

__all__ = [
    "RenormConfig",
    "gram_block",
    "eigenvalues",
    "check_alpha_admissible",
]

_LOG_DBL_MAX = math.log(sys.float_info.max)

# relative accuracy asked of Gram entries (see ``gram_block``)
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class RenormConfig:
    """Truncation and renormalization of one symmetry block.

    ``q`` selects the residue class (1..s); block indices are
    p_j = q + j*s for j = 0..J, and Gram entries are held to ``TAIL_TOL``
    relative (see ``gram_block``).  Construction verifies q's range and
    that every weight w_j = p_j^(3/2+beta) * alpha^p_j is finite in double
    precision, even though assemblies never form them.
    """

    q: int
    s: int
    J: int = 70
    alpha: float = 2.0
    beta: float = 1.0

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


def gram_block(table: CirclePowerTable, cfg: RenormConfig) -> np.ndarray:
    """Assemble one (J+1)x(J+1) symmetry block of the weighted Gram
    operator by Parseval quadrature with the rule of ``table``.

    With V = U/alpha and p_j = q + s*j,
    (q + s z d/dz)(z^j V^{p_j}) = p_j z^j V^{p_j} (1 + s z U'/U), so the
    block is G = X^H X over the nodes z_k the table holds, with

        X[k, j] = c_j sqrt(weight_k) |1 + s z_k U'_k/U_k| V_k^q (z_k V_k^s)^j,

    where weight_k, U_k and z_k U'_k/U_k are the table's arrays
    (``weight``, ``values``, ``zdlog``), alpha = cfg.alpha and
    c_j = p_j^-(1+beta), so the entries are G~_{j1j2} = G_{j1j2}/(w_{j1}
    w_{j2}).  Per chunk of NODE_CHUNK nodes the J+1 rows without c_j come
    by doubling (``series_engine._power_rows``: about 2 log2(J+1) numpy
    calls), and the factors c_j1 c_j2 are applied to the summed
    (J+1)x(J+1) blocks.

    The product is taken in real arithmetic.  Writing X = A + iB,
    G = (A^T A + B^T B) + i (A^T B - B^T A); the real part is one real
    product of the interleaved (re, im) columns.  The imaginary part is
    formed only for complex zeta: for real zeta (``CirclePowerTable.half``)
    the table's weights already count each node's conjugate, where
    X[n-k, j] = conj X[k, j], and the imaginary part vanishes.

    G is exactly Hermitian as assembled, with no repair: numpy takes each
    product of a real array with its own transpose as a symmetric rank-k
    update and mirrors it, the imaginary part is P - P^T, and the weights
    c_j1 c_j2 are symmetric, so the real part is symmetric and the
    imaginary part antisymmetric to the bit.

    Aliasing contract: the even nodes, with twice their weights, are the
    table's N/2-node rule and give its block in the same pass, and
    max|G_N - G_{N/2}| must not exceed sqrt(TAIL_TOL) * max|G_N|.  The
    trapezoid error decays geometrically in N, so the error of G_N is then
    about the square of that relative difference, at most
    TAIL_TOL * max|G_N|.

    Raises
    ------
    TailNotConverged
        If the half-grid block misses the aliasing contract.
    """
    p = table.param
    if cfg.s != p.leaf.s:
        raise ValueError(f"config s={cfg.s} does not match leaf s={p.leaf.s}")
    J = cfg.J
    c = cfg.p_indices.astype(np.float64) ** -(1.0 + cfg.beta)
    S = np.zeros((2, J + 1, J + 1))  # real part over even, odd nodes
    T = None if table.half else np.zeros((2, J + 1, J + 1))  # imaginary part
    for lo in range(0, len(table.values), NODE_CHUNK):
        at = slice(lo, lo + NODE_CHUNK)
        v = table.values[at] / cfg.alpha
        row = (np.sqrt(table.weight[at]) * np.abs(1.0 + cfg.s * table.zdlog[at])
               * _int_pow_values(v, cfg.q))
        step = table.z[at] * _int_pow_values(v, cfg.s)
        # even nodes first, then odd (lo is even: local parity is global
        # parity), in one array of rows
        X = _power_rows(np.concatenate((row[0::2], row[1::2])),
                        np.concatenate((step[0::2], step[1::2])), J + 1)
        Xf = X.view(np.float64)  # columns re, im interleaved
        n_even = 2 * ((len(row) + 1) // 2)
        for parity, Xp in enumerate((Xf[:, :n_even], Xf[:, n_even:])):
            S[parity] += Xp @ Xp.T
            if T is not None:
                P = Xp[:, 0::2] @ Xp[:, 1::2].T
                T[parity] += P - P.T
        del X, Xf, Xp  # else the next chunk's rows are built beside these
    cc = np.outer(c, c)
    G = cc * (S[0] + S[1])
    D = cc * (S[1] - S[0])
    if T is not None:
        G = G + 1j * (cc * (T[0] + T[1]))
        D = D + 1j * (cc * (T[1] - T[0]))
    alias = np.abs(D).max()
    scale = np.abs(G).max()
    if alias > math.sqrt(TAIL_TOL) * scale:
        raise TailNotConverged(
            f"half-grid Gram block differs by {alias / scale:.2e} of max|G| "
            f"(limit sqrt(TAIL_TOL) = {math.sqrt(TAIL_TOL):.1e}) "
            f"at n_grid={table.n_grid}"
        )
    return G.astype(np.complex128, copy=False)


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian or real symmetric matrix, sorted
    descending.

    Raises
    ------
    NoConvergence
        If the eigensolver does not converge.
    """
    try:
        vals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"Hermitian eigensolve failed: {e}") from e
    return vals[::-1]


def check_alpha_admissible(p: ParamPoint, dom: "DominantData",
                           series: np.ndarray, alpha: float) -> float:
    """Estimate the branch bound on the midpoint circle and warn if alpha
    does not clear it.

    Solves U (``series_engine._branch_values``) at 512 equally spaced
    points of |x| = (1 + rho_*)/2, with rho_* from ``dom``, inside the
    disk of convergence, from the Taylor polynomial of the point's
    ``series`` (its coefficient array) alone, and returns max|U|.  The
    weighted renormalization is only guaranteed to tame the blocks when
    alpha exceeds this scale, so alpha <= max|U| triggers a warning rather
    than an error (the truncated numerics stay finite either way).
    """
    radius_z = ((1.0 + dom.rho_star) / 2.0) ** p.leaf.s
    z = radius_z * _circle_nodes(np.arange(512), 512)[0]
    vals, _ = _branch_values(p, z, series)
    m0 = float(np.abs(vals).max())
    if alpha <= m0:
        warnings.warn(
            f"alpha={alpha:g} does not exceed the midpoint branch bound "
            f"{m0:.3g}; weighted blocks may grow along the approach",
            RuntimeWarning,
            stacklevel=2,
        )
    return m0
