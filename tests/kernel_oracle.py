"""Direct expansion of the log-kernel Hessian, the operator that the Gram
blocks of ``hessian_blocks`` decompose.

``kernel_hessian_oracle`` expands

    K(x, x') = log(1 - x conj(x') U(x) conj(U(x')))

directly and reads off H_{mn} = -mn [x^m][conj(x')^n] K from the series
rows R_p(k) = [x^(k s)] U^p; it is exact but only affordable at small
sizes.  ``mode_gram_vectors`` splits each symmetry block of that matrix
into one rank-one term per mode; acceptance criterion 02 checks that the
two agree.
"""

from __future__ import annotations

import math

import numpy as np

from toda_spectra import ParamPoint, branch_power_rows


def _hermitian(lower: np.ndarray) -> np.ndarray:
    """Hermitian matrix from the lower triangle (diagonal included)."""
    strict = np.tril(lower, -1)
    return strict + strict.conj().T + np.diag(np.diag(lower).real)


def kernel_hessian_oracle(p: ParamPoint, m_max: int) -> np.ndarray:
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
    return _hermitian(H)


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
