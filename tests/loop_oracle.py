"""Loop forms of the circle kernels of ``series_engine``.

``_power_rows``, ``_taylor_values`` and ``_power_sums`` reorganize three
loops that issued one numpy call per power; these are those loops, kept as
the references the kernels are compared against.
"""

from __future__ import annotations

import numpy as np


def power_rows_loop(first: np.ndarray, ratio: np.ndarray,
                    count: int) -> np.ndarray:
    """Rows first * ratio**i, i < count, by one product per row."""
    out = np.empty((count, len(ratio)), dtype=np.result_type(first, ratio))
    row = first
    for i in range(count):
        out[i] = row
        row = row * ratio
    return out


def horner_values(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] z^i by Horner's rule, one step per coefficient."""
    y = np.full(len(z), coeffs[-1], dtype=np.complex128)
    for a in coeffs[-2::-1]:
        y *= z
        y += a
    return y


def power_sums_loop(t: np.ndarray, r: np.ndarray, count: int) -> np.ndarray:
    """sum_k t_k r_k^m for m < count, one sum and one product per m."""
    sums = np.empty(count, dtype=np.complex128)
    term = np.array(t, dtype=np.complex128)
    for m in range(count):
        sums[m] = term.sum()
        term *= r
    return sums
