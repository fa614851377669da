"""Loop forms of the circle kernels of ``series_engine``.

``_power_rows`` and ``_taylor_values`` reorganize two loops that issued one
numpy call per power; these are those loops, kept as the references the
kernels are compared against.
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

