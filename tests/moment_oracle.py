"""Two-pass moment quadrature: an oracle for
``laplacian_growth.harmonic_moments``.

It builds the circle grid and its monomials afresh at n and again at 2n
nodes, and evaluates the moment integrands on each, with the expressions
the package uses.  The package evaluates them once, on cached 2n-node
grids, and reads the n-node sums off the even nodes, so the two must agree
to the bit.
"""

import numpy as np


def boundary_factors(r, a, leaf, n):
    """f(w) and w f'(w) on a freshly built n-point grid of the unit circle."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    f = r * w
    wfp = r * w
    for an, sn in zip(a, leaf.exponents):
        mono = an * w ** (1 - sn)
        f = f + mono
        wfp = wfp + (1 - sn) * mono
    return f, wfp


def moments_on_grid(r, a, leaf, ks, n):
    """[t_0, t_k...] by the trapezoid rule on n nodes."""
    f, wfp = boundary_factors(r, a, leaf, n)
    g = np.conj(f) * wfp
    out = np.empty(1 + len(ks), dtype=np.complex128)
    out[0] = g.mean()
    for i, k in enumerate(ks, start=1):
        out[i] = np.mean(f ** (-k) * g) / k
    return out


def two_pass_moments(r, a, leaf, n):
    """(coarse, fine): the moments on n nodes and on 2n nodes."""
    a = tuple(complex(v) for v in a)
    return (moments_on_grid(r, a, leaf, leaf.exponents, n),
            moments_on_grid(r, a, leaf, leaf.exponents, 2 * n))
