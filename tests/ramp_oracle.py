"""Radius-ramp evaluation of the Taylor branch: an oracle for the seeded
circle evaluation in ``series_engine``.

It continues the solution of y = 1 + sum zeta_n z^shift_n y^k_n along each
ray from the centre of the disk (y = 1 at radius 0) outward in 36 radius
stages, shrinking the radius step near the target so that Newton stays on
the Taylor sheet.  It needs neither the series nor the dominant data that
seed the production evaluation, so agreement between the two is a check on
the seeds.
"""

import numpy as np

from toda_spectra.errors import NoConvergence
from toda_spectra.series_engine import _int_pow_values

# Newton step tolerance of each stage, relative to 1 + max|y|
RAMP_TOL = 1e-13


def ramp_branch_values(p, z):
    """Values of the Taylor branch at the points ``z`` of the closed disk.

    In each stage, the first Newton iteration runs on every sample and
    fixes the stage tolerance RAMP_TOL * (1 + max|y|); after each iteration
    the samples whose step is below it keep their value and drop out.
    """
    z = np.asarray(z, dtype=np.complex128)
    shifts = p.leaf.collapsed_shifts
    kexps = p.leaf.exponents
    zsh = [_int_pow_values(z, sh) for sh in shifts]

    def newton_at(rad, y):
        coef = [(zn * rad ** sh) * zp
                for zn, sh, zp in zip(p.zeta, shifts, zsh)]
        live = None
        ya = y
        for _ in range(60):
            f = ya - 1.0
            fy = np.ones_like(ya)
            for a, k in zip(coef, kexps):
                t = a * _int_pow_values(ya, k - 1)
                f -= t * ya
                fy -= k * t
            step = f / fy
            ya = ya - step
            if live is None:
                thr = RAMP_TOL * (1.0 + np.abs(ya).max())
                y, live = ya, np.arange(len(ya))
            else:
                y[live] = ya
            moving = ~(np.abs(step) < thr)
            if not moving.any():
                return y
            if not moving.all():
                live, ya = live[moving], ya[moving]
                coef = [a[moving] for a in coef]
        raise NoConvergence("radius ramp: Newton stalled")

    y = np.ones(len(z), dtype=np.complex128)
    # coarse march to half radius, then geometric approach to the rim
    for rad in np.linspace(0.125, 0.5, 4):
        y = newton_at(rad, y)
    gap = 0.5
    while gap > 1e-7:
        gap *= 0.6
        y = newton_at(1.0 - gap, y)
    return newton_at(1.0, y)


def ramp_evaluation(p, z, series=None, dom=None):
    """Drop-in for ``series_engine._branch_values`` that ignores the seeds:
    (ramp values, 0 Newton iterations)."""
    return ramp_branch_values(p, z), 0
