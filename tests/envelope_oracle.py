"""The log leaf's unit-level question asked directly: an oracle for
``explicit_leaves.gamma_c_solve``.

``gamma_c_solve`` takes the sign of rho_char(1, gamma) - 1, the closed form
at the slice's edge.  Here the envelope b -> rho_char(b, gamma) ("split"
policy) is examined on b < 1 only: the unit level counts as reached when a
bounded minimization over interior b (``scipy.optimize.minimize_scalar``)
finds rho_char at or below 1, or when the limit toward b = 1, taken by
Richardson extrapolation, lies below 1.  rho_char comes from the scalar
closed form of ``leaf_oracle``, not from the package's array kernel.
"""

from scipy.optimize import minimize_scalar

from leaf_oracle import log_point_char


def _rho(b, gamma):
    return log_point_char(b, gamma, "split").rho


def interior_minimum(gamma):
    """Bounded minimum of rho_char(., gamma) on [0.01, 0.99], xatol 1e-8."""
    return minimize_scalar(lambda b: _rho(b, gamma), bounds=(0.01, 0.99),
                           method="bounded", options={"xatol": 1e-8}).fun


def boundary_limit(gamma):
    """rho_char(b, gamma) as b -> 1-, from b = 1 - 10**-k (k = 2..6), with
    the leading O(1 - b) correction removed from the last two points."""
    eps = [10.0 ** (-k) for k in range(2, 7)]
    vals = [_rho(1.0 - e, gamma) for e in eps]
    return vals[-1] + (vals[-1] - vals[-2]) * eps[-1] / (eps[-2] - eps[-1])


def unit_level_attained(gamma):
    """Whether rho_char(., gamma) reaches 1 at some interior b < 1."""
    return interior_minimum(gamma) <= 1.0 or boundary_limit(gamma) < 1.0
