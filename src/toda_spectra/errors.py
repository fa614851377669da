"""Exception types shared across the package.

Every computational failure mode raised by the library derives from
:class:`TodaSpectraError`, so callers can distinguish numerical failures
from programming errors (which raise ``ValueError``/``TypeError``).
"""


class TodaSpectraError(Exception):
    """Base class for all numerical/diagnostic failures."""


class NoConvergence(TodaSpectraError):
    """An iterative solver exhausted its budget without meeting tolerance."""


class DegenerateSeries(TodaSpectraError):
    """A coefficient sequence has no usable tail (e.g. terminating series)."""

    def __init__(self, message, first_zero_index=None):
        super().__init__(message)
        self.first_zero_index = first_zero_index


class NoDominantOrbit(TodaSpectraError):
    """No single symmetry orbit of characteristic points is dominant."""


class BranchJump(TodaSpectraError):
    """Continuation captured a different solution branch and bisection failed."""


class TailNotConverged(TodaSpectraError):
    """A truncated tail sum or its quadrature has not converged to tolerance."""


class InsufficientData(TodaSpectraError):
    """Not enough successful points to perform a requested fit."""


class TrajectoryStalled(TodaSpectraError):
    """Step-size control hit its floor without an accepted step."""


class UnivalenceLost(TodaSpectraError):
    """The conformal map lost univalence (boundary cusp) during evolution.

    ``states`` holds the trajectory accepted so far, ending with the
    offending (non-univalent) state, so callers can inspect the run.
    """

    def __init__(self, message, states=None):
        super().__init__(message)
        self.states = states


class QuadratureNotConverged(TodaSpectraError):
    """Contour quadrature changed beyond tolerance when refined."""


class Degenerate(TodaSpectraError):
    """A closed-form expression degenerates (value at infinity or 0/0)."""


class LogBranchCut(TodaSpectraError):
    """An argument of the principal logarithm lies on the standard cut."""


class NotBracketed(TodaSpectraError):
    """A bisection interval does not straddle the sought behavior change."""
