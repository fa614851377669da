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


class TailNotConverged(TodaSpectraError):
    """A truncated tail sum or its quadrature has not converged to tolerance."""


class GridTooLarge(TodaSpectraError):
    """A requested sample grid exceeds the memory ceiling; refused before
    it is allocated."""


class WrongSheet(TodaSpectraError):
    """Samples left the Taylor sheet: adjacent samples on the circle jump
    further apart than the branch's derivative allows."""


class InsufficientData(TodaSpectraError):
    """Not enough successful points to perform a requested fit."""


class TrajectoryStalled(TodaSpectraError):
    """Step-size control hit its floor without an accepted step."""


class UnivalenceLost(TodaSpectraError):
    """The conformal map is not univalent (boundary cusp)."""


class QuadratureNotConverged(TodaSpectraError):
    """Contour quadrature changed beyond tolerance when refined."""


class Degenerate(TodaSpectraError):
    """A closed-form expression degenerates (value at infinity or 0/0)."""


class LogBranchCut(TodaSpectraError):
    """An argument of the principal logarithm lies on the standard cut."""


class NotBracketed(TodaSpectraError):
    """A bisection interval does not straddle the sought behavior change."""


class MomentMismatch(TodaSpectraError):
    """Quadrature moments of a state disagree with the residue sums it was
    solved for (the map has a zero outside the unit disk)."""
