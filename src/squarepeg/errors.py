"""Exception types shared across the package."""


class SquarePegError(Exception):
    """Base class for all package-specific errors."""


class CoincidentPoints(SquarePegError):
    """Two points coincide where a direction or ratio needs them distinct."""


class IndeterminateRatio(SquarePegError):
    """Distance ratio 0/0; both segments have collapsed."""


class DegenerateConfiguration(SquarePegError):
    """A configuration has a vanishing distance where a denominator needs it."""


class NotOnSlq(SquarePegError):
    """Operation requires a square-like quadrilateral (equal sides, equal diagonals)."""


class PlanarConfiguration(SquarePegError):
    """Operation requires a nonplanar quadrilateral."""


class _PathError(SquarePegError):
    """An error that carries ``t``, set when it occurred along a continuation path."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class RegularityLost(_PathError):
    """Curve failed the regularity (or embedding) check."""


class DimensionMismatch(SquarePegError):
    """Two curves live in different ambient dimensions."""


class Divergence(SquarePegError):
    """Newton iteration failed to converge from the given seed."""


class LeftOrderedComponent(SquarePegError):
    """Iteration converged to angles that no longer follow the curve's cyclic order."""


class NearBoundary(SquarePegError):
    """Converged configuration is closer to a point collision than the guard allows."""


class SingularJacobianDuringIteration(Divergence):
    """Newton stalled even after falling back to pseudo-inverse steps."""


class NonTransversePath(_PathError):
    """A continuation step withheld parity even after a retry; its text names the flags."""
