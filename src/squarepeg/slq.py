"""Defining maps of the square-like quadrilateral locus and their derivatives.

A quadrilateral (p1, p2, p3, p4) is square-like when all four sides are equal
and both diagonals are equal.  Two equivalent residual maps are provided: the
squared-ratio map ``g_map`` (zero set at (1,1,1,0)) and the dot-product map
``f_map`` (zero set at the origin).  ``g_map`` is what the solver drives to
zero; ``f_map`` is kept as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import G_TARGET, Config4, _slot
from .errors import CoincidentPoints, DegenerateConfiguration, NotOnSlq

#: how far g_map may sit from G_TARGET for the simplified derivative to apply
ON_SLQ_TOL = 1e-8


@dataclass(frozen=True)
class Variation4:
    """First-order motion of a Config4: one tangent vector per point."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float, copy=True)
        if v.ndim != 2 or v.shape[0] != 4:
            raise ValueError(f"expected 4 tangent vectors, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @classmethod
    def single(cls, slot: int, vector, dim: int) -> "Variation4":
        """Variation moving only the point with 1-based label ``slot``."""
        v = np.zeros((4, dim))
        v[_slot(slot)] = np.asarray(vector, dtype=float)
        return cls(v)

    def cyclic_relabel(self) -> "Variation4":
        """Velocity vectors follow their points under (p1,p2,p3,p4) -> (p2,p3,p4,p1)."""
        return Variation4(np.roll(self.vectors, -1, axis=0))


@dataclass(frozen=True)
class QuadMeasurements:
    """Side and diagonal lengths plus a planarity measure.

    ``planarity`` is the third singular value of the matrix of edge vectors
    out of p1, relative to the largest; it vanishes exactly on planar
    quadrilaterals (always zero when the ambient dimension is 2).
    """

    sides: tuple
    diagonals: tuple
    side_mean: float
    diagonal_mean: float
    planarity: float


def g_map(c: Config4) -> np.ndarray:
    """Squared-ratio residual map; equals (1, 1, 1, 0) iff c is square-like."""
    d12 = c.dist(1, 2)
    d14 = c.dist(1, 4)
    d23 = c.dist(2, 3)
    d34 = c.dist(3, 4)
    d13 = c.dist(1, 3)
    d24 = c.dist(2, 4)
    if d14 == 0.0 or d12 == 0.0 or d23 == 0.0:
        raise DegenerateConfiguration("vanishing denominator distance in g_map")
    return np.array(
        [
            d12**2 / d14**2,
            d23**2 / d12**2,
            d34**2 / d23**2,
            (d13**2 - d24**2) / d12**2,
        ]
    )


def f_map(c: Config4) -> np.ndarray:
    """Dot-product residual map; vanishes exactly on square-like quadrilaterals."""
    d = [c.dist(i, j) for (i, j) in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))]
    if min(d) == 0.0:
        raise DegenerateConfiguration("coincident points in f_map")
    pi14 = c.direction(1, 4)
    pi34 = c.direction(3, 4)
    pi13 = c.direction(1, 3)
    pi41 = c.direction(4, 1)
    pi21 = c.direction(2, 1)
    pi24 = c.direction(2, 4)
    d12, d13, d24 = d[0], d[1], d[4]
    return np.array(
        [
            np.dot(pi14 + pi34, pi13),
            np.dot(pi41 + pi21, pi24),
            np.dot(pi13, pi24),
            (d13**2 - d24**2) / d12**2,
        ]
    )


def length_derivative(c: Config4, h: Variation4, i: int, j: int) -> float:
    """Directional derivative of |p_i - p_j| along the variation."""
    d = c.dist(i, j)
    if d == 0.0:
        raise DegenerateConfiguration(f"points {i} and {j} coincide")
    diff = c.point(i) - c.point(j)
    dv = h.vectors[i - 1] - h.vectors[j - 1]
    return float(np.dot(diff, dv) / d)


def _require_on_slq(c: Config4) -> None:
    """Raise ``NotOnSlq`` unless ``g_map(c)`` is (1, 1, 1, 0) within ``ON_SLQ_TOL``."""
    deviation = np.abs(g_map(c) - G_TARGET).max()
    if not deviation <= ON_SLQ_TOL:  # False for nan, so a nan point is off the locus
        raise NotOnSlq(f"g deviates from (1,1,1,0) by {deviation:.2e}")


def g_directional_derivative(c: Config4, h: Variation4) -> np.ndarray:
    """Derivative of g_map along ``h`` at a point of the square-like locus.

    Uses the simplified row formulas that are only valid where the equal-side
    and equal-diagonal relations already hold, so the configuration must
    satisfy ``g_map(c)`` = (1, 1, 1, 0) within ``ON_SLQ_TOL``.
    """
    _require_on_slq(c)
    dl = lambda i, j: length_derivative(c, h, i, j)
    d14 = c.dist(1, 4)
    d12 = c.dist(1, 2)
    d23 = c.dist(2, 3)
    d13 = c.dist(1, 3)
    d24 = c.dist(2, 4)
    return np.array(
        [
            2.0 / d14 * (dl(1, 2) - dl(1, 4)),
            2.0 / d12 * (dl(2, 3) - dl(2, 1)),
            2.0 / d23 * (dl(3, 4) - dl(3, 2)),
            2.0 / d12**2 * (d13 * dl(1, 3) - d24 * dl(2, 4)),
        ]
    )


def f_hat(q1, q2, u13, u24) -> np.ndarray:
    """Residual on fully collapsed diagonal pairs p1=p3 at q1 and p2=p4 at q2.

    ``u13`` and ``u24`` are the limiting unit directions of the collapsed
    diagonals.  With pi14 = (q1 - q2)/|q1 - q2| the value is
    (2 pi14 . u13, -2 pi14 . u24, u13 . u24).
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    u13 = np.asarray(u13, dtype=float)
    u24 = np.asarray(u24, dtype=float)
    norm = np.linalg.norm(q1 - q2)
    if norm == 0.0:
        raise CoincidentPoints("collapsed pairs coincide; no direction between them")
    for name, u in (("u13", u13), ("u24", u24)):
        if abs(np.linalg.norm(u) - 1.0) > 1e-8:
            raise ValueError(f"{name} must be a unit vector")
    pi14 = (q1 - q2) / norm
    return np.array(
        [
            2.0 * np.dot(pi14, u13),
            -2.0 * np.dot(pi14, u24),
            np.dot(u13, u24),
        ]
    )


def make_bent_rhombus(h: float) -> Config4:
    """Square-like quadrilateral in R^3, nonplanar for h > 0.

    Vertices (1,0,0), (0,1,h), (-1,0,0), (0,-1,h): all sides sqrt(2 + h^2),
    both diagonals 2.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    return Config4(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, float(h)],
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, float(h)],
        ]
    )


def measurements(c: Config4) -> QuadMeasurements:
    """All six lengths plus the planarity measure; never raises."""
    sides = (c.dist(1, 2), c.dist(2, 3), c.dist(3, 4), c.dist(4, 1))
    diagonals = (c.dist(1, 3), c.dist(2, 4))
    edges = np.stack(
        [c.point(2) - c.point(1), c.point(3) - c.point(1), c.point(4) - c.point(1)]
    )
    s = np.linalg.svd(edges, compute_uv=False)
    third = float(s[2]) if s.shape[0] >= 3 else 0.0
    planarity = third / float(s[0]) if s[0] > 0 else 0.0
    return QuadMeasurements(
        sides=sides,
        diagonals=diagonals,
        side_mean=float(np.mean(sides)),
        diagonal_mean=float(np.mean(diagonals)),
        planarity=planarity,
    )
