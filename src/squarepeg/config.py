"""Coordinate functions on configurations of four labeled points.

Everything here treats a configuration as an ordered 4-tuple of points in
R^k with 1-based labels, matching the way the distance-ratio and direction
functions are indexed throughout the package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, IndeterminateRatio

TWO_PI = 2.0 * np.pi

#: column j holds the angle after angle j, cyclically
_NEXT = np.array([1, 2, 3, 0])

#: target value of the squared-ratio residual g on square-like quadrilaterals
G_TARGET = np.array([1.0, 1.0, 1.0, 0.0])


def _as_count(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int, numpy integers included; ``ValueError`` naming
    ``name`` for a bool, a float or any other non-integral value, or for one
    below ``minimum``."""
    # a bool is an int to operator.index, so True would pass as 1
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return count


def _slot(label) -> int:
    """The 0-based row of a 1-based point label; ``ValueError`` naming it outside 1-4."""
    slot = _as_count("label", label) - 1
    if not 0 <= slot < 4:
        raise ValueError(f"point labels are 1-4, got {label!r}")
    return slot


def direction(p, q) -> np.ndarray:
    """Unit vector from q toward p, i.e. (p - q) / |p - q|."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    diff = p - q
    norm = np.linalg.norm(diff)
    if norm == 0.0:
        raise CoincidentPoints("direction undefined for coincident points")
    return diff / norm


def ratio(p_i, p_j, p_l) -> float:
    """Distance ratio |p_i - p_j| / |p_i - p_l| in [0, inf]."""
    p_i = np.asarray(p_i, dtype=float)
    num = np.linalg.norm(p_i - np.asarray(p_j, dtype=float))
    den = np.linalg.norm(p_i - np.asarray(p_l, dtype=float))
    if den == 0.0:
        if num == 0.0:
            raise IndeterminateRatio("0/0 distance ratio")
        return np.inf
    return float(num / den)


def s_ratio(p_i, p_j, p_l) -> float:
    """Compressed ratio (2/pi) * arctan(ratio), mapping [0, inf] onto [0, 1]."""
    return float(2.0 / np.pi * np.arctan(ratio(p_i, p_j, p_l)))


class Config4:
    """Ordered 4-tuple of points with cached pairwise distances.

    Accessors take 1-based labels so expressions read like the usual
    subscripts: ``c.dist(1, 3)`` is the first diagonal, ``c.ratio(1, 2, 4)``
    the side ratio |p1-p2| / |p1-p4|.  Instances are immutable.
    """

    __slots__ = ("points", "_dists")

    def __init__(self, points):
        pts = np.array(points, dtype=float, copy=True)
        if pts.ndim != 2 or pts.shape[0] != 4:
            raise ValueError(f"expected 4 points of equal dimension, got shape {pts.shape}")
        if pts.shape[1] < 2:
            raise ValueError("ambient dimension must be >= 2")
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        pts.flags.writeable = False
        dists.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_dists", dists)

    def __setattr__(self, name, value):
        raise AttributeError("Config4 is immutable")

    def __repr__(self):
        return f"Config4({self.points.tolist()})"

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.points[_slot(i)]

    def dist(self, i: int, j: int) -> float:
        return float(self._dists[_slot(i), _slot(j)])

    def direction(self, i: int, j: int) -> np.ndarray:
        """Unit vector from p_j toward p_i."""
        return direction(self.point(i), self.point(j))

    def ratio(self, i: int, j: int, l: int) -> float:
        return ratio(self.point(i), self.point(j), self.point(l))

    def s_ratio(self, i: int, j: int, l: int) -> float:
        return s_ratio(self.point(i), self.point(j), self.point(l))

    def min_separation(self) -> float:
        d = self._dists[np.triu_indices(4, k=1)]
        return float(d.min())

    def diameter(self) -> float:
        return float(self._dists.max())


def cyclic_relabel(c: Config4) -> Config4:
    """Relabel (p1, p2, p3, p4) as (p2, p3, p4, p1)."""
    return Config4(np.roll(c.points, -1, axis=0))


def ordered_component_check(thetas) -> bool:
    """True iff some cyclic rotation of the four angles is strictly increasing.

    Angles are reduced mod 2pi first, so any real inputs are accepted.
    """
    if np.shape(thetas) != (4,):
        raise ValueError("expected exactly 4 angles")
    return bool(_ordered_batch(thetas)[0])


def _ordered_batch(thetas: np.ndarray) -> np.ndarray:
    """Rows of an (m, 4) array for which ``ordered_component_check`` holds.

    That is so iff three of the four cyclic differences of the reduced
    angles are positive: the fourth is then negative, and the rotation
    starting after it is strictly increasing.  A nan difference is not
    positive, so a nan row, or one with an infinite angle, is not ordered.
    Any real angles are reduced here, under this function's own error
    state; ``_ordered_rows`` takes angles already reduced and says why an
    angle at 2pi instead of 0 changes no verdict.
    """
    with np.errstate(invalid="ignore"):
        th = np.mod(np.asarray(thetas, dtype=float).reshape(-1, 4), TWO_PI)
    return _ordered_rows(th)


def _ordered_rows(th: np.ndarray) -> np.ndarray:
    """``_ordered_batch`` of (m, 4) angles already reduced into [0, 2pi].

    An angle may read 2pi where ``np.mod`` would give 0 (it rounds an angle
    in (-1e-16, 0) up to 2pi).  On a row whose four angles are distinct mod
    2pi that changes no verdict: the angle is the row's smallest at 0 and
    its largest at 2pi, so the difference into it and the one out of it
    swap signs, and the count of positive differences stays the same.
    """
    # a uint8 sum counts faster than np.count_nonzero(..., axis=1)
    return (th.take(_NEXT, axis=1) - th > 0.0).sum(axis=1, dtype=np.uint8) == 3


def _component_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected-component labels of n nodes under the symmetric links src-dst.

    Each node takes the smallest node index of its component, by min-label
    propagation with pointer jumping.
    """
    labels = np.arange(n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, src, labels[dst])
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


@dataclass(frozen=True)
class Stratum:
    """Collision-proximity label: which point groups are (nearly) collapsed.

    ``label`` is a parenthesized list of collapsed groups such as "(13)(24)"
    or "(1234)", or "interior" when no group is collapsed; ``codim`` counts
    the groups.
    """

    label: str
    codim: int

    @classmethod
    def interior(cls) -> "Stratum":
        return cls(label="interior", codim=0)

    @classmethod
    def from_clusters(cls, clusters) -> "Stratum":
        groups = sorted(sorted(g) for g in clusters if len(g) >= 2)
        if not groups:
            return cls.interior()
        label = "".join("(" + "".join(str(i) for i in g) + ")" for g in groups)
        return cls(label=label, codim=len(groups))


def strata_proximity(c: Config4, scale: float, eps: float = 1e-3) -> Stratum:
    """Classify which labels are within eps * scale of colliding.

    Single-linkage clustering on the pairwise distances; only one level of
    grouping is reported (no nested collapse rates).
    """
    # the comparisons are False for nan, so each also rejects it
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    labels = _component_labels(4, *np.nonzero(c._dists < eps * scale))
    return Stratum.from_clusters(
        [(np.flatnonzero(labels == lab) + 1).tolist() for lab in np.unique(labels)]
    )


def block_cycle_orientation_sign(k: int) -> int:
    """Sign of the determinant of the block relabeling (1,2,3,4) -> (2,3,4,1).

    The 4k x 4k permutation matrix sending the stacked coordinate blocks of
    (p1, p2, p3, p4) to those of (p2, p3, p4, p1) permutes the coordinates as
    k disjoint 4-cycles, one per coordinate index; a 4-cycle is odd, so the
    sign is (-1)^k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return -1 if k % 2 else 1
