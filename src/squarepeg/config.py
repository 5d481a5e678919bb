"""Coordinate functions on configurations of four labeled points.

Everything here treats a configuration as an ordered 4-tuple of points in
R^k with 1-based labels, matching the way the distance-ratio and direction
functions are indexed throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, IndeterminateRatio

TWO_PI = 2.0 * np.pi


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
    """Ordered 4-tuple of points with cached distances and directions.

    Accessors take 1-based labels so expressions read like the usual
    subscripts: ``c.dist(1, 3)`` is the first diagonal, ``c.ratio(1, 2, 4)``
    the side ratio |p1-p2| / |p1-p4|.  Instances are immutable.
    """

    __slots__ = ("points", "_dists", "_dirs")

    def __init__(self, points):
        pts = np.array(points, dtype=float, copy=True)
        if pts.shape[0] != 4 or pts.ndim != 2:
            raise ValueError(f"expected 4 points of equal dimension, got shape {pts.shape}")
        if pts.shape[1] < 2:
            raise ValueError("ambient dimension must be >= 2")
        diff = pts[:, None, :] - pts[None, :, :]
        dists = np.linalg.norm(diff, axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            dirs = diff / dists[:, :, None]
        pts.flags.writeable = False
        dists.flags.writeable = False
        dirs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_dists", dists)
        object.__setattr__(self, "_dirs", dirs)

    def __setattr__(self, name, value):
        raise AttributeError("Config4 is immutable")

    def __repr__(self):
        return f"Config4({self.points.tolist()})"

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.points[i - 1]

    def dist(self, i: int, j: int) -> float:
        return float(self._dists[i - 1, j - 1])

    def direction(self, i: int, j: int) -> np.ndarray:
        """Unit vector from p_j toward p_i."""
        if self._dists[i - 1, j - 1] == 0.0:
            raise CoincidentPoints(f"points {i} and {j} coincide")
        return self._dirs[i - 1, j - 1]

    def ratio(self, i: int, j: int, l: int) -> float:
        num = self._dists[i - 1, j - 1]
        den = self._dists[i - 1, l - 1]
        if den == 0.0:
            if num == 0.0:
                raise IndeterminateRatio(f"0/0 ratio r_{i}{j}{l}")
            return np.inf
        return float(num / den)

    def s_ratio(self, i: int, j: int, l: int) -> float:
        return float(2.0 / np.pi * np.arctan(self.ratio(i, j, l)))

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
    th = np.mod(np.asarray(thetas, dtype=float), TWO_PI)
    if th.shape != (4,):
        raise ValueError("expected exactly 4 angles")
    rot = np.roll(th, -int(np.argmin(th)))
    return bool(np.all(np.diff(rot) > 0.0))


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
    if scale <= 0:
        raise ValueError("scale must be positive")
    threshold = eps * scale
    parent = list(range(4))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(4):
        for j in range(i + 1, 4):
            if c._dists[i, j] < threshold:
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(4):
        clusters.setdefault(find(i), []).append(i + 1)
    return Stratum.from_clusters(clusters.values())


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
