"""Closed-form cross-checks: the ellipse square, derivative matrices along
hand-built tangent bases, cyclic pushforwards, and the g/f equivalence harness.

Everything here recomputes from scratch rather than reusing solver output, so
these functions double as independent certificates for the solver's results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import G_TARGET, Config4, _as_count, cyclic_relabel
from .errors import PlanarConfiguration
from .slq import (
    Variation4,
    _require_on_slq,
    f_map,
    g_directional_derivative,
    g_map,
    make_bent_rhombus,
    measurements,
)

#: planarity measure below which the nonplanar basis refuses to build
PLANARITY_FLOOR = 1e-6

#: the semi-axes accepted: inside this range every value that ``verify-ellipse``
#: prints, 8 (a^4 - b^4) / (a^2 b^2) and the determinants included, is finite
#: (at a = 1e60, b = 1e-60 the determinant overflows, at a = 1e77 the formula)
_AXIS_RANGE = (1e-50, 1e50)

#: the axis ratios a / b accepted: inside this range both printed determinants
#: agree with 8 (a^4 - b^4) / (a^2 b^2) to 1e-6 relative (9.2e-7 at worst over
#: ratios and b in [1e-40, 1e40]); they err by 9e-5 at a / b = 1e6 and by
#: 1.6e-5 at 1 + 1e-11, and at a = 1e50, b = 1 the determinant has the wrong sign
_RATIO_RANGE = (1 + 1e-10, 1e5)


# ---------------------------------------------------------------------------
# ellipse base case


def ellipse_square_angles(a: float, b: float) -> np.ndarray:
    """Parameter angles of the inscribed square, one per quadrant, increasing."""
    _check_axes(a, b)
    t1 = np.arctan2(a, b)  # first-quadrant angle with cos^2 = b^2/(a^2+b^2)
    return np.array([t1, np.pi - t1, np.pi + t1, 2 * np.pi - t1])


def ellipse_square(a: float, b: float) -> Config4:
    """The unique square inscribed in (a cos t, b sin t), counterclockwise
    from the first quadrant; vertices (+-s, +-s) with s = ab / sqrt(a^2+b^2)."""
    _check_axes(a, b)
    s = a * b / np.hypot(a, b)
    return Config4([[s, s], [-s, s], [-s, -s], [s, -s]])


def ellipse_basis(a: float, b: float) -> list:
    """Four variations, each sliding one square vertex along the ellipse.

    The velocity at vertex i is the curve tangent (-a sin t_i, b cos t_i),
    which at the square works out to the (-a^2, b^2)/sqrt(a^2+b^2) pattern
    rotated per quadrant.
    """
    angles = ellipse_square_angles(a, b)
    out = []
    for i, t in enumerate(angles, start=1):
        v = np.array([-a * np.sin(t), b * np.cos(t)])
        out.append(Variation4.single(i, v, dim=2))
    return out


def ellipse_dg_matrix(a: float, b: float) -> np.ndarray:
    """Derivative of the squared-ratio map along the ellipse basis.

    Column j is the derivative along the variation moving vertex j; the
    determinant equals 8 (a^4 - b^4) / (a^2 b^2).
    """
    square = ellipse_square(a, b)
    return _dg_matrix(square, ellipse_basis(a, b))


def mu_pushforward_dg_matrix(a: float, b: float) -> np.ndarray:
    """Same matrix after cyclically relabeling the square and its variations."""
    square = cyclic_relabel(ellipse_square(a, b))
    basis = [h.cyclic_relabel() for h in ellipse_basis(a, b)]
    return _dg_matrix(square, basis)


# ---------------------------------------------------------------------------
# nonplanar case


def nonplanar_basis(c: Config4) -> list:
    """Variations normal to vertex planes, scaled to pin one length derivative.

    Each vector is the component of the remaining edge (or diagonal) that is
    orthogonal to the plane of its vertex and two neighbors, rescaled so the
    single nonvanishing length derivative takes the stated value:
    D|p1-p4| = -l/2, D|p2-p3| = +l/2, D|p3-p4| = +l/2, D|p1-p3| = l^2/(2m).
    """
    _require_nonplanar_slq(c)
    p = [c.point(i) for i in range(1, 5)]
    ell = c.dist(1, 2)
    m = c.dist(1, 3)
    specs = [
        # (moving slot, plane through, target difference (i, j), target value)
        (1, (2, 3), (1, 4), -ell / 2),
        (3, (1, 4), (2, 3), ell / 2),
        (4, (1, 2), (3, 4), ell / 2),
        (3, (2, 4), (1, 3), ell**2 / (2 * m)),
    ]
    out = []
    for slot, others, (i, j), value in specs:
        base = p[slot - 1]
        span = [p[o - 1] - base for o in others]
        target = p[i - 1] - p[j - 1]
        if slot == j:
            target = -target
        normal = _perp_component(target, span)
        scale = np.dot(target, normal)
        if abs(scale) < 1e-14:
            raise PlanarConfiguration("vertex plane construction degenerated")
        dist = c.dist(i, j)
        out.append(Variation4.single(slot, normal * (value * dist / scale), dim=c.dim))
    return out


def nonplanar_dg_matrix(c: Config4) -> np.ndarray:
    """Derivative matrix along the nonplanar basis; the identity-like
    [[1,0,0,0],[0,1,0,0],[0,-1,1,0],[0,0,0,1]] with determinant 1."""
    return _dg_matrix(c, nonplanar_basis(c))


def mu_pushforward_nonplanar_dg_matrix(c: Config4) -> np.ndarray:
    """Nonplanar matrix after cyclic relabeling of points and variations."""
    basis = [h.cyclic_relabel() for h in nonplanar_basis(c)]
    return _dg_matrix(cyclic_relabel(c), basis)


# ---------------------------------------------------------------------------
# g/f equivalence harness


@dataclass(frozen=True)
class EquivalenceReport:
    trials: int
    max_g_squarelike: float
    max_f_squarelike: float
    min_g_violated: float
    min_f_violated: float

    #: residuals of generated square-like quadrilaterals must stay below this
    SQUARELIKE_TOL = 1e-10
    #: residuals of 1%-violated quadrilaterals must stay above this
    VIOLATED_FLOOR = 1e-4

    @property
    def passed(self) -> bool:
        return (
            self.max_g_squarelike < self.SQUARELIKE_TOL
            and self.max_f_squarelike < self.SQUARELIKE_TOL
            and self.min_g_violated > self.VIOLATED_FLOOR
            and self.min_f_violated > self.VIOLATED_FLOOR
        )


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation from the QR of a Gaussian matrix, det +1."""
    mat = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rigid_move(points: np.ndarray, rng: np.random.Generator, dim: int) -> Config4:
    """Embed into R^dim (zero-padding), then rotate and translate at random."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] < dim:
        pts = np.hstack([pts, np.zeros((4, dim - pts.shape[1]))])
    rot = random_rotation(dim, rng)
    shift = rng.uniform(-5.0, 5.0, size=dim)
    return Config4(pts @ rot.T + shift)


def random_square(rng: np.random.Generator, dim: int) -> Config4:
    side = rng.uniform(0.5, 2.0)
    base = side * np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    return rigid_move(base, rng, dim)


def random_bent_rhombus(rng: np.random.Generator) -> Config4:
    bent = make_bent_rhombus(rng.uniform(0.1, 1.5))
    return rigid_move(bent.points * rng.uniform(0.5, 2.0), rng, 3)


def violated_quad(rng: np.random.Generator, kind: str, delta: float, dim: int) -> Config4:
    """Quadrilateral breaking exactly one defining condition by delta.

    ``kind`` "side": isosceles trapezoid, three sides l and one l(1+delta),
    equal diagonals.  ``kind`` "diagonal": rhombus with all sides equal and
    diagonal ratio 1+delta.
    """
    ell = rng.uniform(0.5, 2.0)
    if kind == "side":
        height = np.sqrt(ell**2 - (ell * delta / 2) ** 2)
        base = np.array(
            [
                [ell * (1 + delta) / 2, 0.0],
                [ell / 2, height],
                [-ell / 2, height],
                [-ell * (1 + delta) / 2, 0.0],
            ]
        )
    elif kind == "diagonal":
        d2 = 2 * ell / np.sqrt(1 + (1 + delta) ** 2)
        d1 = d2 * (1 + delta)
        base = np.array([[d1 / 2, 0], [0, d2 / 2], [-d1 / 2, 0], [0, -d2 / 2]])
    else:
        raise ValueError(f"unknown violation kind {kind!r}")
    return rigid_move(base, rng, dim)


def equivalence_harness(trials: int, seed: int) -> EquivalenceReport:
    """Exercise both residual maps on square-like and near-miss families.

    Square-like inputs are rigid motions of planar squares in R^2 and R^3 and
    bent rhombi in R^3; near misses violate one side or one diagonal relation
    by at least 1%.  Both maps must vanish on the first family and register
    the second.
    """
    seed = _as_count("seed", seed, minimum=0)
    trials = _as_count("trials", trials, minimum=1)
    rng = np.random.default_rng(seed)
    max_g_sq = 0.0
    max_f_sq = 0.0
    min_g_bad = np.inf
    min_f_bad = np.inf
    for i in range(trials):
        family = i % 3
        if family == 0:
            cfg = random_square(rng, dim=2)
        elif family == 1:
            cfg = random_square(rng, dim=3)
        else:
            cfg = random_bent_rhombus(rng)
        max_g_sq = max(max_g_sq, float(np.linalg.norm(g_map(cfg) - G_TARGET)))
        max_f_sq = max(max_f_sq, float(np.linalg.norm(f_map(cfg))))

        kind = "side" if i % 2 == 0 else "diagonal"
        delta = rng.uniform(0.01, 0.05)
        bad = violated_quad(rng, kind, delta, dim=2 if i % 4 < 2 else 3)
        min_g_bad = min(min_g_bad, float(np.linalg.norm(g_map(bad) - G_TARGET)))
        min_f_bad = min(min_f_bad, float(np.linalg.norm(f_map(bad))))
    return EquivalenceReport(
        trials=trials,
        max_g_squarelike=max_g_sq,
        max_f_squarelike=max_f_sq,
        min_g_violated=min_g_bad,
        min_f_violated=min_f_bad,
    )


# ---------------------------------------------------------------------------
# helpers


def _check_axes(a: float, b: float) -> None:
    # the comparisons are False for nan, so this also rejects it
    lo, hi = _AXIS_RANGE
    if not (hi >= a > b >= lo):
        raise ValueError(
            f"need finite a > b > 0, both in [{lo:g}, {hi:g}] "
            f"(a circle has no isolated square); got a={a}, b={b}"
        )
    lo, hi = _RATIO_RANGE
    if not (hi >= a / b >= lo):
        raise ValueError(
            f"need a / b in [{lo:.12g}, {hi:g}], where the determinants are accurate "
            f"to 1e-6; got a / b = {a / b:.12g}"
        )


def _dg_matrix(c: Config4, basis) -> np.ndarray:
    cols = [g_directional_derivative(c, h) for h in basis]
    return np.stack(cols, axis=1)


def _perp_component(target: np.ndarray, span) -> np.ndarray:
    basis = np.array(span, dtype=float).T
    q, _ = np.linalg.qr(basis)
    return target - q @ (q.T @ target)


def _require_nonplanar_slq(c: Config4) -> None:
    _require_on_slq(c)
    if measurements(c).planarity <= PLANARITY_FLOOR:
        raise PlanarConfiguration("configuration is planar; use the ellipse basis")
