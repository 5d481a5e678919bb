"""The pinned parity-census recipes: random space curves and a planar control.

Space: for each seed, ``rng = np.random.default_rng(seed)`` and
``amp = (0.3, 0.45, 0.6)[seed % 3]``; the 2:1 ellipse in the xy-plane as
3x4 coefficient blocks, plus ``amp * rng.uniform(-1, 1, (3, 4))`` added to
the cosine block first and a second draw added to the sine block.  Space4:
the same in R^4, with 4x4 blocks and (4, 4) draws.  Planar:
``perturb(ellipse, (0.06, 0.08, 0.10)[seed % 3], (6, 8, 10)[(seed // 3) % 3],
seed)``.  A seed is kept when its curve constructs and its minimum
self-distance exceeds ``EMBED_FLOOR`` times its diameter.  Over
``SEEDS`` the space recipe keeps 185 curves, space4 327 and the planar one 73.

Symmetric: ``symmetric_curve(k, seed, space)`` has a k-fold rotational
symmetry, gamma(t + 2 pi / k) = R gamma(t), so for odd k its classes come in
orbits of exactly k, and ``closed`` tells whether a report's class set is
mapped to itself.  Over ``SYMMETRIC_SEEDS`` it keeps 136, 138 and 140
planar curves for k = 3, 5 and 7, and 185, 187 and 187 space curves.
"""

import numpy as np

from squarepeg import Curve, make_ellipse, perturb, regularity_and_embedding_check
from squarepeg.config import TWO_PI
from squarepeg.errors import RegularityLost
from squarepeg.solver import _class_distances

SEEDS = range(1000, 1400)

#: a kept curve's minimum self-distance exceeds this fraction of its diameter
EMBED_FLOOR = 1e-3

SYMMETRIC_SEEDS = range(200)

#: the symmetry orders of the symmetric recipe
SYMMETRY_ORDERS = (3, 5, 7)

#: a class's image under the symmetry lies within this class distance of a class
CLOSED_RADIUS = 1e-6


def space_curve(seed: int, dim: int = 3) -> Curve:
    rng = np.random.default_rng(seed)
    amp = (0.3, 0.45, 0.6)[seed % 3]
    cos_c, sin_c = np.zeros((dim, 4)), np.zeros((dim, 4))
    cos_c[0, 0], sin_c[1, 0] = 2.0, 1.0
    cos_c += amp * rng.uniform(-1, 1, (dim, 4))
    sin_c += amp * rng.uniform(-1, 1, (dim, 4))
    return Curve(np.zeros(dim), cos_c, sin_c)


def space4_curve(seed: int) -> Curve:
    return space_curve(seed, dim=4)


def planar_curve(seed: int) -> Curve:
    amplitude, harmonics = (0.06, 0.08, 0.10)[seed % 3], (6, 8, 10)[(seed // 3) % 3]
    return perturb(make_ellipse(2, 1), amplitude, harmonics, seed)


def symmetric_curve(k: int, seed: int, space: bool) -> Curve:
    """A curve with gamma(t + 2 pi / k) = R gamma(t), R a rotation about the z axis.

    Planar: x + iy = e^{it} + sum c_m e^{imt} over m = 1 (mod k), m != 1 and
    |m| <= 2k + 1, m ascending, with c_m = amp (rng.normal() + i rng.normal())
    / |m| and ``amp = (0.15, 0.25, 0.35)[seed % 3]``.  Space: that curve in
    the xy-plane plus z = sum over h in (k, 2k) of a_h cos ht + b_h sin ht,
    with (a_h, b_h) = ``z_rng.normal(size=2) / h``, drawn for h = k and then
    h = 2k from one ``z_rng = np.random.default_rng(seed + 99991)``.
    """
    rng = np.random.default_rng(seed)
    amp = (0.15, 0.25, 0.35)[seed % 3]
    top = 2 * k + 1
    cos_c, sin_c = np.zeros((2 + space, top)), np.zeros((2 + space, top))
    cos_c[0, 0], sin_c[1, 0] = 1.0, 1.0
    for m in range(-top, top + 1):
        if m % k != 1 or m == 1:
            continue
        c = amp * complex(rng.normal(), rng.normal()) / abs(m)
        h, s = abs(m) - 1, np.sign(m)
        # c e^{imt} = (Re c cos ht - s Im c sin ht) + i (Im c cos ht + s Re c sin ht)
        cos_c[0, h] += c.real
        sin_c[0, h] -= s * c.imag
        cos_c[1, h] += c.imag
        sin_c[1, h] += s * c.real
    if space:
        z_rng = np.random.default_rng(seed + 99991)
        for h in (k, 2 * k):
            cos_c[2, h - 1], sin_c[2, h - 1] = z_rng.normal(size=2) / h
    return Curve(np.zeros(len(cos_c)), cos_c, sin_c)


def closed(report, k: int) -> bool:
    """Whether the shift theta + 2 pi / k maps the report's class set to itself:
    each shifted class lies within ``CLOSED_RADIUS`` of a class, and the
    count is a multiple of k."""
    thetas = np.array([s.theta for s in report.classes]).reshape(-1, 4)
    if len(thetas) % k:
        return False
    near = _class_distances(np.mod(thetas + TWO_PI / k, TWO_PI), thetas)
    return bool(np.all(near.min(axis=1, initial=np.inf) <= CLOSED_RADIUS))


def kept(recipe, seeds=SEEDS):
    """``(seed, curve)`` for each seed whose curve constructs and is embedded."""
    for seed in seeds:
        try:
            curve = recipe(seed)
        except RegularityLost:
            continue
        check = regularity_and_embedding_check(curve)
        if check["min_self_distance"] > EMBED_FLOOR * curve.diameter:
            yield seed, curve
