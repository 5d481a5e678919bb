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
"""

import numpy as np

from squarepeg import Curve, make_ellipse, perturb, regularity_and_embedding_check
from squarepeg.errors import RegularityLost

SEEDS = range(1000, 1400)

#: a kept curve's minimum self-distance exceeds this fraction of its diameter
EMBED_FLOOR = 1e-3


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
