import numpy as np
import pytest

from squarepeg import Curve, make_ellipse


@pytest.fixture(scope="session")
def ellipse21():
    return make_ellipse(2, 1)


@pytest.fixture(scope="session")
def unit_circle():
    return Curve([0, 0], [[1.0], [0.0]], [[0.0], [1.0]])


def three_lobe_curve() -> Curve:
    """Three-lobed closed curve (polar radius 1 + 0.3 cos 3t, expanded).

    x = cos t + 0.15 cos 2t + 0.15 cos 4t
    y = sin t - 0.15 sin 2t + 0.15 sin 4t
    Inscribes three transverse square classes.
    """
    return Curve(
        [0, 0],
        [[1.0, 0.15, 0.0, 0.15], [0.0, 0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0, 0.0], [1.0, -0.15, 0.0, 0.15]],
    )


@pytest.fixture(scope="session")
def three_lobe():
    return three_lobe_curve()


def moved_curve_json(curve: Curve, scale: float = 1.0, shift: float = 0.0) -> dict:
    """Curve JSON of ``scale * curve + shift`` (the shift in every coordinate),
    written without constructing that curve."""
    blocks = (scale * curve.a0 + shift, scale * curve.cos_coeffs, scale * curve.sin_coeffs)
    rows = zip(*(b.tolist() for b in blocks))
    coords = [{"a0": a0, "cos": cos, "sin": sin} for a0, cos, sin in rows]
    return {"dim": curve.dim, "coords": coords}


def unresolvable_curves() -> dict:
    """Curve JSON, by name, that float64 cannot resolve, so ``Curve`` refuses it.

    Each was once solved to a confident wrong answer: 174, 172, 2, 2, 150
    classes with parity "even", and 0 classes for the trefoil.  The first two
    have a diameter below 1e-150; the others lie more than 1e3 diameters
    from the origin.
    """
    trefoil = Curve(
        [0, 0, 0], [[0, 0, 0], [1, -2, 0], [0, 0, 0]], [[1, 2, 0], [0, 0, 0], [0, 0, -1]]
    )
    lobe = three_lobe_curve()
    return {
        "ellipse-2e-160": {"type": "ellipse", "a": 2e-160, "b": 1e-160},
        "three-lobe-x1e-160": moved_curve_json(lobe, 1e-160),
        "three-lobe-x1e-6-at-1": moved_curve_json(lobe, 1e-6, 1.0),
        "three-lobe-x0.1-at-1e6": moved_curve_json(lobe, 0.1, 1e6),
        "ellipse-diameter-4e-3-at-1e10": moved_curve_json(make_ellipse(2, 1), 1e-3, 1e10),
        "trefoil-at-1e5": moved_curve_json(trefoil, 1.0, 1e5),
    }


def random_smooth_curve(rng: np.random.Generator, dim: int = 2, harmonics: int = 3) -> Curve:
    """Mildly perturbed ellipse-like curve; regular by construction retry."""
    for _ in range(20):
        cos_c = np.zeros((dim, harmonics))
        sin_c = np.zeros((dim, harmonics))
        cos_c[0, 0] = rng.uniform(1.5, 2.5)
        sin_c[1, 0] = rng.uniform(0.8, 1.4)
        cos_c += rng.uniform(-0.08, 0.08, size=cos_c.shape)
        sin_c += rng.uniform(-0.08, 0.08, size=sin_c.shape)
        a0 = rng.uniform(-1, 1, size=dim)
        try:
            return Curve(a0, cos_c, sin_c)
        except Exception:
            continue
    raise RuntimeError("could not draw a regular curve")
