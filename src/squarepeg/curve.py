"""Closed parametric curves in R^k given by truncated Fourier series.

A curve is one trigonometric polynomial per coordinate, evaluated on the
parameter circle [0, 2pi).  Differentiation is term-wise and therefore exact,
which keeps the downstream Jacobians free of discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TWO_PI
from .errors import RegularityLost

#: samples used for the construction-time regularity check
CHECK_SAMPLES = 4096

#: min sampled speed must exceed this fraction of the curve diameter
SPEED_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class Curve:
    """Immutable closed curve gamma: S^1 -> R^k.

    ``a0`` has shape (k,); ``cos_coeffs`` and ``sin_coeffs`` have shape (k, H)
    where H is the harmonic count, shared by every coordinate.  Construction
    runs the sampled regularity check and raises ``RegularityLost`` when the
    tangent gets numerically close to vanishing.
    """

    a0: np.ndarray
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    _diameter: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        a0 = np.array(self.a0, dtype=float, copy=True)
        cos_c = np.atleast_2d(np.array(self.cos_coeffs, dtype=float, copy=True))
        sin_c = np.atleast_2d(np.array(self.sin_coeffs, dtype=float, copy=True))
        if a0.ndim != 1 or cos_c.ndim != 2 or sin_c.ndim != 2:
            raise ValueError("a0 must be (k,), coefficients must be (k, H)")
        k = a0.shape[0]
        if k < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {k}")
        if cos_c.shape[0] != k or sin_c.shape[0] != k or cos_c.shape != sin_c.shape:
            raise ValueError("coefficient arrays must share the shape (k, H)")
        if not all(np.isfinite(arr).all() for arr in (a0, cos_c, sin_c)):
            raise ValueError("curve coefficients must be finite")
        for arr in (a0, cos_c, sin_c):
            arr.flags.writeable = False
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "cos_coeffs", cos_c)
        object.__setattr__(self, "sin_coeffs", sin_c)

        theta = TWO_PI * np.arange(CHECK_SAMPLES) / CHECK_SAMPLES
        speeds = np.linalg.norm(self.deriv(theta), axis=1)
        diam = _point_set_diameter(self.eval(theta[::8]))
        object.__setattr__(self, "_diameter", float(diam))
        if speeds.min() <= SPEED_FLOOR * diam:
            raise RegularityLost(
                f"min sampled speed {speeds.min():.3e} <= "
                f"{SPEED_FLOOR:g} * diameter {diam:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.a0.shape[0]

    @property
    def harmonics(self) -> int:
        return self.cos_coeffs.shape[1]

    @property
    def diameter(self) -> float:
        """Diameter of the sampled image, used to scale tolerances."""
        return self._diameter

    def eval(self, theta) -> np.ndarray:
        """Evaluate the curve; scalar theta -> (k,), array (n,) -> (n, k)."""
        c, s = self._harmonics(theta)
        return self.a0 + c @ self.cos_coeffs.T + s @ self.sin_coeffs.T

    def deriv(self, theta) -> np.ndarray:
        """Exact derivative of the Fourier series, same shapes as ``eval``."""
        c, s = self._harmonics(theta)
        h = np.arange(1, self.harmonics + 1)
        return c @ (h * self.sin_coeffs).T - s @ (h * self.cos_coeffs).T

    def _harmonics(self, theta):
        """cos(h theta) and sin(h theta) for h = 1..H, each theta.shape + (H,).

        One cos and one sin per angle; higher harmonics follow by angle
        addition, whose rounding error grows only like h * eps.  The tables
        are filled harmonic-major, so each step writes one contiguous row.
        """
        theta = np.asarray(theta, dtype=float)
        c = np.empty((self.harmonics,) + theta.shape)
        s = np.empty_like(c)
        c1 = c[0] = np.cos(theta)
        s1 = s[0] = np.sin(theta)
        for h in range(1, self.harmonics):
            c[h] = c[h - 1] * c1 - s[h - 1] * s1
            s[h] = s[h - 1] * c1 + c[h - 1] * s1
        return np.moveaxis(c, 0, -1), np.moveaxis(s, 0, -1)

    def to_json_dict(self) -> dict:
        coords = []
        for i in range(self.dim):
            coords.append(
                {
                    "a0": float(self.a0[i]),
                    "cos": [float(c) for c in self.cos_coeffs[i]],
                    "sin": [float(s) for s in self.sin_coeffs[i]],
                }
            )
        return {"dim": self.dim, "coords": coords}


def make_ellipse(a: float, b: float) -> Curve:
    """Planar ellipse traced counterclockwise as (a cos t, b sin t)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"ellipse semi-axes must be positive, got a={a}, b={b}")
    return Curve(
        a0=np.zeros(2),
        cos_coeffs=np.array([[float(a)], [0.0]]),
        sin_coeffs=np.array([[0.0], [float(b)]]),
    )


def perturb(curve: Curve, amplitude: float, max_harmonic: int, seed: int) -> Curve:
    """Add uniform[-amplitude, amplitude] noise to harmonics 1..max_harmonic.

    Every coordinate's cosine block is drawn first, then the sine block, so a
    fixed seed reproduces the same curve bit for bit.  Raises
    ``RegularityLost`` if the result fails the regularity check.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    if max_harmonic < 0:
        raise ValueError("max_harmonic must be >= 0")
    if amplitude == 0 or max_harmonic == 0:
        return Curve(curve.a0, curve.cos_coeffs, curve.sin_coeffs)
    k = curve.dim
    h_new = max(curve.harmonics, max_harmonic)
    cos_c = np.zeros((k, h_new))
    sin_c = np.zeros((k, h_new))
    cos_c[:, : curve.harmonics] = curve.cos_coeffs
    sin_c[:, : curve.harmonics] = curve.sin_coeffs
    rng = np.random.default_rng(seed)
    cos_c[:, :max_harmonic] += rng.uniform(-amplitude, amplitude, size=(k, max_harmonic))
    sin_c[:, :max_harmonic] += rng.uniform(-amplitude, amplitude, size=(k, max_harmonic))
    return Curve(curve.a0, cos_c, sin_c)


def regularity_and_embedding_check(curve: Curve, samples: int = CHECK_SAMPLES) -> dict:
    """Sampled regularity and self-distance diagnostics.

    Returns ``{"min_speed": float, "min_self_distance": float}``.  The
    self-distance minimum skips parameter pairs within 4 grid steps of each
    other, so it measures genuine near-self-intersection, not arc length.
    It is exact: the skipped band around a sample holds 2 * 4 + 1 samples,
    so the nearest sample outside it is among its 2 * 4 + 2 nearest
    neighbours, which one k-d tree query returns for every sample.
    """
    from scipy.spatial import cKDTree

    if samples < 16:
        raise ValueError("samples must be >= 16")
    theta = TWO_PI * np.arange(samples) / samples
    min_speed = float(np.linalg.norm(curve.deriv(theta), axis=1).min())
    pts = curve.eval(theta)
    exclusion = 4
    dist, nbr = cKDTree(pts).query(pts, k=2 * exclusion + 2)
    sep = np.abs(nbr - np.arange(samples)[:, None])
    sep = np.minimum(sep, samples - sep)
    min_self = float(dist[sep > exclusion].min())
    return {"min_speed": min_speed, "min_self_distance": min_self}


def curve_from_json_dict(data: dict) -> Curve:
    """Build a curve from its JSON form; raises ValueError naming bad fields.

    Accepts either the explicit coefficient form
    ``{"dim": k, "coords": [{"a0": f, "cos": [..], "sin": [..]}, ...]}``
    or the ellipse shorthand ``{"type": "ellipse", "a": f, "b": f}``.
    """
    if not isinstance(data, dict):
        raise ValueError("curve JSON must be an object")
    if data.get("type") == "ellipse":
        for fieldname in ("a", "b"):
            if fieldname not in data:
                raise ValueError(f"ellipse curve JSON missing field '{fieldname}'")
        return make_ellipse(float(data["a"]), float(data["b"]))
    for fieldname in ("dim", "coords"):
        if fieldname not in data:
            raise ValueError(f"curve JSON missing field '{fieldname}'")
    try:
        dim = int(data["dim"])
    except (TypeError, ValueError):
        raise ValueError("field 'dim' must be an integer") from None
    coords = data["coords"]
    if not isinstance(coords, list) or len(coords) != dim:
        raise ValueError("field 'coords' must list one entry per dimension")
    a0 = []
    cos_rows = []
    sin_rows = []
    for i, entry in enumerate(coords):
        if not isinstance(entry, dict):
            raise ValueError(f"coords[{i}] must be an object")
        for fieldname in ("a0", "cos", "sin"):
            if fieldname not in entry:
                raise ValueError(f"coords[{i}] missing field '{fieldname}'")
        a0.append(float(entry["a0"]))
        cos_rows.append([float(v) for v in entry["cos"]])
        sin_rows.append([float(v) for v in entry["sin"]])
    h = max([len(r) for r in cos_rows + sin_rows] + [1])

    def pad(rows):
        return np.array([r + [0.0] * (h - len(r)) for r in rows])

    return Curve(np.array(a0), pad(cos_rows), pad(sin_rows))


def _point_set_diameter(pts: np.ndarray) -> float:
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return float(d.max())
