"""Closed parametric curves in R^k given by truncated Fourier series.

A curve is one trigonometric polynomial per coordinate, evaluated on the
parameter circle [0, 2pi).  Differentiation is term-wise and therefore exact,
which keeps the downstream Jacobians free of discretization error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import TWO_PI, _as_count
from .errors import RegularityLost

#: samples used for the construction-time regularity check
CHECK_SAMPLES = 4096

#: min sampled speed must exceed this fraction of the curve diameter
SPEED_FLOOR = 1e-6

#: largest coordinate bound |a0| + sum |cos| + sum |sin| accepted; the
#: residual kernels square pair distances, which overflow from about 1e154
MAX_SCALE = 1e150

#: largest harmonic count accepted: the 4,096 check samples then hold at least
#: 16 per period of the top harmonic, and a cold ``find`` peaks near 120 MB
#: (each harmonic adds 64 KB to the cached check table alone)
MAX_HARMONICS = 256

#: smallest diameter accepted: above it the squared separations at the
#: separation guard, at least (1e-3 D)^2, stay normal floats
_MIN_DIAMETER = 1e-150

#: largest ``MAX_SCALE`` quantity accepted, over the diameter: farther from
#: the origin, rounding of the coordinates swamps the curve's shape (the test
#: curves read at most 0.99; moved away, trefoil loses classes from 3e3)
_MAX_SCALE_PER_DIAMETER = 1e3

# Tables of at most this many angles are built by one complex accumulate,
# larger ones by the angle-addition recurrence.  Per table, with the copies
# to contiguous rows, on a 2-core x86 box (numpy 2.4, OpenBLAS): at H = 8
# 7 us against 28 us at n = 40, 41 us against 45 us at n = 512, 79 us
# against 71 us at n = 1,024 and 644 us against 220 us at n = 4,096; at
# H = 3..5 the two meet between n = 384 and 768.
_ACCUMULATE_MAX_ANGLES = 512


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
    # h * b_h and h * a_h, the coefficient blocks of the derivative
    _hsin: np.ndarray = field(init=False, repr=False, default=None)
    _hcos: np.ndarray = field(init=False, repr=False, default=None)

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
        _check_harmonics(cos_c.shape[1])
        if not all(np.isfinite(arr).all() for arr in (a0, cos_c, sin_c)):
            raise ValueError("curve coefficients must be finite")
        scale = (np.abs(a0) + np.abs(cos_c).sum(axis=1) + np.abs(sin_c).sum(axis=1)).max()
        if scale > MAX_SCALE:
            raise ValueError(f"curve scale {scale:.3g} exceeds {MAX_SCALE:g}")
        harmonics = cos_c.shape[1]
        h = np.arange(1, harmonics + 1)
        blocks = {"a0": a0, "cos_coeffs": cos_c, "sin_coeffs": sin_c}
        blocks.update(_hsin=h * sin_c, _hcos=h * cos_c)
        for name, arr in blocks.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

        # the diameter takes every 8th check sample: the same angles, bit for bit
        tangents = self._tangents(*_sample_table(CHECK_SAMPLES, harmonics))
        min_speed = np.sqrt(_squared_norms(tangents).min())
        diam = _point_set_diameter(self._points(*_sample_table(CHECK_SAMPLES // 8, harmonics)))
        object.__setattr__(self, "_diameter", float(diam))
        if min_speed <= SPEED_FLOOR * diam:
            raise RegularityLost(
                f"min sampled speed {min_speed:.3e} <= "
                f"{SPEED_FLOOR:g} * diameter {diam:.3e}"
            )
        if diam < _MIN_DIAMETER:
            raise ValueError(f"curve diameter {diam:.3g} is below {_MIN_DIAMETER:g}")
        if scale > _MAX_SCALE_PER_DIAMETER * diam:
            raise ValueError(
                f"curve scale {scale:.3g} exceeds "
                f"{_MAX_SCALE_PER_DIAMETER:g} x its diameter {diam:.3g}"
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
        """Evaluate the curve; theta of any shape -> theta.shape + (k,)."""
        out = self._points(*_harmonic_table(theta, self.harmonics))
        return out.reshape(np.shape(theta) + (self.dim,))

    def deriv(self, theta) -> np.ndarray:
        """Exact derivative of the Fourier series, same shapes as ``eval``."""
        out = self._tangents(*_harmonic_table(theta, self.harmonics))
        return out.reshape(np.shape(theta) + (self.dim,))

    def _points(self, c, s) -> np.ndarray:
        """(n, k) points from the (n, H) cos and sin tables of n angles."""
        return self.a0 + c @ self.cos_coeffs.T + s @ self.sin_coeffs.T

    def _tangents(self, c, s) -> np.ndarray:
        """(n, k) tangents from the (n, H) cos and sin tables of n angles."""
        return c @ self._hsin.T - s @ self._hcos.T

    def to_json_dict(self) -> dict:
        blocks = (self.a0.tolist(), self.cos_coeffs.tolist(), self.sin_coeffs.tolist())
        coords = [{"a0": a0, "cos": cos, "sin": sin} for a0, cos, sin in zip(*blocks)]
        return {"dim": self.dim, "coords": coords}


def _harmonic_table(theta, harmonics: int):
    """cos(h theta) and sin(h theta) for h = 1..H, each (theta.size, H).

    One cos and one sin per angle; higher harmonics follow by angle
    addition, whose rounding error grows only like h * eps.  Both builds
    below fill (H, n) tables harmonic-major, returned as transposed views,
    and take the same two products and one sum per entry, so they agree
    bit for bit.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    build = _accumulated if 2 < harmonics and theta.size <= _ACCUMULATE_MAX_ANGLES else _recurrence
    c, s = build(theta, harmonics)
    return c.T, s.T


def _recurrence(theta: np.ndarray, harmonics: int):
    """(H, n) tables by the angle-addition recurrence, one row per step."""
    c = np.empty((harmonics,) + theta.shape)
    s = np.empty_like(c)
    c1 = c[0] = np.cos(theta)
    s1 = s[0] = np.sin(theta)
    for h in range(1, harmonics):
        c[h] = c[h - 1] * c1 - s[h - 1] * s1
        s[h] = s[h - 1] * c1 + c[h - 1] * s1
    return c, s


def _accumulated(theta: np.ndarray, harmonics: int):
    """(H, n) tables as the running product of cos theta + i sin theta, one call.

    Row h is row h - 1 times row 1: real part c c1 - s s1, imaginary part
    c s1 + s c1, the recurrence's terms.  With H >= 3 each product reads
    the one before, and numpy runs its sequential complex loop; a lone
    product (H = 2) takes its vector loop, whose fused multiply-add rounds
    differently, so ``_harmonic_table`` keeps H <= 2 on the recurrence.
    """
    z = np.empty((harmonics,) + theta.shape, dtype=complex)
    z.real = np.cos(theta)
    z.imag = np.sin(theta)
    np.multiply.accumulate(z, axis=0, out=z)
    return z.real.copy(), z.imag.copy()


@functools.lru_cache(maxsize=3)
def _sample_table(samples: int, harmonics: int):
    """Read-only ``_harmonic_table`` of the angles 2 pi j / samples, j < samples.

    Curve construction and the embedding check evaluate every curve at the
    same few sample counts; three entries hold one harmonic count's
    4,096-, 512- and 1,024-sample tables.
    """
    tables = _harmonic_table(TWO_PI * np.arange(samples) / samples, harmonics)
    for table in tables:
        table.flags.writeable = False
    return tables


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
    fixed seed reproduces the same curve bit for bit.  The seed must be a
    non-negative integer; ``ValueError`` names it otherwise.  Raises
    ``RegularityLost`` if the result fails the regularity check.
    """
    seed = _as_count("seed", seed, minimum=0)
    # the comparison is False for nan, so it also rejects it
    if not 0 <= amplitude < np.inf:
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    max_harmonic = _as_count("max_harmonic", max_harmonic, minimum=0)
    _check_harmonics(max_harmonic)  # before the padded coefficients are allocated
    if amplitude == 0 or max_harmonic == 0:
        return Curve(curve.a0, curve.cos_coeffs, curve.sin_coeffs)
    k = curve.dim
    h_new = max(curve.harmonics, max_harmonic)
    cos_c = _zero_padded(curve.cos_coeffs, h_new)
    sin_c = _zero_padded(curve.sin_coeffs, h_new)
    rng = np.random.default_rng(seed)
    cos_c[:, :max_harmonic] += rng.uniform(-amplitude, amplitude, size=(k, max_harmonic))
    sin_c[:, :max_harmonic] += rng.uniform(-amplitude, amplitude, size=(k, max_harmonic))
    return Curve(curve.a0, cos_c, sin_c)


def _check_harmonics(count: int) -> None:
    """Raise ValueError for a harmonic count above ``MAX_HARMONICS``."""
    if count > MAX_HARMONICS:
        raise ValueError(f"{count} harmonics exceed {MAX_HARMONICS}")


def _zero_padded(coeffs: np.ndarray, h: int) -> np.ndarray:
    """A new (k, h) copy of the (k, H) coefficient block, H <= h, zeros after column H."""
    out = np.zeros((coeffs.shape[0], h))
    out[:, : coeffs.shape[1]] = coeffs
    return out


def regularity_and_embedding_check(curve: Curve, samples: int = CHECK_SAMPLES) -> dict:
    """Sampled regularity and self-distance diagnostics.

    Returns ``{"min_speed": float, "min_self_distance": float}``.  The
    self-distance minimum skips parameter pairs within 4 grid steps of each
    other, so it measures genuine near-self-intersection, not arc length.
    It is exact: the smallest chord between samples 5 steps apart is itself
    a pair outside the skipped band, so it bounds the minimum, and
    ``_close_pairs`` returns every pair outside the band no farther apart
    than that bound; the minimum is the bound or the nearest of those pairs.
    Each minimum is the square root of the smallest ``_squared_norms``: the
    square root is monotone, so these are the bits of the smallest
    ``np.linalg.norm`` over the rows, without a root per row.
    """
    samples = _as_count("samples", samples, minimum=16)
    c, s = _sample_table(samples, curve.harmonics)
    min_speed = float(np.sqrt(_squared_norms(curve._tangents(c, s)).min()))
    pts = curve._points(c, s)
    exclusion = 4
    bound2 = _squared_norms(pts - np.roll(pts, -(exclusion + 1), axis=0)).min()
    i, j = _close_pairs(pts, np.sqrt(bound2) * (1 + 1e-12), skip=exclusion)
    min_self = float(np.sqrt(_squared_norms(pts[i] - pts[j]).min(initial=bound2)))
    return {"min_speed": min_speed, "min_self_distance": min_self}


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norms of the (n, k) rows, summed one coordinate at a time.

    For k <= 7 these are the bits of numpy's reduction over axis 1, which
    ``np.linalg.norm(rows, axis=1)`` takes the square root of: numpy sums
    fewer than 8 terms in order.  From k = 8 numpy unrolls its reduction
    by 8, and the last bit can differ.  Streaming over whole columns is
    several times faster than reducing the short axis of each row.
    """
    total = rows[:, 0] * rows[:, 0]
    for x in rows.T[1:]:
        total += x * x
    return total


def _close_pairs(pts: np.ndarray, radius: float, skip: int = 0):
    """Index arrays (i, j), i < j, of the (n, k) points at most ``radius`` apart.

    The pairs of scipy's ``cKDTree.query_pairs``: squared differences summed
    in coordinate order at most ``radius**2``.  A sweep along the widest
    coordinate pairs each point with the later ones within reach there (one
    ``searchsorted``), prunes on the other coordinates, then tests the exact
    distance.  The reach is ``radius`` widened by 1e-9 against rounding.
    Pairs at most ``skip`` indices apart around the circle of n indices are
    dropped after the pruning, before the distance test.
    """
    reach = radius * (1 + 1e-9)
    coords = pts.T.copy()
    axis = int(np.argmax(coords.max(axis=1) - coords.min(axis=1)))
    order = np.argsort(coords[axis], kind="stable")
    coords = coords.take(order, axis=1)
    x, after = coords[axis], np.arange(1, len(pts) + 1)
    counts = np.searchsorted(x, x + reach, side="right") - after
    first = np.repeat(after - 1, counts)  # sorted point i's window starts at i + 1
    second = np.arange(first.size) + np.repeat(after - np.cumsum(counts) + counts, counts)
    for row in np.delete(coords, axis, axis=0):
        gap = row.take(second) - row.take(first)
        near = np.abs(gap, out=gap) <= reach
        first, second = first[near], second[near]
    sep = np.abs(order.take(second) - order.take(first))
    far = np.minimum(sep, len(pts) - sep) > skip
    first, second = first[far], second[far]
    d2 = sum((row.take(second) - row.take(first)) ** 2 for row in coords)  # scipy's order
    keep = d2 <= radius * radius
    i, j = order.take(first[keep]), order.take(second[keep])
    return np.minimum(i, j), np.maximum(i, j)


def curve_from_json_dict(data: dict) -> Curve:
    """Build a curve from its JSON form; raises ValueError naming bad fields.

    Accepts either the explicit coefficient form
    ``{"dim": k, "coords": [{"a0": f, "cos": [..], "sin": [..]}, ...]}``
    or the ellipse shorthand ``{"type": "ellipse", "a": f, "b": f}``.
    """
    if not isinstance(data, dict):
        raise ValueError("curve JSON must be an object")
    if data.get("type") == "ellipse":
        _require_fields(data, "ellipse curve JSON", "a", "b")
        return make_ellipse(_json_number(data["a"], "a"), _json_number(data["b"], "b"))
    _require_fields(data, "curve JSON", "dim", "coords")
    dim = data["dim"]
    if type(dim) is not int:
        raise ValueError(f"field 'dim' must be an integer, got {dim!r}")
    coords = data["coords"]
    if not isinstance(coords, list) or len(coords) != dim:
        raise ValueError("field 'coords' must list one entry per dimension")
    a0 = []
    cos_rows = []
    sin_rows = []
    for i, entry in enumerate(coords):
        if not isinstance(entry, dict):
            raise ValueError(f"coords[{i}] must be an object")
        _require_fields(entry, f"coords[{i}]", "a0", "cos", "sin")
        a0.append(_json_number(entry["a0"], f"coords[{i}].a0"))
        for fieldname, rows in (("cos", cos_rows), ("sin", sin_rows)):
            name = f"coords[{i}].{fieldname}"
            if not isinstance(entry[fieldname], list):
                raise ValueError(f"field '{name}' must be a list of numbers")
            rows.append([_json_number(v, name) for v in entry[fieldname]])
    h = max([len(r) for r in cos_rows + sin_rows] + [1])

    def pad(rows):
        return np.array([r + [0.0] * (h - len(r)) for r in rows])

    return Curve(np.array(a0), pad(cos_rows), pad(sin_rows))


def _require_fields(data: dict, where: str, *names: str) -> None:
    """Raise ValueError naming the first of ``names`` that ``data`` lacks."""
    for name in names:
        if name not in data:
            raise ValueError(f"{where} missing field '{name}'")


def _json_number(value, name: str) -> float:
    """A JSON number as a float; raises ValueError naming the field otherwise."""
    if type(value) not in (int, float):  # not bool: JSON true/false are not numbers
        raise ValueError(f"field '{name}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"field '{name}' is out of range") from None


def _point_set_diameter(pts: np.ndarray) -> float:
    """Largest distance between two of the (n, k) points.

    The farthest pair is located on the squared distances |a|^2 + |b|^2 -
    2 a.b of the centred points, a Gram matrix instead of an (n, n, k)
    difference array; its distance is then taken exactly.  The Gram form
    errs by a few eps times the squared diameter D^2.

    Only the block of points that can hold the farthest pair is formed.
    With r_i the norm of centred point i, r the largest and L the distance
    from that point to its own farthest one (so D/2 <= L <= D), every pair
    has |a_i - a_j| <= r_i + r_j <= r_i + r, so a pair with r_i + r <
    L (1 - 1e-9), or with r_j + r below it, has a Gram entry below L^2 less
    the Gram error, below the entry of the pair at distance L.  The full
    matrix's maximum and its ties thus lie in the block of the kept rows
    and the same kept columns, which keeps their order and entries: the
    first maximum in row-major order, the pair and the diameter agree bit
    for bit with the full matrix's.  The farthest point and its partner are
    kept, so the product stays a matrix product (a single row would take
    BLAS's vector path).
    """
    centred = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    r = np.sqrt(sq)
    p = int(np.argmax(r))
    reach = np.sqrt(_squared_norms(centred - centred[p]).max())
    kept = np.flatnonzero(r + r[p] >= reach * (1 - 1e-9))
    block = centred[kept]
    dist2 = (-2.0 * block) @ block.T
    dist2 += sq[kept, None]
    dist2 += sq[kept]
    a, b = divmod(int(np.argmax(dist2)), len(kept))
    return float(np.linalg.norm(pts[kept[a]] - pts[kept[b]]))
