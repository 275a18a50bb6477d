"""Cross-section shapes of an axisymmetric ring in the meridional half plane.

A cross-section is a closed convex curve in {r > 0}, symmetric under
z -> -z.  Smooth kinds (disk, ellipse, fourier-star) are parameterized by an
angle t; polygons carry exact per-edge data instead.

A smooth kind is sampled by one rule, for the solver and the geometry
report alike: nodes uniform in s, with the curve evaluated at
t(s) = s + alpha sin s (Kress, Numer. Math. 58, 1990), trapezoidal weights
in s.  The map clusters the nodes at t = pi, the innermost point of every
smooth kind, refining there by 1/(1 - alpha).  A section close to the axis
has a boundary layer at t = pi that uniform nodes resolve only at large n;
`_grading` picks alpha from r_min/a (a = sqrt(area / 2 pi)) alone, 0
for sections far from the axis.  It never depends on n, so a sample of
n/2 nodes is the nodes [::2] of one of n."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

__all__ = [
    "InvalidShapeError",
    "CrossSection",
    "Disk",
    "Ellipse",
    "FourierStar",
    "Polygon",
    "SmoothBoundary",
    "PolygonBoundary",
    "boundary_nodes",
    "node_count",
    "shape_from_dict",
    "shape_to_dict",
    "load_shape",
    "random_smooth_shape",
    "random_convex_polygon",
]

DEFAULT_RESOLUTION = 512
MAX_RESOLUTION = 8192
_POLYGON_POINTS = 12   # upper-half points of random_convex_polygon's cloud

# Convexity slack: signed curvature >= -1e-10 / a absorbs floating-point
# noise in fourier-star curvature.
CONVEXITY_TOL = 1e-10

# The grading rule: alpha = 0.9 min(1, ln(0.12 / x) / ln(0.12 / 0.03)) for
# 0 < x = r_min / a < 0.12, else 0.  Measured on area-2 pi disks, flow-speed
# gap of n = 512 against n = 256 (uniform nodes, alpha = 0, in the first
# column), and the best alpha of a scan in steps of 0.1:
#     r_min/a   uniform   best alpha, gap     the rule's alpha
#     0.0045    0.67      0.9,  4.8e-6        0.9
#     0.008     6.0e-2    0.9,  7.3e-8        0.9
#     0.0143    7.1e-3    0.9,  3.9e-10       0.9
#     0.026     2.4e-4    0.8,  4.4e-12       0.9
#     0.046     1.8e-6    0.7,  1.1e-12       0.62
#     0.084     9.0e-10   0.4,  3.4e-13       0.23
#     0.157     3.6e-13   0.3,  3.1e-13       0
# Against an n = 2048 solve the rule is as accurate as uniform nodes or
# more at each x above and n = 128, 256 and 512, down to that solve's own
# floor of about 1e-11.  The cap keeps t(s) monotone and the condition
# estimate at most 2.7e8 (at x = 0.0045).
# The map thins the nodes at the outer point t = 0 by 1 + alpha, and a flat
# ellipse's outer tip is as sharp as its inner one.  The rule grades it all
# the same.  On ellipses of n/m (z semi-axis over r semi-axis) from 0.01 to
# 40 and x from 0.0007 to 0.11, with errors at n = 256 and 512 against an
# n = 2048 solve with the same alpha:
#   - Flat ones (n/m <= 0.1): in 33 of their 66 cases r_min exceeds the
#     outer radius of curvature rho(0).  The worst graded case is 2.8e-4
#     at n = 256 and 7.6e-6 at 512 (n/m = 0.01), against 6.1e-2 and 1.7e-3
#     uniform.  Uniform nodes are more accurate at n = 512 for n/m <= 0.02
#     and x from 0.02 to 0.07 (at most 7.6e-6 graded against 1.2e-6
#     uniform, n/m = 0.01, x = 0.03), at n/m = 0.02, x = 0.05 and n = 256
#     (3.8e-6 against 3.1e-6), and elsewhere only below 1.3e-10.
#   - Tall ones lose graded only where neither resolves (n/m = 40,
#     x <= 0.003: errors 2.5 to 9.5 graded, 0.6 to 1.7 uniform).
#   - At x = 0.0007 the n = 2048 solve exceeds the condition gate for
#     n/m >= 10 graded and n/m = 5 uniform; those cases are left out.
_GRADING_FROM = 0.12   # x at and above which alpha = 0
_GRADING_FULL = 0.03   # x at and below which alpha = _GRADING_MAX
_GRADING_MAX = 0.9


class InvalidShapeError(ValueError):
    """Shape violates a cross-section invariant (named in the message)."""


@dataclass(frozen=True)
class CrossSection:
    """Base of the shape kinds; callers choose the node count."""


@dataclass(frozen=True)
class Ellipse(CrossSection):
    """(r - R0)^2/m^2 + z^2/n^2 <= 1."""

    R0: float = 3.0
    m: float = 1.0
    n: float = 1.0

    def validate(self) -> None:
        if not all(map(math.isfinite, (self.R0, self.m, self.n))):
            raise InvalidShapeError("ellipse parameters must be finite")
        if not (self.m > 0 and self.n > 0):
            raise InvalidShapeError("ellipse semi-axes must be positive")
        if not self.R0 - self.m > 0:
            raise InvalidShapeError(
                f"curve touches the axis: r_min = {self.R0 - self.m} <= 0"
            )

    @property
    def area(self) -> float:
        return math.pi * self.m * self.n

    def point(self, t):
        return self.R0 + self.m * np.cos(t), self.n * np.sin(t)

    def derivs(self, t):
        ct, st = np.cos(t), np.sin(t)
        return (-self.m * st, self.n * ct), (-self.m * ct, -self.n * st)

    def scaled(self, factor: float) -> "Ellipse":
        return replace(
            self, R0=self.R0 * factor, m=self.m * factor, n=self.n * factor
        )


@dataclass(frozen=True)
class Disk(Ellipse):
    """Disk of radius rho0 centered at (R0, 0)."""

    def __init__(self, R0: float = 2.0, rho0: float = 1.0):
        Ellipse.__init__(self, R0=R0, m=rho0, n=rho0)

    @property
    def rho0(self) -> float:
        return self.m

    def scaled(self, factor: float) -> "Disk":
        return Disk(R0=self.R0 * factor, rho0=self.rho0 * factor)


@dataclass(frozen=True)
class FourierStar(CrossSection):
    """Radius rho(t) = base + sum_j coeffs[j-1] cos(j t) around (R0, 0).

    Cosine-only coefficients keep the curve symmetric under z -> -z.
    """

    R0: float = 3.0
    base: float = 1.0
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def validate(self) -> None:
        if not all(map(math.isfinite, (self.R0, self.base, *self.coeffs))):
            raise InvalidShapeError("fourier-star parameters must be finite")
        if self.base <= 0:
            raise InvalidShapeError("fourier-star base radius must be positive")
        if sum(abs(c) for c in self.coeffs) >= self.base:
            raise InvalidShapeError("fourier-star radius may vanish (sum |c_j| >= base)")

    @property
    def area(self) -> float:
        """(1/2) int rho^2 dt: the cos(j t) are orthogonal."""
        return math.pi * (self.base * self.base
                          + 0.5 * sum(c * c for c in self.coeffs))

    def _rho(self, t):
        rho = np.full_like(np.asarray(t, dtype=float), self.base)
        d1 = np.zeros_like(rho)
        d2 = np.zeros_like(rho)
        for j, c in enumerate(self.coeffs, start=1):
            rho += c * np.cos(j * t)
            d1 += -c * j * np.sin(j * t)
            d2 += -c * j * j * np.cos(j * t)
        return rho, d1, d2

    def point(self, t):
        rho, _, _ = self._rho(t)
        return self.R0 + rho * np.cos(t), rho * np.sin(t)

    def derivs(self, t):
        rho, d1, d2 = self._rho(t)
        ct, st = np.cos(t), np.sin(t)
        dp = (d1 * ct - rho * st, d1 * st + rho * ct)
        ddp = ((d2 - rho) * ct - 2 * d1 * st, (d2 - rho) * st + 2 * d1 * ct)
        return dp, ddp

    def scaled(self, factor: float) -> "FourierStar":
        return replace(
            self,
            R0=self.R0 * factor,
            base=self.base * factor,
            coeffs=tuple(c * factor for c in self.coeffs),
        )


@dataclass(frozen=True)
class Polygon(CrossSection):
    """Convex polygon given by CCW-ordered (r, z) vertices."""

    vertices: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "vertices",
            tuple((float(r), float(z)) for r, z in self.vertices),
        )

    def validate(self) -> None:
        if len(self.vertices) < 3:
            raise InvalidShapeError("polygon needs at least 3 vertices")
        if not all(math.isfinite(x) for v in self.vertices for x in v):
            raise InvalidShapeError("polygon vertices must be finite")

    @property
    def area(self) -> float:
        """Shoelace area; negative for clockwise vertices."""
        r, z = np.asarray(self.vertices, dtype=float).T
        return 0.5 * float(np.sum(r * np.roll(z, -1) - np.roll(r, -1) * z))

    def scaled(self, factor: float) -> "Polygon":
        return replace(
            self, vertices=tuple((r * factor, z * factor) for r, z in self.vertices)
        )


@dataclass(frozen=True)
class SmoothBoundary:
    """Sampled closed curve: nodes, outward normals, weights, curvature.

    The nodes are uniform in s, s_j = 2 pi j / n, and t = t(s_j) =
    s_j + alpha sin s_j holds the shape's parameter at each, alpha the
    section's grading (t = s when alpha = 0).  `speed` is |dX/ds| and the
    weights, arc-length trapezoidal weights in s (spectrally accurate for
    smooth closed curves), sum to the perimeter.  `shape` is the section
    that was sampled and checked.
    """

    shape: CrossSection
    t: np.ndarray
    r: np.ndarray
    z: np.ndarray
    speed: np.ndarray
    normal_r: np.ndarray
    normal_z: np.ndarray
    curvature: np.ndarray
    weights: np.ndarray
    alpha: float

    @property
    def n_nodes(self) -> int:
        return self.t.size

    @property
    def perimeter(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class PolygonBoundary:
    """Exact per-edge data of a convex polygon boundary.

    Pointwise curvature does not exist; turning angles at the vertices
    stand in for the curvature integral.  `shape` is the polygon that was
    checked.
    """

    shape: Polygon
    vertices: np.ndarray          # (n, 2), CCW
    edge_lengths: np.ndarray      # (n,), edge i joins vertex i to i+1
    edge_normal_r: np.ndarray     # (n,), outward normal's r component
    turning_angles: np.ndarray    # (n,), exterior angle at each vertex

    @property
    def perimeter(self) -> float:
        return float(np.sum(self.edge_lengths))


def _smooth_boundary(shape, n: int, alpha: float) -> SmoothBoundary:
    """Nodes 0..n/2 (n even) are evaluated and nodes n/2+1..n-1 copied from
    their mirrors n - j with z and the normal's z component negated, so the
    sampled curve is exactly z -> -z symmetric; the mirror's fixed nodes
    s = t = 0 and s = t = pi lie on z = 0.  The map t(s) = s + alpha sin s
    is odd and fixes both, so it keeps the mirror."""
    s = 2.0 * np.pi * np.arange(n) / n
    sin_s = np.sin(s)
    t = s + alpha * sin_s
    half = n // 2
    r, z = shape.point(t[:half + 1])
    (dr, dz), (ddr, ddz) = shape.derivs(t[:half + 1])
    # X_s = X_t t', X_ss = X_tt t'^2 + X_t t''
    d1 = 1.0 + alpha * np.cos(s[:half + 1])
    d2 = -alpha * sin_s[:half + 1]
    ddr, ddz = ddr * d1**2 + dr * d2, ddz * d1**2 + dz * d2
    dr, dz = dr * d1, dz * d1
    speed = np.hypot(dr, dz)
    if np.any(speed <= 0):
        raise InvalidShapeError("degenerate parameterization (zero speed)")
    nr = dz / speed
    nz = -dr / speed
    kappa = (dr * ddz - dz * ddr) / speed**3
    z[[0, half]] = 0.0
    nz[[0, half]] = 0.0
    mirror = slice(half - 1, 0, -1)   # node n - j of node j > n/2
    r, speed, nr, kappa = (np.concatenate([a, a[mirror]])
                           for a in (r, speed, nr, kappa))
    z, nz = (np.concatenate([a, -a[mirror]]) for a in (z, nz))
    return SmoothBoundary(
        shape=shape, t=t, r=r, z=z, speed=speed,
        normal_r=nr, normal_z=nz, curvature=kappa,
        weights=speed * (2.0 * np.pi / n), alpha=alpha,
    )


def _check_smooth(shape, bnd: SmoothBoundary) -> None:
    if np.min(bnd.r) <= 0:
        raise InvalidShapeError(
            f"curve touches the axis: r_min = {np.min(bnd.r):.3g} <= 0"
        )
    a = np.sqrt(shape.area / (2.0 * np.pi))
    if np.min(bnd.curvature) < -CONVEXITY_TOL / a:
        raise InvalidShapeError(
            f"curve is not convex: min curvature {np.min(bnd.curvature):.3g}"
        )


def _polygon_boundary(shape: Polygon) -> PolygonBoundary:
    if len(shape.vertices) > MAX_RESOLUTION:
        raise InvalidShapeError(
            f"polygon has {len(shape.vertices)} vertices, more than "
            f"{MAX_RESOLUTION}")
    v = np.asarray(shape.vertices, dtype=float)
    if np.min(v[:, 0]) <= 0:
        raise InvalidShapeError(
            f"curve touches the axis: r_min = {np.min(v[:, 0]):.3g} <= 0"
        )
    e = np.roll(v, -1, axis=0) - v
    lengths = np.hypot(e[:, 0], e[:, 1])
    if np.any(lengths == 0):
        raise InvalidShapeError("polygon has a repeated vertex")
    if shape.area <= 0:
        raise InvalidShapeError(
            "polygon area is not positive (vertices must be CCW)"
        )
    nr = e[:, 1] / lengths
    prev = np.roll(e, 1, axis=0)
    cross = prev[:, 0] * e[:, 1] - prev[:, 1] * e[:, 0]
    dot = prev[:, 0] * e[:, 0] + prev[:, 1] * e[:, 1]
    turning = np.arctan2(cross, dot)
    if np.any(turning < -1e-12):
        raise InvalidShapeError(
            f"polygon is not convex: negative turning angle {np.min(turning):.3g}"
        )
    # a pentagram turns left at every vertex too, through 4 pi
    if abs(float(np.sum(turning)) - 2.0 * np.pi) > 1e-9:
        raise InvalidShapeError("polygon winds more than once")
    # z -> -z symmetry: the reflection reverses the vertex order, so the
    # mirror of vertex i must be vertex (k - i) mod V, k the vertex nearest
    # the mirror of vertex 0; within 1e-12 of the largest |coordinate|
    k = np.argmin(np.hypot(v[:, 0] - v[0, 0], v[:, 1] + v[0, 1]))
    w = v[(k - np.arange(len(v))) % len(v)]
    dist = np.hypot(w[:, 0] - v[:, 0], w[:, 1] + v[:, 1])
    if np.max(dist) > 1e-12 * float(np.max(np.abs(v))):
        raise InvalidShapeError("polygon is not symmetric under z -> -z")
    return PolygonBoundary(
        shape=shape, vertices=v, edge_lengths=lengths, edge_normal_r=nr,
        turning_angles=turning,
    )


def node_count(resolution) -> int:
    """`resolution` as an int, if it is an even node count in
    [8, MAX_RESOLUTION]; else ValueError."""
    n = int(resolution)
    if not 8 <= n <= MAX_RESOLUTION or n % 2:
        raise ValueError(f"resolution must lie in [8, {MAX_RESOLUTION}] "
                         f"and be even, got {n}")
    return n


def _grading(shape: CrossSection) -> float:
    """alpha of a smooth kind's nodes from x = r_min / a (see the rule
    above); r_min is r at t = pi, where a convex z -> -z symmetric section
    meets z = 0 on its inner side.  0 for an x that is not positive and
    finite (an invalid shape, which `_check_smooth` then refuses)."""
    r_min = shape.point(np.pi)[0]
    with np.errstate(all="ignore"):
        x = float(r_min / np.sqrt(shape.area / (2.0 * np.pi)))
    if not 0.0 < x < _GRADING_FROM:
        return 0.0
    return _GRADING_MAX * min(1.0, math.log(_GRADING_FROM / x)
                              / math.log(_GRADING_FROM / _GRADING_FULL))


def boundary_nodes(shape: CrossSection,
                   resolution: int = DEFAULT_RESOLUTION):
    """Sample the boundary: positions, unit outward normals, arc-length
    weights and signed curvature (smooth kinds), or exact edge data with
    turning angles (polygons).  Smooth kinds take `resolution` nodes,
    uniform in s and graded in the shape's parameter by
    t = s + alpha sin s, alpha = `_grading(shape)`; polygons ignore
    `resolution`.

    Raises ValueError for a node count that `node_count` refuses (before
    any work that scales with n), and InvalidShapeError for polygons with
    more than MAX_RESOLUTION vertices (likewise), non-convex curves, curves
    touching the axis, or polygons not symmetric under z -> -z (the smooth
    kinds are symmetric by construction).
    """
    if isinstance(shape, Polygon):
        shape.validate()
        return _polygon_boundary(shape)
    shape.validate()
    n = node_count(resolution)
    bnd = _smooth_boundary(shape, n, _grading(shape))
    _check_smooth(shape, bnd)
    return bnd


# ---------------------------------------------------------------------------
# serialization

def _number(value, name: str) -> float:
    """A JSON number as a float, else InvalidShapeError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidShapeError(
            f"shape parameter {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:   # an integer beyond about 1.8e308
        raise InvalidShapeError(
            f"shape parameter {name} is too large for a float") from exc


def _numbers(values, name: str) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise InvalidShapeError(
            f"shape parameter {name} must be a list, got {values!r}")
    return tuple(_number(v, name) for v in values)


def _vertices(values, name: str) -> tuple:
    if not isinstance(values, (list, tuple)) or any(
            not isinstance(v, (list, tuple)) or len(v) != 2 for v in values):
        raise InvalidShapeError(
            "polygon vertices must be a list of (r, z) pairs")
    return tuple(_numbers(v, name) for v in values)


# shape-file kind -> (class, reader of each parameter, in the order they
# are read); a parameter the class defaults (coeffs) may be left out
_KINDS = {
    "disk": (Disk, {"R0": _number, "rho0": _number}),
    "ellipse": (Ellipse, {"R0": _number, "m": _number, "n": _number}),
    "fourier-star": (FourierStar, {"R0": _number, "base": _number,
                                   "coeffs": _numbers}),
    "polygon": (Polygon, {"vertices": _vertices}),
}
_OPTIONAL = {"coeffs"}


def shape_to_dict(shape: CrossSection) -> dict:
    # the exact type: a Disk is also an Ellipse; tolist makes the tuples
    # (coeffs, vertices) JSON lists and leaves a number as it is
    for kind, (cls, readers) in _KINDS.items():
        if type(shape) is cls:
            return {"kind": kind, "params": {
                k: np.asarray(getattr(shape, k)).tolist() for k in readers}}
    raise TypeError(f"unknown shape type {type(shape)!r}")


def shape_from_dict(d: dict) -> CrossSection:
    if not isinstance(d, dict):
        raise InvalidShapeError("shape file must hold a JSON object")
    try:
        kind = d["kind"]
        params = d["params"]
    except KeyError as exc:
        raise InvalidShapeError(f"shape file misses field {exc}") from exc
    if not isinstance(params, dict):
        raise InvalidShapeError("shape field 'params' must be a JSON object")
    # a list kind cannot be a dict key
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidShapeError(f"unknown shape kind {kind!r}")
    cls, readers = _KINDS[kind]
    try:
        return cls(**{name: read(params[name], name)
                      for name, read in readers.items()
                      if name in params or name not in _OPTIONAL})
    except KeyError as exc:
        raise InvalidShapeError(
            f"shape kind {kind!r} misses parameter {exc}") from exc


def load_shape(path) -> CrossSection:
    with open(path) as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as exc:
            raise InvalidShapeError(f"shape file is not valid JSON: {exc}") from exc
    return shape_from_dict(d)


# ---------------------------------------------------------------------------
# random shape generators for property tests

def random_smooth_shape(rng: np.random.Generator) -> CrossSection:
    """Random valid smooth convex symmetric shape (ellipse or fourier-star)."""
    while True:
        if rng.uniform() < 0.5:
            m = rng.uniform(0.3, 2.0)
            n = rng.uniform(0.3, 2.0)
            R0 = m + rng.uniform(0.05, 3.0)
            shape = Ellipse(R0=R0, m=m, n=n)
        else:
            base = rng.uniform(0.5, 2.0)
            ncoef = rng.integers(1, 4)
            coeffs = rng.uniform(-1, 1, ncoef) * base * 0.05 / np.arange(
                2, 2 + ncoef
            ) ** 2
            R0 = base + rng.uniform(0.05, 3.0)
            shape = FourierStar(R0=R0, base=base, coeffs=tuple(coeffs))
        try:
            boundary_nodes(shape)
        except InvalidShapeError:
            continue
        return shape


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of the points `pts` (k x 2), counter-
    clockwise from the leftmost; points on an edge are not vertices
    (Andrew's monotone chain, Inf. Process. Lett. 9, 1979)."""
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()

    def turn(o, a, b):   # > 0 when o -> a -> b turns left
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(points):   # the lower chain; on reversed points, the upper
        out = []
        for q in points:
            while len(out) >= 2 and turn(out[-2], out[-1], q) <= 0.0:
                out.pop()
            out.append(q)
        return out[:-1]

    return np.array(chain(ordered) + chain(ordered[::-1]))


def random_convex_polygon(rng: np.random.Generator) -> Polygon:
    """Random convex polygon, symmetric under z -> -z, kept off the axis.

    Samples a z-symmetric point cloud, takes its convex hull, and shifts
    right until r_min exceeds a tenth of the length scale sqrt(area/2pi).
    """
    while True:
        upper = rng.uniform([-1.0, 0.0], [1.0, 1.0],
                            size=(_POLYGON_POINTS, 2))
        v = _convex_hull(np.vstack([upper, upper * np.array([1.0, -1.0])]))
        area = Polygon(vertices=v).area
        if area < 1e-3:
            continue
        a = np.sqrt(area / (2.0 * np.pi))
        shift = 0.11 * a - np.min(v[:, 0]) + rng.uniform(0.0, 2.0)
        v = v + np.array([shift, 0.0])
        poly = Polygon(vertices=tuple(map(tuple, v)))
        try:
            boundary_nodes(poly)
        except InvalidShapeError:
            continue
        return poly
