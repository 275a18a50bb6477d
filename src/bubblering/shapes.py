"""Cross-section shapes of an axisymmetric ring in the meridional half plane.

A cross-section is a closed convex curve in {r > 0}, symmetric under
z -> -z.  Smooth kinds (disk, ellipse, fourier-star) are parameterized by a
uniform angle and sampled for spectrally accurate trapezoidal quadrature;
polygons carry exact per-edge data instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

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
    "shape_from_dict",
    "shape_to_dict",
    "load_shape",
    "random_smooth_shape",
    "random_convex_polygon",
]

DEFAULT_RESOLUTION = 512
MAX_RESOLUTION = 8192

# Convexity slack: signed curvature >= -1e-10 / a absorbs floating-point
# noise in fourier-star curvature.
CONVEXITY_TOL = 1e-10


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
        if self.m <= 0 or self.n <= 0:
            raise InvalidShapeError("ellipse semi-axes must be positive")
        if self.R0 - self.m <= 0:
            raise InvalidShapeError(
                f"curve touches the axis: r_min = {self.R0 - self.m} <= 0"
            )

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
        if self.base <= 0:
            raise InvalidShapeError("fourier-star base radius must be positive")
        if sum(abs(c) for c in self.coeffs) >= self.base:
            raise InvalidShapeError("fourier-star radius may vanish (sum |c_j| >= base)")

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

    def scaled(self, factor: float) -> "Polygon":
        return replace(
            self, vertices=tuple((r * factor, z * factor) for r, z in self.vertices)
        )


@dataclass(frozen=True)
class SmoothBoundary:
    """Sampled closed curve: nodes, outward normals, weights, curvature.

    t is the uniform parameter grid; weights are arc-length trapezoidal
    weights (spectrally accurate for smooth closed curves) summing to the
    perimeter.
    """

    t: np.ndarray
    r: np.ndarray
    z: np.ndarray
    speed: np.ndarray
    normal_r: np.ndarray
    normal_z: np.ndarray
    curvature: np.ndarray
    weights: np.ndarray

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
    stand in for the curvature integral.
    """

    vertices: np.ndarray          # (n, 2), CCW
    edge_lengths: np.ndarray      # (n,), edge i joins vertex i to i+1
    edge_normal_r: np.ndarray
    edge_normal_z: np.ndarray
    turning_angles: np.ndarray    # (n,), exterior angle at each vertex

    @property
    def perimeter(self) -> float:
        return float(np.sum(self.edge_lengths))


def _smooth_boundary(shape, n: int) -> SmoothBoundary:
    t = 2.0 * np.pi * np.arange(n) / n
    r, z = shape.point(t)
    (dr, dz), (ddr, ddz) = shape.derivs(t)
    speed = np.hypot(dr, dz)
    if np.any(speed <= 0):
        raise InvalidShapeError("degenerate parameterization (zero speed)")
    nr = dz / speed
    nz = -dr / speed
    kappa = (dr * ddz - dz * ddr) / speed**3
    weights = speed * (2.0 * np.pi / n)
    return SmoothBoundary(
        t=t, r=r, z=z, speed=speed,
        normal_r=nr, normal_z=nz, curvature=kappa, weights=weights,
    )


def _check_smooth(shape, bnd: SmoothBoundary) -> None:
    if np.min(bnd.r) <= 0:
        raise InvalidShapeError(
            f"curve touches the axis: r_min = {np.min(bnd.r):.3g} <= 0"
        )
    area = float(np.sum(bnd.r * bnd.normal_r * bnd.weights))
    if area <= 0:
        raise InvalidShapeError("enclosed area is not positive (orientation?)")
    a = np.sqrt(area / (2.0 * np.pi))
    if np.min(bnd.curvature) < -CONVEXITY_TOL / a:
        raise InvalidShapeError(
            f"curve is not convex: min curvature {np.min(bnd.curvature):.3g}"
        )
    # z -> -z symmetry: the parameterizations built here satisfy
    # (r, z)(-t) = (r, -z)(t); verify on the sampled nodes.
    rm, zm = shape.point(-bnd.t)
    scale = max(1.0, float(np.max(np.abs(bnd.z))))
    if np.max(np.abs(rm - bnd.r)) > 1e-12 * scale or np.max(
        np.abs(zm + bnd.z)
    ) > 1e-12 * scale:
        raise InvalidShapeError("curve is not symmetric under z -> -z")


def _polygon_boundary(shape: Polygon) -> PolygonBoundary:
    v = np.asarray(shape.vertices, dtype=float)
    if np.min(v[:, 0]) <= 0:
        raise InvalidShapeError(
            f"curve touches the axis: r_min = {np.min(v[:, 0]):.3g} <= 0"
        )
    e = np.roll(v, -1, axis=0) - v
    lengths = np.hypot(e[:, 0], e[:, 1])
    if np.any(lengths == 0):
        raise InvalidShapeError("polygon has a repeated vertex")
    # shoelace; CCW required
    area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
    if area2 <= 0:
        raise InvalidShapeError(
            "polygon area is not positive (vertices must be CCW)"
        )
    nr = e[:, 1] / lengths
    nz = -e[:, 0] / lengths
    prev = np.roll(e, 1, axis=0)
    cross = prev[:, 0] * e[:, 1] - prev[:, 1] * e[:, 0]
    dot = prev[:, 0] * e[:, 0] + prev[:, 1] * e[:, 1]
    turning = np.arctan2(cross, dot)
    if np.any(turning < -1e-12):
        raise InvalidShapeError(
            f"polygon is not convex: negative turning angle {np.min(turning):.3g}"
        )
    # z -> -z symmetry of the vertex set
    scale = max(1.0, float(np.max(np.abs(v))))
    mirrored = v * np.array([1.0, -1.0])
    for p in mirrored:
        if np.min(np.hypot(v[:, 0] - p[0], v[:, 1] - p[1])) > 1e-12 * scale:
            raise InvalidShapeError("polygon is not symmetric under z -> -z")
    return PolygonBoundary(
        vertices=v, edge_lengths=lengths, edge_normal_r=nr, edge_normal_z=nz,
        turning_angles=turning,
    )


def boundary_nodes(shape: CrossSection,
                   resolution: int = DEFAULT_RESOLUTION):
    """Sample the boundary: positions, unit outward normals, arc-length
    weights and signed curvature (smooth kinds), or exact edge data with
    turning angles (polygons).  Smooth kinds take `resolution` nodes;
    polygons ignore it.

    Raises ValueError for fewer than 8 or more than MAX_RESOLUTION nodes
    (before any work that scales with n), and InvalidShapeError for
    non-convex curves, curves touching the axis, or broken z -> -z
    symmetry.
    """
    if isinstance(shape, Polygon):
        shape.validate()
        return _polygon_boundary(shape)
    shape.validate()
    n = int(resolution)
    if not 8 <= n <= MAX_RESOLUTION:
        raise ValueError(
            f"resolution must lie in [8, {MAX_RESOLUTION}], got {n}")
    bnd = _smooth_boundary(shape, n)
    _check_smooth(shape, bnd)
    return bnd


# ---------------------------------------------------------------------------
# serialization

def shape_to_dict(shape: CrossSection) -> dict:
    if isinstance(shape, Disk):
        params = {"R0": shape.R0, "rho0": shape.rho0}
        kind = "disk"
    elif isinstance(shape, Ellipse):
        params = {"R0": shape.R0, "m": shape.m, "n": shape.n}
        kind = "ellipse"
    elif isinstance(shape, FourierStar):
        params = {"R0": shape.R0, "base": shape.base, "coeffs": list(shape.coeffs)}
        kind = "fourier-star"
    elif isinstance(shape, Polygon):
        params = {"vertices": [list(v) for v in shape.vertices]}
        kind = "polygon"
    else:
        raise TypeError(f"unknown shape type {type(shape)!r}")
    return {"kind": kind, "params": params}


def shape_from_dict(d: dict) -> CrossSection:
    try:
        kind = d["kind"]
        params = d["params"]
    except KeyError as exc:
        raise InvalidShapeError(f"shape file misses field {exc}") from exc
    try:
        if kind == "disk":
            return Disk(R0=params["R0"], rho0=params["rho0"])
        if kind == "ellipse":
            return Ellipse(R0=params["R0"], m=params["m"], n=params["n"])
        if kind == "fourier-star":
            return FourierStar(R0=params["R0"], base=params["base"],
                               coeffs=tuple(params.get("coeffs", ())))
        if kind == "polygon":
            return Polygon(
                vertices=tuple(tuple(v) for v in params["vertices"]))
    except KeyError as exc:
        raise InvalidShapeError(
            f"shape kind {kind!r} misses parameter {exc}"
        ) from exc
    raise InvalidShapeError(f"unknown shape kind {kind!r}")


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


def random_convex_polygon(rng: np.random.Generator,
                          n_points: int = 12) -> Polygon:
    """Random convex polygon, symmetric under z -> -z, kept off the axis.

    Samples a z-symmetric point cloud, takes its convex hull, and shifts
    right until r_min exceeds a tenth of the length scale sqrt(area/2pi).
    """
    from scipy.spatial import ConvexHull

    while True:
        upper = rng.uniform([-1.0, 0.0], [1.0, 1.0], size=(n_points, 2))
        pts = np.vstack([upper, upper * np.array([1.0, -1.0])])
        hull = ConvexHull(pts)
        v = pts[hull.vertices]  # CCW per scipy convention
        area = 0.5 * float(
            np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        )
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
