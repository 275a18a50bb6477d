"""Geometric functionals of a cross-section.

Area, major radius R (area-averaged r), minor radius a = sqrt(area/2pi),
the thickness measure delta = int_E r^-2 - 2pi, total mean curvature of the
torus surface, the max-r / centroid ratio, surface sets S(b), the Weber
number and the normalization to area 2pi.

The report's area integrals are reduced to boundary integrals by the
divergence theorem (d/dr(-1/r) = 1/r^2, d/dr(r^2/2) = r), so one
quadrature serves them all: the spectral trapezoid in s on the nodes of
`boundary_nodes` (the solver's, graded toward the axis by the section's
own alpha) on smooth curves, exact edge formulas on polygons.
`normalize` reads each kind's closed-form `area`.

On a smooth kind the crossing t_b where n_r = b (the end of S(b), and the
top point h at b = 0) is found by a bracketed Newton iteration, and |S(b)|
is one 60-point Gauss-Legendre rule over [0, t_b].  The module needs numpy
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .shapes import (
    CrossSection,
    InvalidShapeError,
    Polygon,
    PolygonBoundary,
    SmoothBoundary,
    boundary_nodes,
    DEFAULT_RESOLUTION,
    MAX_RESOLUTION,
)

__all__ = [
    "GeometryReport",
    "PhysicalParams",
    "QuadratureError",
    "geometry_report",
    "width_height",
    "surface_set_length",
    "outer_radius_ratio",
    "weber_number",
    "normalize",
    "ellipse_inv_r2_integral",
    "disk_delta",
]

_DELTA_RTOL = 1e-9
_CROSSING_SAMPLES = np.linspace(0.0, np.pi, 17)
_CROSSING_XTOL = 1e-14
_CROSSING_RTOL = 4.0 * np.finfo(float).eps
_CROSSING_MAXITER = 100
# 60-point Gauss-Legendre rule: nodes x_i on [-1, 1], used at (x_i + 1)/2
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(60)
_GAUSS_NODES = (_GAUSS_X + 1.0) / 2.0


class QuadratureError(RuntimeError):
    """Boundary quadrature failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class GeometryReport:
    """Scalar functionals of a section, and `boundary`: the checked sample
    they were computed from, neither serialized nor compared."""

    area: float
    R: float
    a: float
    mu: float
    delta: float
    total_mean_curvature: float
    r_max: float
    r_min: float
    height_h: float
    perimeter: float
    is_thick: bool
    quad_error: float
    resolution: int
    boundary: SmoothBoundary | PolygonBoundary = field(repr=False,
                                                       compare=False)


@dataclass(frozen=True)
class PhysicalParams:
    """Fluid density, surface tension coefficient and circulation."""

    rho: float
    sigma: float
    beta: float

    def __post_init__(self):
        if not all(0 < x < np.inf for x in (self.rho, self.sigma, self.beta)):
            raise ValueError("rho, sigma and beta must be finite and positive")


# ---------------------------------------------------------------------------
# the report of each section kind

def _normal_crossing(shape: CrossSection, b: float) -> float:
    """The one t in (0, pi) where n_r = b on a smooth kind: on a convex
    z-symmetric section n_r falls from 1 at t = 0 to -1 at t = pi.

    Newton's method on n_r(t) - b, whose slope dn_r/dt = kappa dr/dt comes
    from the same `derivs` call.  One vectorized sample of [0, pi] brackets
    the root, and a step that leaves the bracket, or converges too slowly,
    bisects it.  It stops when a step falls below brentq's tolerance
    1e-14 + 4 eps |t|, and raises QuadratureError after 100 steps."""

    def residual_slope(t):
        (dr, dz), (ddr, ddz) = shape.derivs(t)
        speed = np.hypot(dr, dz)
        tr, tz = dr / speed, dz / speed
        # kappa dr/dt without speed**3, which under- or overflows first
        return tz - b, tr * (tr * ddz - tz * ddr) / speed

    f, slope = residual_slope(_CROSSING_SAMPLES)
    if not (np.all(np.isfinite(f)) and f[0] > 0.0 and f[-1] < 0.0):
        raise QuadratureError(f"n_r - {b} does not change sign on [0, pi]")
    i = int(np.argmax(f <= 0.0))
    lo, hi = _CROSSING_SAMPLES[i - 1], _CROSSING_SAMPLES[i]
    j = i if -f[i] < f[i - 1] else i - 1    # start from the smaller |f|
    t, ft, dt = _CROSSING_SAMPLES[j], f[j], slope[j]
    step = last = hi - lo    # the last two steps
    for _ in range(_CROSSING_MAXITER):
        if ft > 0.0:
            lo = t
        else:
            hi = t
        # a Newton step must stay in the bracket and be at most half the
        # step before last, else bisect: rounding in n_r cannot make it cycle
        newton = (dt < 0.0 and lo <= t - ft / dt <= hi
                  and abs(ft / dt) <= last / 2)
        t_new = t - ft / dt if newton else 0.5 * (lo + hi)
        last, step = step, abs(t_new - t)
        if step <= _CROSSING_XTOL + _CROSSING_RTOL * abs(t_new):
            return float(t_new)
        t = t_new
        ft, dt = residual_slope(t)
    raise QuadratureError(
        f"n_r = {b} crossing did not converge in {_CROSSING_MAXITER} steps")


def _report(bnd: SmoothBoundary | PolygonBoundary, resolution: int,
            quad_error: float, *, area: float, first_moment: float,
            inv_r2: float, total_mean_curvature: float, r_max: float,
            r_min: float, height_h: float, perimeter: float) -> GeometryReport:
    """The report of a checked section from its kind's eight functionals:
    R, a, mu, delta and is_thick are derived here, and a non-finite field
    raises InvalidShapeError naming it."""
    R = first_moment / area
    a = np.sqrt(area / (2.0 * np.pi))
    delta = inv_r2 - 2.0 * np.pi
    rep = GeometryReport(
        area=area, R=R, a=float(a), mu=float(R / a), delta=delta,
        total_mean_curvature=total_mean_curvature, r_max=r_max, r_min=r_min,
        height_h=height_h, perimeter=perimeter, is_thick=bool(delta >= -1e-12),
        quad_error=quad_error, resolution=resolution, boundary=bnd)
    for f in fields(rep):
        if f.compare and not np.isfinite(value := getattr(rep, f.name)):
            raise InvalidShapeError(f"report field {f.name} is {value}: "
                                    "the shape's scale over- or underflows")
    return rep


def _polygon_report(bnd: PolygonBoundary) -> GeometryReport:
    """Exact edge formulas; the extremes are those of the vertices."""
    v = bnd.vertices
    r1, z1 = v[:, 0], v[:, 1]
    r2, z2 = np.roll(r1, -1), np.roll(z1, -1)
    cross = r1 * z2 - r2 * z1
    # int ds / r along each edge, r linear in arc length; on a near edge
    # log(r2/r1)/(r2-r1) expanded around r1 = r2
    L = bnd.edge_lengths
    near = np.abs(r2 - r1) < 1e-9 * np.maximum(r1, r2)
    rm = 0.5 * (r1 + r2)
    d = (r2 - r1) / rm
    with np.errstate(divide="ignore", invalid="ignore"):   # unused on near
        inv_r = np.where(near, L / rm * (1.0 + d * d / 12.0),
                         L * np.log(r2 / r1) / (r2 - r1))
    inv_r2 = float(np.sum(-bnd.edge_normal_r * inv_r))
    return _report(
        bnd, len(v), 0.0,
        area=0.5 * float(np.sum(cross)),
        # int_E r dA by the exact shoelace moment formula
        first_moment=float(np.sum(cross * (r1 + r2))) / 6.0,
        inv_r2=inv_r2,
        # the azimuthal curvature sum of n_r ds / r is -inv_r2, bit for bit
        total_mean_curvature=float(np.sum(bnd.turning_angles)) - inv_r2,
        r_max=float(np.max(r1)), r_min=float(np.min(r1)),
        height_h=float(np.max(np.abs(z1))), perimeter=bnd.perimeter)


def _smooth_report(bnd: SmoothBoundary, inv_r2: float,
                   err: float) -> GeometryReport:
    """Node sums on the sample the doubling loop kept, with its inv_r2 and
    error estimate: r_max and r_min are nodes 0 and n/2 (t = 0 and pi, on
    z = 0), and h is z where n_r = 0 on the upper half (an ellipse's n,
    bit for bit)."""
    r, nr, w = bnd.r, bnd.normal_r, bnd.weights
    h = bnd.shape.point(_normal_crossing(bnd.shape, 0.0))[1]
    rep = _report(
        bnd, bnd.n_nodes, err,
        area=float(np.sum(r * nr * w)),
        first_moment=float(np.sum(0.5 * r**2 * nr * w)),
        inv_r2=inv_r2,
        total_mean_curvature=(float(np.sum(bnd.curvature * w))
                              + float(np.sum(nr / r * w))),
        r_max=float(r[0]), r_min=float(r[bnd.n_nodes // 2]),
        height_h=float(h), perimeter=float(np.sum(w)))
    speed3 = np.min(bnd.speed) ** 3
    if not speed3 >= np.finfo(float).tiny:
        raise InvalidShapeError(
            f"smallest sampled speed**3 is {speed3:.3g}, not a normal float: "
            "the shape's scale underflows")
    return rep


@np.errstate(all="ignore")   # non-finite or subnormal results are refused
def geometry_report(shape: CrossSection) -> GeometryReport:
    """All scalar functionals of a cross-section.

    Smooth kinds sample n = 2 * DEFAULT_RESOLUTION nodes of
    `boundary_nodes`, doubling (capped at 8192) until delta agrees to 1e-9
    relative with the n/2-node rule on the even nodes of the same sample
    (the grading does not depend on n); each doubling sums only those two,
    and the other functionals are taken once, on the sample kept.  Polygons
    are exact.  A non-finite field (a scale that over- or underflows), or a
    smallest sampled speed**3 below the smallest normal float, raises
    InvalidShapeError naming it.
    """
    if isinstance(shape, Polygon):
        return _polygon_report(boundary_nodes(shape))

    n = 2 * DEFAULT_RESOLUTION
    while True:
        bnd = boundary_nodes(shape, n)
        terms = -(1.0 / bnd.r) * bnd.normal_r * bnd.weights
        inv_r2 = float(np.sum(terms))
        # the n/2-node rule on the even nodes, whose weights double: bit
        # for bit a separate n/2-node sample
        err = (abs(inv_r2 - 2.0 * float(np.sum(terms[::2])))
               / max(1.0, abs(inv_r2)))
        if err <= _DELTA_RTOL:
            break
        if 2 * n > MAX_RESOLUTION:
            if err > 1e-8:
                raise QuadratureError(
                    f"boundary quadrature did not converge: estimated "
                    f"relative error {err:.3g} at {n} nodes"
                )
            break
        n *= 2
    return _smooth_report(bnd, inv_r2, err)


# ---------------------------------------------------------------------------
# extents, surface sets, centroid ratio

def width_height(shape: CrossSection) -> tuple[float, float]:
    """Half height h and radial extent r_max - r_min, read from
    `geometry_report(shape)`: it refuses what the report refuses."""
    rep = geometry_report(shape)
    return rep.height_h, rep.r_max - rep.r_min


def surface_set_length(bnd: SmoothBoundary | PolygonBoundary,
                       b: float) -> float:
    """Arc length of S(b) = {x in boundary : n(x) . e_r > b} on a checked
    section (say a report's `boundary`); samples nothing.

    A polygon sums the lengths of the edges whose constant normal clears
    the threshold.  A smooth kind, checked convex and z -> -z symmetric,
    has n_r falling from 1 at t = 0 to -1 at t = pi, so S(b) is the one
    arc |t| < t_b around the outermost point: twice the speed integrated
    over [0, t_b].
    """
    if not 0.0 <= b < 1.0:
        raise ValueError("threshold b must lie in [0, 1)")
    if isinstance(bnd, PolygonBoundary):
        return float(np.sum(bnd.edge_lengths[bnd.edge_normal_r > b]))

    # twice the speed over [0, t_b]: 2 (t_b/2) sum_i w_i speed(t_b (x_i+1)/2)
    shape = bnd.shape
    t_b = _normal_crossing(shape, b)
    (dr, dz), _ = shape.derivs(t_b * _GAUSS_NODES)
    return float(t_b * np.sum(_GAUSS_W * np.hypot(dr, dz)))


def outer_radius_ratio(shape: CrossSection) -> float:
    """k = r_max / R for a compact convex cross-section; always <= 3.

    The bound is sharp for z-symmetric triangles with one side approaching
    the axis, so callers compare against 3 with a small tolerance.
    """
    rep = geometry_report(shape)
    return float(rep.r_max / rep.R)


# ---------------------------------------------------------------------------
# Weber number and normalization

def weber_number(params: PhysicalParams, area: float) -> float:
    """We = sqrt(2 pi) rho beta^2 / (sigma sqrt(area))."""
    if not 0 < area < np.inf:
        raise ValueError("area must be finite and positive")
    return float(
        np.sqrt(2.0 * np.pi) * params.rho * params.beta**2
        / (params.sigma * np.sqrt(area))
    )


def normalize(shape: CrossSection, params: PhysicalParams | None):
    """(scaled, a): the shape rescaled to area 2 pi (so a = 1) and the
    length scale a = sqrt(|E| / 2 pi) that was divided out.  delta and mu
    are scale invariant.

    |E| is the kind's closed-form `area`: no boundary is sampled.  A
    non-finite, non-positive or subnormal (digits lost) area raises
    InvalidShapeError.  `params` does not enter the scale."""
    shape.validate()
    area = shape.area
    if not (np.isfinite(area) and area >= np.finfo(float).tiny):
        raise InvalidShapeError(
            f"area {area:.3g} is not a positive normal float "
            "(clockwise polygon, or a scale that over- or underflows)")
    a = float(np.sqrt(area / (2.0 * np.pi)))
    return shape.scaled(1.0 / a), a


# ---------------------------------------------------------------------------
# closed forms used as oracles

def ellipse_inv_r2_integral(R0: float, m: float, n: float) -> float:
    """int_E r^-2 dA over the ellipse (r-R0)^2/m^2 + z^2/n^2 <= 1."""
    return 2.0 * np.pi * n / m * (R0 / np.sqrt((R0 - m) * (R0 + m)) - 1.0)


def disk_delta(R0: float, rho0: float) -> float:
    """delta of the disk of radius rho0 centered at (R0, 0)."""
    return 2.0 * np.pi * (R0 / np.sqrt((R0 - rho0) * (R0 + rho0)) - 2.0)
