import dataclasses
import json
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import dblquad

from bubblering.geometry import (
    PhysicalParams,
    QuadratureError,
    _normal_crossing,
    disk_delta,
    ellipse_inv_r2_integral,
    geometry_report,
    outer_radius_ratio,
    normalize,
    surface_set_length,
    weber_number,
    width_height,
)
from bubblering import shapes
from bubblering.certify import BoundCertificate, Terms
from bubblering.cli import _render, main
from bubblering.search import residual_minimize
from bubblering.shapes import (
    Disk,
    Ellipse,
    FourierStar,
    InvalidShapeError,
    MAX_RESOLUTION,
    Polygon,
    boundary_nodes,
    random_convex_polygon,
    random_smooth_shape,
)
from bubblering.solver import solve_dirichlet

POLYGON = Polygon(vertices=((1.0, -0.5), (2.0, -0.8), (2.5, 0.0), (2.0, 0.8),
                            (1.0, 0.5)))


def test_ellipse_closed_forms():
    shape = Ellipse(R0=3.0, m=2.0, n=1.0)
    rep = geometry_report(shape)
    assert_allclose(rep.area, 2.0 * np.pi, rtol=1e-13)
    assert_allclose(rep.R, 3.0, rtol=1e-13)
    exact = ellipse_inv_r2_integral(3.0, 2.0, 1.0)
    assert_allclose(rep.delta, exact - 2.0 * np.pi, rtol=1e-12)
    # swirl moment for the unit-area-parameter family, closed form:
    # (2 pi n / m) (R0 / sqrt(R0^2 - m^2) - 1)
    assert_allclose(exact, 2.0 * np.pi * 0.5 * (3.0 / np.sqrt(5.0) - 1.0),
                    rtol=1e-14)


def test_ellipse_closed_form_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = rng.uniform(0.3, 2.0)
        n = rng.uniform(0.3, 2.0)
        R0 = m + rng.uniform(0.05, 3.0)
        rep = geometry_report(Ellipse(R0=R0, m=m, n=n))
        exact = ellipse_inv_r2_integral(R0, m, n)
        assert_allclose(rep.delta + 2.0 * np.pi, exact, rtol=1e-10)


def test_inv_r2_against_area_quadrature():
    # independent 2D oracle: adaptive double integral of 1/r^2 over the disk
    R0, rho0 = 2.0, 0.8
    rep = geometry_report(Disk(R0=R0, rho0=rho0))
    val, err = dblquad(
        lambda z, r: 1.0 / r**2,
        R0 - rho0, R0 + rho0,
        lambda r: -np.sqrt(max(rho0**2 - (r - R0) ** 2, 0.0)),
        lambda r: np.sqrt(max(rho0**2 - (r - R0) ** 2, 0.0)),
        epsabs=1e-12, epsrel=1e-12,
    )
    assert_allclose(rep.delta + 2.0 * np.pi, val, rtol=1e-8)
    assert_allclose(rep.delta, disk_delta(R0, rho0), rtol=1e-12)


def test_mean_curvature_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(40):
        rep = geometry_report(random_smooth_shape(rng))
        assert abs(rep.total_mean_curvature + rep.delta) < 1e-8


def test_gauss_bonnet_smooth_and_polygon():
    rng = np.random.default_rng(3)
    from bubblering.shapes import boundary_nodes
    for _ in range(40):
        bnd = boundary_nodes(random_smooth_shape(rng))
        assert_allclose(np.sum(bnd.curvature * bnd.weights), 2.0 * np.pi,
                        atol=1e-8)
        pbnd = boundary_nodes(random_convex_polygon(rng))
        assert_allclose(np.sum(pbnd.turning_angles), 2.0 * np.pi, atol=1e-12)


def test_polygon_report_exact():
    square = Polygon(vertices=((1.0, -0.5), (2.0, -0.5), (2.0, 0.5),
                               (1.0, 0.5)))
    rep = geometry_report(square)
    assert_allclose(rep.area, 1.0, rtol=1e-14)
    assert_allclose(rep.R, 1.5, rtol=1e-14)
    # int 1/r^2 dA over [1,2]x[-1/2,1/2] = 1/2 exactly
    assert_allclose(rep.delta, 0.5 - 2.0 * np.pi, rtol=1e-14)
    assert rep.quad_error == 0.0


def _edge_inv_r(r1, r2, length):
    """int ds / r along one edge, the scalar reference formula."""
    if abs(r2 - r1) < 1e-9 * max(r1, r2):
        rm = 0.5 * (r1 + r2)
        d = (r2 - r1) / rm
        return length / rm * (1.0 + d * d / 12.0)
    return length * np.log(r2 / r1) / (r2 - r1)


def test_polygon_integrals_match_per_edge_formula():
    # random polygons, and hexagons whose slanted right and left edges
    # change r by 1e-10 to 5e-9 relative: the series branch with d != 0
    # below 1e-9, the log branch above
    rng = np.random.default_rng(18)
    polys = [random_convex_polygon(rng) for _ in range(50)]
    for rel in (1e-10, 3e-10, 9e-10, 2e-9, 5e-9):
        polys.append(Polygon(vertices=(
            (1.0, -1.0), (2.0, -0.5), (2.0 * (1.0 + rel), 0.0), (2.0, 0.5),
            (1.0, 1.0), (1.0 - rel, 0.0))))
    for poly in polys:
        bnd = boundary_nodes(poly)
        r1 = bnd.vertices[:, 0]
        inv_r = np.array([_edge_inv_r(a, b, L) for a, b, L in
                          zip(r1, np.roll(r1, -1), bnd.edge_lengths)])
        rep = geometry_report(poly)
        assert rep.delta == (float(np.sum(-bnd.edge_normal_r * inv_r))
                             - 2.0 * np.pi)
        assert rep.total_mean_curvature == (
            float(np.sum(bnd.turning_angles))
            + float(np.sum(bnd.edge_normal_r * inv_r)))


def test_polygon_report_memory_is_linear():
    # 8192 vertices, the most a polygon may have: a vertex-by-vertex table
    # would take 24 V^2 bytes, 1.6 GB
    t = 2.0 * np.pi * np.arange(MAX_RESOLUTION) / MAX_RESOLUTION
    poly = Polygon(vertices=tuple(zip(3.0 + np.cos(t), np.sin(t))))
    tracemalloc.start()
    try:
        rep = geometry_report(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.resolution == MAX_RESOLUTION
    assert peak < 10e6


def test_thickness_predicate_disk():
    # delta >= 0 iff R0/sqrt(R0^2 - rho0^2) >= 2
    thick = geometry_report(Disk(R0=1.0, rho0=0.9))
    thin = geometry_report(Disk(R0=3.0, rho0=0.5))
    assert thick.is_thick and thick.delta > 0
    assert not thin.is_thick and thin.delta < 0


def test_ellipse_thickness_boundary():
    # closed form: thick iff m/n + 1 <= R0/sqrt(R0^2 - m^2)
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.uniform(0.3, 1.5)
        n = rng.uniform(0.3, 1.5)
        R0 = m + rng.uniform(0.01, 2.0)
        rep = geometry_report(Ellipse(R0=R0, m=m, n=n))
        predicted = m / n + 1.0 <= R0 / np.sqrt(R0**2 - m**2)
        assert rep.is_thick == predicted or abs(rep.delta) < 1e-9


def test_outer_radius_triangle_sharpness():
    # flat triangles with one side on the symmetry line approach ratio 3
    eps = 1e-7
    tri = Polygon(vertices=((eps, -1.0), (3.0, 0.0), (eps, 1.0)))
    ratio = outer_radius_ratio(tri)
    assert ratio <= 3.0 + 1e-10
    assert abs(ratio - 3.0) < 1e-5


def test_outer_radius_random_polygons():
    rng = np.random.default_rng(6)
    for _ in range(100):
        assert outer_radius_ratio(random_convex_polygon(rng)) <= 3.0 + 1e-10


def _ellipse_arc_mpmath(m, n, b):
    # S(b) on (R0 + m cos t, n sin t) is |t| < t_b, cos t_b = b m /
    # sqrt(n^2 (1 - b^2) + b^2 m^2); with k^2 = 1 - n^2/m^2 its length is
    # 2 m (E(k^2) - E(pi/2 - t_b | k^2))
    with mpmath.workdps(30):
        m, n, b = mpmath.mpf(m), mpmath.mpf(n), mpmath.mpf(b)
        k2 = 1 - n**2 / m**2
        t_b = mpmath.acos(b * m / mpmath.sqrt(n**2 * (1 - b**2) + b**2 * m**2))
        return float(2 * m * (mpmath.ellipe(k2)
                              - mpmath.ellipe(mpmath.pi / 2 - t_b, k2)))


def test_surface_set_length_disk():
    # S(b) on a circle: n_r = cos t > b on an arc of length 2 rho acos(b)
    shape = Disk(R0=2.0, rho0=0.7)
    for b in [0.0, 0.3, 0.9]:
        assert_allclose(surface_set_length(boundary_nodes(shape), b),
                        2.0 * 0.7 * np.arccos(b), rtol=1e-9)
    rep = geometry_report(shape)
    assert_allclose(surface_set_length(boundary_nodes(shape), 0.0),
                    rep.perimeter / 2, rtol=1e-9)
    # tall, moderate and 20:1 flat ellipses against the closed form
    for R0, m, n in [(3.0, 0.3, 2.0), (3.0, 1.2, 0.6), (5.0, 2.0, 0.1)]:
        for b in [0.0, 0.01, 0.3, 0.9]:
            bnd = boundary_nodes(Ellipse(R0=R0, m=m, n=n))
            assert_allclose(surface_set_length(bnd, b),
                            _ellipse_arc_mpmath(m, n, b), rtol=1e-11,
                            err_msg=f"m={m}, n={n}, b={b}")


CROSSING_B = (0.0, 0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9)


def _random_stars(seed, count):
    rng = np.random.default_rng(seed)
    stars = []
    while len(stars) < count:
        shape = random_smooth_shape(rng)
        if isinstance(shape, FourierStar):
            stars.append(shape)
    return stars


class _CountingShape:
    """Delegates `derivs` to a shape and counts the calls."""

    def __init__(self, shape):
        self.shape, self.calls = shape, 0

    def derivs(self, t):
        self.calls += 1
        return self.shape.derivs(t)


def test_normal_crossing_ellipse_closed_form():
    # n_r = n cos t / |x'(t)| = b at tan t_b = (n/m) sqrt(1/b^2 - 1), and
    # t_b = pi/2 at b = 0; 20:1 flat and tall ellipses included
    rng = np.random.default_rng(14)
    axes = [(2.0, 0.1), (0.1, 2.0)] + [tuple(rng.uniform(0.3, 2.0, 2))
                                       for _ in range(30)]
    for m, n in axes:
        shape = Ellipse(R0=m + 1.0, m=m, n=n)
        for b in CROSSING_B:
            exact = np.arctan2(n * np.sqrt((1.0 - b) * (1.0 + b)), m * b)
            assert abs(_normal_crossing(shape, b) - exact) <= 1e-14, (m, n, b)


def test_normal_crossing_matches_brentq_on_fourier_stars():
    from scipy.optimize import brentq
    for shape in _random_stars(15, 30):
        for b in CROSSING_B:
            def nr_minus_b(t):
                (dr, dz), _ = shape.derivs(t)
                return dz / np.hypot(dr, dz) - b

            oracle = brentq(nr_minus_b, 0.0, np.pi, xtol=1e-14)
            assert abs(_normal_crossing(shape, b) - oracle) <= 1e-14


@pytest.mark.parametrize("b", [-0.1, 1.0, 1.5, np.nan])
def test_surface_set_threshold_outside_unit_interval_rejected(b):
    bnd = boundary_nodes(Disk(R0=3.0, rho0=1.0))
    with pytest.raises(ValueError, match=r"threshold b must lie in \[0, 1\)"):
        surface_set_length(bnd, b)


def test_surface_set_length_is_the_60_point_gauss_rule():
    from scipy.integrate import fixed_quad
    rng = np.random.default_rng(16)
    for shape in [random_smooth_shape(rng) for _ in range(20)]:
        for b in CROSSING_B:
            def speed(t):
                (dr, dz), _ = shape.derivs(t)
                return np.hypot(dr, dz)

            t_b = _normal_crossing(shape, b)
            oracle = 2.0 * fixed_quad(speed, 0.0, t_b, n=60)[0]
            assert_allclose(surface_set_length(boundary_nodes(shape), b),
                            oracle, rtol=1e-14)


def test_normal_crossing_derivs_calls():
    # one vectorized sample plus a few Newton steps: brentq took 9 calls
    rng = np.random.default_rng(17)
    for _ in range(100):
        shape = _CountingShape(random_smooth_shape(rng))
        for b in CROSSING_B:
            shape.calls = 0
            _normal_crossing(shape, b)
            assert shape.calls <= 6, (shape.shape, b, shape.calls)


def test_normal_crossing_converges_at_the_rounding_floor():
    # near b = 1 on a tall ellipse n_r is flat at the root, so its rounding
    # moves the root by 1e-14: Newton alone bounced between two points
    m, n, b = 0.47527085752291953, 2.8485158690548693, 0.999
    shape = _CountingShape(Ellipse(R0=m + 1.0, m=m, n=n))
    exact = np.arctan2(n * np.sqrt((1.0 - b) * (1.0 + b)), m * b)
    assert abs(_normal_crossing(shape, b) - exact) <= 1e-13
    assert shape.calls <= 12


def test_normal_crossing_without_sign_change_raises():
    class Upright:          # n_r = 1 everywhere
        def derivs(self, t):
            zero = np.zeros_like(t)
            return (zero, zero + 1.0), (zero, zero)

    with pytest.raises(QuadratureError, match="sign"):
        _normal_crossing(Upright(), 0.5)


@pytest.mark.parametrize("shape", [
    Disk(R0=2.0, rho0=0.7),
    Ellipse(R0=3.0, m=1.2, n=0.6),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05, -0.02)),
    Polygon(vertices=((1.0, -0.5), (2.0, -0.8), (2.5, 0.0), (2.0, 0.8),
                      (1.0, 0.5))),
], ids=["disk", "ellipse", "fourier", "polygon"])
def test_width_height_disk(shape):
    # the certificate reads h and Delta R from the report: the same values
    rep = geometry_report(shape)
    h, dR = width_height(shape)
    assert (h, dR) == (rep.height_h, rep.r_max - rep.r_min)
    if isinstance(shape, Disk):
        assert_allclose(h, 0.7, rtol=1e-10)
        assert_allclose(dR, 1.4, rtol=1e-10)


@pytest.mark.parametrize("shape", [
    Ellipse(R0=0.5, m=1.0, n=1.0),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.4)),
    Ellipse(R0=np.nan, m=1.0, n=1.0),
    Polygon(vertices=POLYGON.vertices[::-1]),
], ids=["touches-axis", "non-convex-star", "nan-R0", "clockwise-polygon"])
def test_width_height_refuses_what_the_report_refuses(shape):
    with pytest.raises(InvalidShapeError):
        geometry_report(shape)
    with pytest.raises(InvalidShapeError):
        width_height(shape)


def test_extents_are_the_checked_sample():
    # r_max and r_min are nodes 0 and n/2 (t = 0 and pi) of the report's
    # sample, at every resolution the report stops at
    rng = np.random.default_rng(17)
    cases = [random_smooth_shape(rng) for _ in range(30)]
    # near-axis disks the graded nodes resolve at 1024, 4096 and 8192
    cases += [Disk(R0=1.0, rho0=1.0 - eps) for eps in (1e-2, 1e-6, 3e-7)]
    cases += [random_convex_polygon(rng) for _ in range(30)]
    resolutions = set()
    for shape in cases:
        rep = geometry_report(shape)
        assert width_height(shape) == (rep.height_h, rep.r_max - rep.r_min)
        if isinstance(shape, Polygon):
            continue
        n = rep.boundary.n_nodes
        assert (rep.r_max, rep.r_min) == (rep.boundary.r[0],
                                          rep.boundary.r[n // 2])
        resolutions.add(n)
    assert {1024, 4096, 8192} <= resolutions


def test_weber_number_scaling():
    params = PhysicalParams(rho=2.0, sigma=3.0, beta=1.5)
    we = weber_number(params, area=2.0 * np.pi)
    assert_allclose(we, np.sqrt(2 * np.pi) * 2.0 * 1.5**2 /
                    (3.0 * np.sqrt(2 * np.pi)), rtol=1e-14)


@pytest.mark.parametrize("name", ["rho", "sigma", "beta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_physical_params_must_be_finite(name, bad):
    values = dict(rho=1.0, sigma=1.0, beta=1.0)
    values[name] = bad
    with pytest.raises(ValueError, match="finite and positive"):
        PhysicalParams(**values)


@pytest.mark.parametrize("area", [np.nan, np.inf])
def test_weber_number_area_must_be_finite(area):
    # area = inf used to give We = 0, and NaN gave NaN
    with pytest.raises(ValueError, match="finite and positive"):
        weber_number(PhysicalParams(rho=1.0, sigma=1.0, beta=1.0), area)


def test_normalize_rescales_to_unit_length_scale():
    shape = Ellipse(R0=5.0, m=2.0, n=1.5)
    params = PhysicalParams(rho=1.0, sigma=2.0, beta=0.5)
    scaled, a = normalize(shape, params)
    rep = geometry_report(scaled)
    assert_allclose(rep.area, 2.0 * np.pi, rtol=1e-12)
    assert_allclose(rep.a, 1.0, rtol=1e-12)
    # delta and mu are scale invariant
    rep0 = geometry_report(shape)
    assert_allclose(rep.delta, rep0.delta, rtol=1e-9)
    assert_allclose(rep.mu, rep0.mu, rtol=1e-12)
    assert_allclose(a, rep0.a, rtol=1e-12)


def test_closed_form_area_of_every_kind():
    # smooth kinds against the sampled area at n = 1024; polygons against
    # the report's shoelace, bit for bit
    rng = np.random.default_rng(31)
    smooth = [Disk(R0=2.0, rho0=0.7)]
    smooth += [random_smooth_shape(rng) for _ in range(40)]
    for shape in smooth:
        bnd = boundary_nodes(shape, 1024)
        sampled = float(np.sum(bnd.r * bnd.normal_r * bnd.weights))
        assert_allclose(shape.area, sampled, rtol=1e-13)
    for poly in [POLYGON] + [random_convex_polygon(rng) for _ in range(20)]:
        assert poly.area == geometry_report(poly).area


def test_normalize_samples_no_boundary(count_calls):
    calls = count_calls(shapes, "boundary_nodes")
    for shape in [Disk(R0=2.0, rho0=0.7), Ellipse(R0=5.0, m=2.0, n=1.5),
                  FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05, -0.02)),
                  POLYGON]:
        scaled, a = normalize(shape, None)
        assert_allclose(scaled.area, 2.0 * np.pi, rtol=1e-15)
        assert_allclose(a, np.sqrt(shape.area / (2.0 * np.pi)), rtol=1e-15)
    assert calls == []


@pytest.mark.parametrize("shape", [
    Polygon(vertices=POLYGON.vertices[::-1]),   # clockwise
    Ellipse(R0=np.nan, m=1.0, n=1.0),
    Disk(R0=1e308, rho0=1e307),                 # area overflows
    Disk(R0=1e-160, rho0=1e-161),               # area is subnormal
])
def test_normalize_rejects_invalid_area(shape):
    with pytest.raises(InvalidShapeError):
        normalize(shape, None)


@pytest.mark.parametrize("shape, field", [
    (Disk(R0=1e308, rho0=1e307), "area"),
    (Disk(R0=1e154, rho0=1e153), "R"),
    (Disk(R0=1e-160, rho0=1e-161), "total_mean_curvature"),
])
def test_report_refuses_non_finite_fields(shape, field):
    # finite parameters whose integrals over- or underflow; a RuntimeWarning
    # on the way would fail the test as well
    with pytest.raises(InvalidShapeError, match=f"field {field} is"):
        geometry_report(shape)


@pytest.mark.parametrize("shape", [
    Disk(R0=1e-105, rho0=1e-106),
    Ellipse(R0=1.0, m=0.5, n=1e-104),
])
def test_report_refuses_subnormal_speed_cubed(shape):
    # every field is finite, but the curvature divides by a subnormal
    # speed**3 and loses digits (mu off by 3.5e-6 on the disk)
    with pytest.raises(InvalidShapeError, match=r"speed\*\*3"):
        geometry_report(shape)


def test_report_of_a_tiny_disk_keeps_its_digits():
    rep = geometry_report(Disk(R0=1e-100, rho0=1e-101))
    assert abs(rep.total_mean_curvature + rep.delta) <= 1e-14
    assert_allclose(rep.mu, 10.0 * np.sqrt(2.0), rtol=1e-14)


@pytest.mark.parametrize("shape, resolution", [
    (Disk(R0=2.0, rho0=0.7), 1024),
    (Disk(R0=1.0, rho0=1.0 - 1e-6), 4096),
    (Ellipse(R0=30.0, m=1.0, n=0.05), 1024),    # 20:1
    (FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05, -0.02)), 1024),
], ids=["disk", "near-axis-disk", "ellipse-20-1", "fourier-star"])
def test_report_samples_once_per_resolution(count_calls, shape, resolution):
    # the error estimate reads the n/2-node rule off the n-node sample
    calls = count_calls(shapes, "boundary_nodes")
    assert geometry_report(shape).resolution == resolution
    assert calls == [(shape, n) for n in (1024, 2048, 4096, 8192)
                     if n <= resolution]


REPORT_FIELDS = {"area", "R", "a", "mu", "delta", "total_mean_curvature",
                 "r_max", "r_min", "height_h", "perimeter", "is_thick",
                 "quad_error", "resolution"}


@pytest.mark.parametrize("shape", [
    Disk(R0=2.0, rho0=0.7),
    Disk(R0=1.0, rho0=1.0 - 1e-6),              # doubles to 4096 nodes
    Ellipse(R0=30.0, m=1.0, n=0.05),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05, -0.02)),
    POLYGON,
], ids=["disk", "near-axis-disk", "ellipse-20-1", "fourier-star", "polygon"])
def test_report_keeps_its_checked_boundary(shape):
    rep = geometry_report(shape)
    assert rep.boundary.shape == shape
    if not isinstance(shape, Polygon):
        assert rep.boundary.n_nodes == rep.resolution
    # the boundary is neither serialized nor compared
    assert set(_render(rep)) == REPORT_FIELDS
    assert geometry_report(shape) == rep
    assert "boundary" not in repr(rep)


def test_solution_and_search_keys(tmp_path):
    # the solve JSON's `solution` block and the search `report`: their
    # dataclass fields, less the boundary (solve) and the log (search)
    sol = solve_dirichlet(Disk(R0=2.0, rho0=0.7), 0.0, 64)
    assert set(_render(sol)) == {
        "density", "psi_trace", "dn_psi", "W", "gamma", "circulation",
        "condition_number", "resolution", "alpha"}
    assert "boundary" not in repr(sol)
    res = residual_minimize("thick-disk", we=0.5, budget=3, resolution=32)
    assert set(_render(res)) == {
        "family", "we", "seed", "budget", "resolution", "best_params",
        "best_W", "best_lam", "best_residual", "best_report",
        "n_evaluations", "n_solves", "best_shape"}
    assert _render(res)["best_shape"] == {
        "kind": "disk", "params": {"R0": res.best_params[0],
                                   "rho0": float(np.sqrt(2.0))}}
    # the bound JSON's `report`: the certificate's fields, each variant a
    # block of its Terms fields, plus the four keys `bound` adds
    cert_fields = {f.name for f in dataclasses.fields(BoundCertificate)}
    assert cert_fields == {"mu", "mu_area_convention", "delta", "is_thick",
                           "branch", "b_star", "universal", "measured"}
    shape, out = tmp_path / "disk.json", tmp_path / "bound.json"
    shape.write_text(json.dumps({"kind": "disk",
                                 "params": {"R0": 2.0, "rho0": 0.7}}))
    assert main(["bound", "--shape", str(shape), "--we", "0.1",
                 "--out", str(out)]) == 0
    block = json.loads(out.read_text())["report"]
    assert set(block) == cert_fields | {"we_min_best", "scale_factor_a",
                                        "we", "verdict"}
    terms = {f.name for f in dataclasses.fields(Terms)}
    assert set(block["universal"]) == set(block["measured"]) == terms == {
        "term_curvature", "term_bernoulli", "we_min"}


def _two_sample_estimate(shape, n):
    """The relative delta gap between separate n- and n/2-node samples."""
    def inv_r2(bnd):
        return float(np.sum(-(1.0 / bnd.r) * bnd.normal_r * bnd.weights))

    fine = inv_r2(boundary_nodes(shape, n))
    coarse = inv_r2(boundary_nodes(shape, n // 2))
    return abs(fine - coarse) / max(1.0, abs(fine))


def test_quad_error_equals_the_two_sample_estimate():
    rng = np.random.default_rng(12)
    cases = [random_smooth_shape(rng) for _ in range(50)]
    # graded nodes resolve these disks at 2048, 4096 and 8192
    cases += [Disk(R0=1.0, rho0=1.0 - eps) for eps in (3e-6, 1e-6, 3e-7)]
    resolutions = set()
    for shape in cases:
        rep = geometry_report(shape)
        assert rep.quad_error == _two_sample_estimate(shape, rep.resolution)
        resolutions.add(rep.resolution)
    assert {1024, 4096, 8192} <= resolutions


def test_report_accepts_1e_8_at_the_node_cap():
    # at 8192 nodes an estimate in (1e-9, 1e-8] is accepted: 2.5e-9 on a
    # disk 1.25e-7 R0 off the axis, whose delta is right to 1.4e-11 (the
    # float closed form loses digits to R0^2 - rho0^2 here, so mpmath); at
    # 1e-7 R0 the estimate is 2.2e-8 and the report is refused
    rho0 = 1.0 - 1.25e-7
    rep = geometry_report(Disk(R0=1.0, rho0=rho0))
    assert rep.resolution == MAX_RESOLUTION
    assert 1e-9 < rep.quad_error <= 1e-8
    inv_r2 = 2.0 * mpmath.pi * (1 / mpmath.sqrt(1 - mpmath.mpf(rho0) ** 2)
                                - 1)
    assert abs(rep.delta + 2.0 * np.pi - inv_r2) <= 1e-10 * inv_r2
    with pytest.raises(QuadratureError, match="2.2e-08 at 8192"):
        geometry_report(Disk(R0=1.0, rho0=1.0 - 1e-7))


def test_smooth_height_is_the_ellipse_semi_axis_exactly():
    # h comes from the n_r = 0 crossing on every smooth kind; on an
    # ellipse or disk it must reproduce the semi-axis n bit for bit
    rng = np.random.default_rng(13)
    for _ in range(1000):
        m = 10.0 ** rng.uniform(-3.0, 3.0)
        n = m * 10.0 ** rng.uniform(-2.0, 2.0)
        R0 = m * (1.0 + 10.0 ** rng.uniform(-4.0, 1.0))
        shape = Disk(R0, m) if rng.uniform() < 0.3 else Ellipse(R0, m, n)
        assert width_height(shape)[0] == shape.n


def small_radius_delta_implication(shape) -> bool:
    """True iff (2 pi R^2 <= area) implies (delta >= 0) on this shape.

    The implication is a theorem (double Cauchy-Schwarz), so this must
    return True for every valid shape.
    """
    rep = geometry_report(shape)
    hyp = 2.0 * np.pi * rep.R**2 <= rep.area
    return (not hyp) or rep.delta >= -1e-10


def test_small_radius_delta_implication_random():
    rng = np.random.default_rng(8)
    for _ in range(60):
        assert small_radius_delta_implication(random_smooth_shape(rng))


def test_near_axis_delta_blowup_scaling():
    # delta ~ pi sqrt(2) / sqrt(eps/R0) as the section closes on the axis;
    # the scaled sequence approaches pi sqrt(2) from below
    vals = []
    for eps_rel in [1e-2, 1e-3, 1e-4]:
        delta = disk_delta(1.0, 1.0 - eps_rel)
        vals.append(delta * np.sqrt(eps_rel))
    assert vals[0] < vals[1] < vals[2] < np.pi * np.sqrt(2.0)
    assert abs(vals[2] - np.pi * np.sqrt(2.0)) / (np.pi * np.sqrt(2)) < 0.03
    # quadrature tracks the closed form even in the near-axis regime
    rep = geometry_report(Disk(R0=1.0, rho0=1.0 - 1e-4))
    assert_allclose(rep.delta, disk_delta(1.0, 1.0 - 1e-4), rtol=1e-8)


@pytest.mark.parametrize("R0", [1.0, 1.7, 3.3])
@pytest.mark.parametrize("eps_rel", [1e-4, 1e-6, 3e-7])
def test_near_axis_closed_forms_against_mpmath(R0, eps_rel):
    # R0^2 - rho0^2 cancels near the axis (a relative 3.3e-11 at 3e-7);
    # the closed forms factor it, so they keep full precision
    inner = R0 * (1.0 - eps_rel)
    with mpmath.workdps(50):
        R, rho, n = mpmath.mpf(R0), mpmath.mpf(inner), mpmath.mpf(0.7)
        ratio = R / mpmath.sqrt(R**2 - rho**2)
        want_delta = 2 * mpmath.pi * (ratio - 2)
        want_ellipse = 2 * mpmath.pi * n / rho * (ratio - 1)
    assert abs(disk_delta(R0, inner) / want_delta - 1) <= 1e-15
    assert abs(ellipse_inv_r2_integral(R0, inner, 0.7) / want_ellipse
               - 1) <= 1e-15
