import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubblering.shapes import (
    _POLYGON_POINTS,
    _convex_hull,
    Disk,
    Ellipse,
    FourierStar,
    InvalidShapeError,
    MAX_RESOLUTION,
    Polygon,
    boundary_nodes,
    load_shape,
    random_convex_polygon,
    random_smooth_shape,
    shape_from_dict,
    shape_to_dict,
)


def test_ellipse_nodes_basic():
    shape = Ellipse(R0=3.0, m=2.0, n=1.0)
    bnd = boundary_nodes(shape, 256)
    assert bnd.n_nodes == 256
    assert_allclose(bnd.r.min(), 1.0, atol=1e-12)
    assert np.all(bnd.r > 0)
    # outward normal: at t = 0 (rightmost point) it points in +e_r
    assert_allclose(bnd.normal_r[0], 1.0, atol=1e-12)
    assert_allclose(bnd.normal_z[0], 0.0, atol=1e-12)


def test_disk_curvature_constant():
    shape = Disk(R0=2.0, rho0=0.7)
    bnd = boundary_nodes(shape, 128)
    assert_allclose(bnd.curvature, 1.0 / 0.7, rtol=1e-12)
    assert_allclose(bnd.perimeter, 2.0 * np.pi * 0.7, rtol=1e-12)


@pytest.mark.parametrize("n", [7, MAX_RESOLUTION + 2, 9, 129,
                               MAX_RESOLUTION - 1])
def test_node_count_out_of_range_is_bad_argument(n):
    # a bad n is a plain ValueError, not a rejected shape, raised before
    # any work that scales with n
    with pytest.raises(ValueError) as exc:
        boundary_nodes(Disk(R0=2.0, rho0=0.7), n)
    assert not isinstance(exc.value, InvalidShapeError)


def test_axis_touching_rejected():
    with pytest.raises(InvalidShapeError):
        boundary_nodes(Ellipse(R0=1.0, m=1.0, n=0.5))
    with pytest.raises(InvalidShapeError):
        boundary_nodes(Ellipse(R0=1.0, m=1.5, n=0.5))


def test_nonconvex_fourier_rejected():
    shape = FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.4))
    with pytest.raises(InvalidShapeError):
        boundary_nodes(shape)


def test_asymmetric_shape_rejected():
    shape = FourierStar(R0=3.0, base=1.0, coeffs=(0.0,))
    boundary_nodes(shape)  # symmetric baseline passes

    tri = Polygon(vertices=((1.0, 0.0), (2.0, 0.3), (1.5, 1.0)))
    with pytest.raises(InvalidShapeError):
        boundary_nodes(tri)


@pytest.mark.parametrize("offset, symmetric", [(0.5e-12, True),
                                               (2e-12, False)])
def test_polygon_symmetry_tolerance(offset, symmetric):
    # a vertex may miss its mirror by up to 1e-12 * scale, the largest
    # coordinate magnitude (2.5 here)
    vertices = [[1.0, -0.5], [2.0, -0.8], [2.5, 0.0], [2.0, 0.8],
                [1.0, 0.5]]
    vertices[3][1] += offset * 2.5
    poly = Polygon(vertices=vertices)
    if symmetric:
        boundary_nodes(poly)
    else:
        with pytest.raises(InvalidShapeError, match="not symmetric"):
            boundary_nodes(poly)


@pytest.mark.parametrize("scale", [1e-13, 1.0])
def test_polygon_symmetry_tolerance_is_relative(scale):
    # (1, 2) misses its mirror (1, -2) by 1 * scale, far above the
    # tolerance 1e-12 * scale at any size
    tri = Polygon(vertices=((1.0 * scale, -1.0 * scale), (3.0 * scale, 0.0),
                            (1.0 * scale, 2.0 * scale)))
    with pytest.raises(InvalidShapeError, match="not symmetric"):
        boundary_nodes(tri)


def test_polygon_that_winds_twice_is_rejected():
    # the regular pentagon around (3, 0) visited in the order 0, 2, 4, 1, 3
    # is a pentagram: it turns left at every vertex, through 4 pi in all
    t = 2.0 * np.pi * np.arange(5) / 5
    pentagon = Polygon(vertices=tuple(zip(3.0 + np.cos(t), np.sin(t))))
    bnd = boundary_nodes(pentagon)
    assert_allclose(np.sum(bnd.turning_angles), 2.0 * np.pi, rtol=1e-15)
    star = Polygon(vertices=[pentagon.vertices[i] for i in (0, 2, 4, 1, 3)])
    with pytest.raises(InvalidShapeError, match="winds more than once"):
        boundary_nodes(star)


def _regular_polygon(count):
    t = 2.0 * np.pi * np.arange(count) / count
    return Polygon(vertices=tuple(zip(3.0 + np.cos(t), np.sin(t))))


def test_polygon_vertex_count_is_capped():
    # the node cap of the smooth kinds, before any per-vertex array
    with pytest.raises(InvalidShapeError,
                       match=f"{MAX_RESOLUTION + 1} vertices"):
        boundary_nodes(_regular_polygon(MAX_RESOLUTION + 1))


def test_polygon_symmetry_check_memory():
    # a V x V distance table would take 24 V^2 bytes, 216 MB here
    poly = _regular_polygon(3000)
    tracemalloc.start()
    try:
        boundary_nodes(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_polygon_symmetry_is_checked_in_every_block():
    # vertex 600 of 1200 (t = pi) is its own mirror, so only its column,
    # in the second block of mirrored vertices, sees it leave z = 0
    vertices = [list(v) for v in _regular_polygon(1200).vertices]
    boundary_nodes(Polygon(vertices=vertices))
    vertices[600][1] += 1e-9
    with pytest.raises(InvalidShapeError, match="not symmetric"):
        boundary_nodes(Polygon(vertices=vertices))


def test_odd_symmetric_polygon_accepted_from_every_first_vertex():
    # the mirror order pairs vertex i with vertex (k - i) mod V wherever
    # the list starts; an odd V has one vertex on z = 0
    rng = np.random.default_rng(5)
    polys = [_regular_polygon(V) for V in (3, 5, 7, 9, 101)]
    for _ in range(10):
        # random points on the upper half of an ellipse, the vertex (4, 0)
        # and the mirrors of the points
        t = np.sort(rng.uniform(0.1, np.pi - 0.1, int(rng.integers(1, 8))))
        upper = list(zip(3.0 + np.cos(t), 0.7 * np.sin(t)))
        polys.append(Polygon(vertices=[(4.0, 0.0)] + upper
                             + [(r, -z) for r, z in upper[::-1]]))
    for poly in polys:
        for first in range(len(poly.vertices)):
            boundary_nodes(Polygon(vertices=poly.vertices[first:]
                                   + poly.vertices[:first]))


def test_polygon_unmatched_vertex_is_refused():
    # the vertex set is symmetric within the tolerance, the vertex list is
    # not: the extra vertex 1e-13 along the edge from corner 1 to corner 2
    # of the hexagon has no mirror partner in the mirror order
    hexagon = _regular_polygon(6).vertices
    boundary_nodes(Polygon(vertices=hexagon))
    (r1, z1), (r2, z2) = hexagon[1], hexagon[2]
    extra = (r1 + 1e-13 * (r2 - r1), z1 + 1e-13 * (z2 - z1))
    with pytest.raises(InvalidShapeError, match="not symmetric"):
        boundary_nodes(Polygon(vertices=hexagon[:2] + (extra,) + hexagon[2:]))


def test_polygon_orientation_and_turning():
    square = Polygon(vertices=((1.0, -0.5), (2.0, -0.5), (2.0, 0.5),
                               (1.0, 0.5)))
    bnd = boundary_nodes(square)
    assert_allclose(np.sum(bnd.turning_angles), 2.0 * np.pi, rtol=1e-14)
    assert_allclose(np.sum(bnd.edge_lengths), 4.0, rtol=1e-14)
    # clockwise input rejected
    with pytest.raises(InvalidShapeError):
        boundary_nodes(Polygon(vertices=((1.0, -0.5), (1.0, 0.5),
                                         (2.0, 0.5), (2.0, -0.5))))


def test_reflection_symmetry_of_nodes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        shape = random_smooth_shape(rng)
        bnd = boundary_nodes(shape, 128)
        # parameter t -> 2 pi - t mirrors z
        assert_allclose(bnd.r[1:], bnd.r[1:][::-1], atol=1e-12)
        assert_allclose(bnd.z[1:], -bnd.z[1:][::-1], atol=1e-12)


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("shape", [
    Ellipse(R0=2.0, m=0.8, n=0.6),
    Disk(R0=1.55, rho0=np.sqrt(2.0)),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.1, -0.05, 0.02)),
], ids=["ellipse", "disk", "fourier-star"])
def test_mirror_nodes_are_exact(shape, n):
    # the solver's fold and pair orbits take node n - j as the exact mirror
    # of node j; the fixed nodes t = 0 and t = pi lie on z = 0
    bnd = boundary_nodes(shape, n)
    mirror = -np.arange(n) % n
    for even in (bnd.r, bnd.speed, bnd.normal_r, bnd.curvature,
                 bnd.weights):
        assert np.array_equal(even[mirror], even)
    for odd in (bnd.z, bnd.normal_z):
        assert np.array_equal(odd[mirror], -odd)


def test_random_generators_produce_valid_shapes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        shape = random_smooth_shape(rng)
        bnd = boundary_nodes(shape, 64)
        assert np.all(bnd.r > 0)
        assert np.all(bnd.curvature > -1e-10)
        poly = random_convex_polygon(rng)
        pbnd = boundary_nodes(poly)
        assert np.all(pbnd.vertices[:, 0] > 0)
        assert np.all(pbnd.turning_angles > -1e-12)


def test_convex_hull_against_qhull():
    # the numpy hull of random_convex_polygon's clouds has qhull's vertex
    # set; its vertices turn left and are closed under z -> -z
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(11)
    for _ in range(1000):
        upper = rng.uniform([-1.0, 0.0], [1.0, 1.0],
                            size=(_POLYGON_POINTS, 2))
        pts = np.vstack([upper, upper * np.array([1.0, -1.0])])
        v = _convex_hull(pts)
        assert sorted(map(tuple, v)) == sorted(
            map(tuple, pts[ConvexHull(pts).vertices]))
        edge = np.roll(v, -1, axis=0) - v
        nxt = np.roll(edge, -1, axis=0)
        assert np.all(edge[:, 0] * nxt[:, 1] - edge[:, 1] * nxt[:, 0] > 0.0)
        assert set(map(tuple, v * [1.0, -1.0])) == set(map(tuple, v))


def test_convex_hull_drops_points_on_an_edge():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    pts = np.array(square + [(0.5, 0.0), (1.0, 0.5), (0.5, 0.5), (0.0, 0.0)])
    assert _convex_hull(pts).tolist() == [list(p) for p in square]


def test_serialization_round_trip(tmp_path):
    shapes = [
        Ellipse(R0=3.0, m=2.0, n=1.0),
        Disk(R0=2.0, rho0=0.5),
        FourierStar(R0=2.5, base=0.8, coeffs=(0.01, -0.002)),
        Polygon(vertices=((1.0, -0.5), (2.0, -0.5), (2.0, 0.5), (1.0, 0.5))),
    ]
    for shape in shapes:
        d = shape_to_dict(shape)
        back = shape_from_dict(json.loads(json.dumps(d)))
        assert shape_to_dict(back) == d
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(shape_to_dict(shapes[0])))
    loaded = load_shape(path)
    assert isinstance(loaded, Ellipse)
    assert loaded.R0 == 3.0


def test_malformed_shape_file_messages(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "ellipse", "params": {"R0": 3.0}}))
    with pytest.raises(InvalidShapeError, match="m"):
        load_shape(path)
    with pytest.raises(InvalidShapeError, match="kind"):
        shape_from_dict({"params": {}})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("shape", [
    Ellipse(R0=NAN, m=1.0, n=1.0),
    Ellipse(R0=INF, m=1.0, n=1.0),
    Ellipse(R0=3.0, m=NAN, n=1.0),
    Ellipse(R0=3.0, m=1.0, n=-INF),
    Disk(R0=NAN, rho0=1.0),
    Disk(R0=2.0, rho0=NAN),
    FourierStar(R0=NAN, base=1.0),
    FourierStar(R0=3.0, base=INF),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.0, NAN)),
    Polygon(vertices=((1.0, -1.0), (2.0, -1.0), (2.0, 1.0), (NAN, 1.0))),
    Polygon(vertices=((1.0, -1.0), (INF, 0.0), (1.0, 1.0))),
])
def test_non_finite_parameters_rejected(shape):
    with pytest.raises(InvalidShapeError, match="finite"):
        shape.validate()
    with pytest.raises(InvalidShapeError, match="finite"):
        boundary_nodes(shape, 64)


@pytest.mark.parametrize("payload", [
    [1, 2],
    "disk",
    {"kind": "disk", "params": [1, 2]},
    {"kind": "disk", "params": None},
    {"kind": "disk", "params": {"R0": "abc", "rho0": 1.0}},
    {"kind": "disk", "params": {"R0": True, "rho0": 1.0}},
    {"kind": "ellipse", "params": {"R0": 3.0, "m": [1.0], "n": 1.0}},
    {"kind": "fourier-star", "params": {"R0": 3.0, "base": 1.0,
                                        "coeffs": None}},
    {"kind": "fourier-star", "params": {"R0": 3.0, "base": 1.0,
                                        "coeffs": 0.1}},
    {"kind": "fourier-star", "params": {"R0": 3.0, "base": 1.0,
                                        "coeffs": ["0.1"]}},
    {"kind": "polygon", "params": {"vertices": 3}},
    {"kind": "polygon", "params": {"vertices": [[1, -1, 0], [2, -1], [2, 1]]}},
    {"kind": "polygon", "params": {"vertices": [[1, -1], [2, "x"], [2, 1]]}},
])
def test_malformed_shape_file_types(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidShapeError):
        load_shape(path)


HUGE = 10**400   # json writes and reads it as an int; no float holds it


@pytest.mark.parametrize("payload", [
    {"kind": "disk", "params": {"R0": HUGE, "rho0": 1}},
    {"kind": "ellipse", "params": {"R0": 3, "m": 1, "n": -HUGE}},
    {"kind": "fourier-star", "params": {"R0": 3, "base": 1,
                                        "coeffs": [0, HUGE]}},
    {"kind": "polygon", "params": {"vertices": [[1, -1], [HUGE, 0],
                                                [1, 1]]}},
])
def test_integer_too_large_for_a_float_is_rejected(tmp_path, payload):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidShapeError, match="too large"):
        load_shape(path)


def test_integer_parameters_are_read_as_floats():
    shape = shape_from_dict({"kind": "fourier-star",
                             "params": {"R0": 3, "base": 1, "coeffs": [0]}})
    assert shape == FourierStar(R0=3.0, base=1.0, coeffs=(0.0,))
    assert all(type(x) is float for x in (shape.R0, shape.base, *shape.coeffs))


def test_scaled_preserves_kind():
    disk = Disk(R0=2.0, rho0=0.5).scaled(2.0)
    assert isinstance(disk, Disk)
    assert_allclose(disk.rho0, 1.0)
    star = FourierStar(R0=2.0, base=0.5, coeffs=(0.01,)).scaled(3.0)
    assert_allclose(star.coeffs[0], 0.03)
