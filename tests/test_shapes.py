import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubblering.shapes import (
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


@pytest.mark.parametrize("n", [7, MAX_RESOLUTION + 2])
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


def test_scaled_preserves_kind():
    disk = Disk(R0=2.0, rho0=0.5).scaled(2.0)
    assert isinstance(disk, Disk)
    assert_allclose(disk.rho0, 1.0)
    star = FourierStar(R0=2.0, base=0.5, coeffs=(0.01,)).scaled(3.0)
    assert_allclose(star.coeffs[0], 0.03)
