import dataclasses
import operator

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubblering.certify import (
    NOT_RULED_OUT,
    RULED_OUT,
    explicit_bound,
    norbury_scaling_probe,
    universal_bound,
    verdict,
)
from bubblering.geometry import (
    PhysicalParams,
    geometry_report,
    normalize,
    surface_set_length,
    width_height,
)
from bubblering import shapes
from bubblering.shapes import (Disk, Ellipse, FourierStar, Polygon,
                               boundary_nodes, random_smooth_shape,
                               shape_from_dict, shape_to_dict)


def _normalized(shape):
    scaled, _ = normalize(shape, PhysicalParams(rho=1.0, sigma=1.0, beta=1.0))
    return scaled


def test_branch_constants_delta_zero():
    # large-R branch: we_min = pi^3 / (486 R^5); small-R: pi^2 / (27 R^3)
    for R in [0.5, 1.0, 2.5]:
        assert_allclose(universal_bound(R, 0.0), np.pi**3 / (486 * R**5),
                        rtol=1e-14)
    for R in [0.1, 0.25]:
        assert_allclose(universal_bound(R, 0.0), np.pi**2 / (27 * R**3),
                        rtol=1e-14)


def test_delta_term_constant():
    for R, d in [(1.0, 0.5), (2.0, 3.0)]:
        extra = universal_bound(R, d) - universal_bound(R, 0.0)
        assert_allclose(extra, 4 * np.pi**2 * d / (3 * R * (4 * np.pi
                                                            + 18 * R * R)),
                        rtol=1e-14)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_universal_bound_refuses_non_finite_delta(delta):
    with pytest.raises(ValueError, match="delta must be finite"):
        universal_bound(1.0, delta)


def test_negative_delta_clamped():
    assert universal_bound(1.5, -2.0) == universal_bound(1.5, 0.0)


def test_bound_positive_and_monotone_grid():
    mus = np.linspace(0.35, 3.0, 20)
    deltas = np.linspace(0.0, 5.0, 20)
    grid = np.array([[universal_bound(m, d) for d in deltas] for m in mus])
    assert np.all(grid > 0)
    assert np.all(np.diff(grid, axis=0) <= 1e-15)   # nonincreasing in mu
    assert np.all(np.diff(grid, axis=1) >= -1e-15)  # nondecreasing in delta


@pytest.mark.parametrize("factor", [0.37, 4.2])
@pytest.mark.parametrize("shape", [
    Disk(R0=2.0, rho0=0.5),
    Polygon(vertices=((1.0, -0.5), (2.0, -0.8), (2.5, 0.0), (2.0, 0.8),
                      (1.0, 0.5))),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05, -0.02)),
], ids=["disk", "polygon", "fourier"])
def test_certificate_is_scale_invariant(shape, factor):
    # lengths are in units of a, so any scale gives the normalized
    # copy's certificate
    unit = _normalized(shape)
    ref = explicit_bound(geometry_report(unit), unit)
    scaled = unit.scaled(factor)
    cert = explicit_bound(geometry_report(scaled), scaled)
    for name in ("mu", "delta", "universal.we_min", "measured.we_min",
                 "measured.term_curvature", "measured.term_bernoulli",
                 "best"):
        assert_allclose(operator.attrgetter(name)(cert),
                        operator.attrgetter(name)(ref),
                        rtol=1e-12, err_msg=name)


@pytest.mark.parametrize("shape", [
    Disk(R0=1.55, rho0=np.sqrt(2.0)),
    _normalized(Polygon(vertices=((1.0, -0.5), (2.0, -0.8), (2.5, 0.0),
                                  (2.0, 0.8), (1.0, 0.5)))),
    _normalized(FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05, -0.02))),
], ids=["disk", "polygon", "fourier"])
def test_certificate_terms_and_measured_variant(shape):
    rep = geometry_report(shape)
    cert = explicit_bound(rep, shape=shape)
    assert_allclose(cert.universal.we_min,
                    cert.universal.term_curvature
                    + cert.universal.term_bernoulli, rtol=1e-15)
    assert cert.branch == "large-R"
    assert cert.measured.we_min is not None
    # measured terms reproduce their defining formulas
    b = cert.b_star
    s_b = surface_set_length(boundary_nodes(shape), b)
    h, dR = width_height(shape)
    assert_allclose(cert.measured.term_curvature,
                    2 * b * s_b**2 / rep.r_max, rtol=1e-12)
    assert_allclose(cert.measured.term_bernoulli,
                    4 * max(rep.delta, 0.0) * h**2 / (4 * h + 2 * dR),
                    rtol=1e-12)
    assert cert.best >= cert.universal.we_min


@pytest.mark.parametrize("shape, other", [
    (Disk(R0=2.0, rho0=0.5), Disk(R0=2.0, rho0=0.6)),
    (Disk(R0=2.0, rho0=0.5), Ellipse(R0=2.0, m=0.5, n=0.5)),
    (FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05)),
     FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.04))),
    (Polygon(vertices=((1.0, -0.5), (2.0, 0.0), (1.0, 0.5))),
     Polygon(vertices=((1.0, -0.5), (2.1, 0.0), (1.0, 0.5)))),
], ids=["disk", "disk-ellipse", "fourier", "polygon"])
def test_certificate_refuses_another_shape(shape, other):
    # a report's |S(b*)| is measured on the section it checked
    rep = geometry_report(shape)
    with pytest.raises(ValueError, match="not the section"):
        explicit_bound(rep, shape=other)
    # an equal shape read back from its file is the same section
    again = shape_from_dict(shape_to_dict(shape))
    assert again is not shape
    assert explicit_bound(rep, shape=again) == explicit_bound(rep, shape=shape)


@pytest.mark.parametrize("shape", [
    Disk(R0=1.55, rho0=np.sqrt(2.0)),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05, -0.02)),
    Polygon(vertices=((1.0, -0.5), (2.0, -0.8), (2.5, 0.0), (2.0, 0.8),
                      (1.0, 0.5))),
], ids=["disk", "fourier", "polygon"])
def test_certificate_samples_no_boundary(count_calls, shape):
    rep = geometry_report(shape)
    calls = count_calls(shapes, "boundary_nodes")
    explicit_bound(rep, shape=shape)
    assert calls == []


def test_bound_shape_self_consistency():
    # we_min >= c / (mu + mu^3) (1/mu^2 + delta) with c = pi^3/486
    c = np.pi**3 / 486.0
    rng = np.random.default_rng(9)
    for _ in range(200):
        mu = rng.uniform(0.3, 3.0)
        delta = rng.uniform(0.0, 10.0)
        rhs = c / (mu + mu**3) * (1.0 / mu**2 + delta)
        assert universal_bound(mu, delta) >= rhs * (1 - 1e-12)


def test_chain_soundness_random_shapes():
    rng = np.random.default_rng(10)
    for _ in range(60):
        scaled = _normalized(random_smooth_shape(rng))
        rep = geometry_report(scaled)
        R = rep.R
        h, dR = width_height(scaled)
        b = np.pi / (36 * R * R) if R > np.sqrt(np.pi) / 6 else 0.5
        assert 2 * h >= 2 * np.pi / (3 * R) - 1e-10
        bnd = boundary_nodes(scaled)
        assert surface_set_length(bnd, b) >= np.pi / (3 * R) - 1e-10
        assert surface_set_length(bnd, 0.0) <= 2 * h + 6 * R + 1e-10
        assert h * dR >= np.pi - 1e-10
        assert dR <= 3 * R + 1e-10


def test_verdict_logic():
    shape = Disk(R0=1.55, rho0=np.sqrt(2.0))
    rep = geometry_report(shape)
    cert = explicit_bound(rep, shape=shape)
    assert rep.is_thick and cert.is_thick
    assert verdict(cert, cert.best / 2) == RULED_OUT
    assert verdict(cert, 2 * cert.best) == NOT_RULED_OUT
    # thin shapes never ruled out
    thin = dataclasses.replace(cert, is_thick=False)
    assert verdict(thin, cert.best / 2) == NOT_RULED_OUT
    with pytest.raises(ValueError):
        verdict(cert, -1.0)


def test_verdict_monotone_in_we():
    shape = Disk(R0=1.55, rho0=np.sqrt(2.0))
    cert = explicit_bound(geometry_report(shape), shape=shape)
    wes = np.linspace(cert.best * 2.0, cert.best * 1e-3, 50)
    flags = [verdict(cert, we) == RULED_OUT for we in wes]
    # once ruled out, stays ruled out as we decreases
    first = flags.index(True)
    assert all(flags[first:])


def test_norbury_probe_diverges_monotonically():
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    rows = norbury_scaling_probe(eps)
    wemins = [row["we_min"] for row in rows]
    deltas = [row["delta"] for row in rows]
    assert all(np.diff(wemins) > 0)
    assert all(np.diff(deltas) > 0)
    scaled = [row["delta_scaled"] for row in rows]
    assert abs(scaled[-1] - np.pi * np.sqrt(2)) / (np.pi * np.sqrt(2)) < 0.03
    # closed-form delta agrees with quadrature on the actual shapes
    for row in rows:
        rep = geometry_report(row["shape"])
        assert_allclose(rep.delta, row["delta"], rtol=1e-8)


def test_probe_validates_eps():
    with pytest.raises(ValueError):
        norbury_scaling_probe([1.5])
