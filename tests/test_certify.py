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
from bubblering.shapes import Disk, FourierStar, Polygon, random_smooth_shape


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


def test_negative_delta_clamped():
    assert universal_bound(1.5, -2.0) == universal_bound(1.5, 0.0)


def test_bound_positive_and_monotone_grid():
    mus = np.linspace(0.35, 3.0, 20)
    deltas = np.linspace(0.0, 5.0, 20)
    grid = np.array([[universal_bound(m, d) for d in deltas] for m in mus])
    assert np.all(grid > 0)
    assert np.all(np.diff(grid, axis=0) <= 1e-15)   # nonincreasing in mu
    assert np.all(np.diff(grid, axis=1) >= -1e-15)  # nondecreasing in delta


def test_certificate_requires_normalized_shape():
    rep = geometry_report(Disk(R0=2.0, rho0=0.5))
    with pytest.raises(ValueError):
        explicit_bound(rep)


@pytest.mark.parametrize("shape", [
    Disk(R0=1.55, rho0=np.sqrt(2.0)),
    _normalized(Polygon(vertices=((1.0, -0.5), (2.0, -0.8), (2.5, 0.0),
                                  (2.0, 0.8), (1.0, 0.5)))),
    _normalized(FourierStar(R0=3.0, base=1.0, coeffs=(0.0, 0.05, -0.02))),
], ids=["disk", "polygon", "fourier"])
def test_certificate_terms_and_measured_variant(shape):
    rep = geometry_report(shape)
    cert = explicit_bound(rep, shape=shape)
    assert_allclose(cert.we_min, cert.term_curvature + cert.term_bernoulli,
                    rtol=1e-15)
    assert cert.branch == "large-R"
    assert cert.we_min_measured is not None
    # measured terms reproduce their defining formulas
    b = cert.b_star
    s_b = surface_set_length(shape, b)
    h, dR = width_height(shape)
    assert_allclose(cert.term_curvature_measured,
                    2 * b * s_b**2 / rep.r_max, rtol=1e-12)
    assert_allclose(cert.term_bernoulli_measured,
                    4 * max(rep.delta, 0.0) * h**2 / (4 * h + 2 * dR),
                    rtol=1e-12)
    assert cert.best >= cert.we_min


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
        assert surface_set_length(scaled, b) >= np.pi / (3 * R) - 1e-10
        assert surface_set_length(scaled, 0.0) <= 2 * h + 6 * R + 1e-10
        assert h * dR >= np.pi - 1e-10
        assert dR <= 3 * R + 1e-10


def test_verdict_logic():
    shape = Disk(R0=1.55, rho0=np.sqrt(2.0))
    rep = geometry_report(shape)
    cert = explicit_bound(rep, shape=shape)
    assert rep.is_thick
    assert verdict(cert, cert.best / 2, rep.is_thick) == RULED_OUT
    assert verdict(cert, 2 * cert.best, rep.is_thick) == NOT_RULED_OUT
    # thin shapes never ruled out
    assert verdict(cert, cert.best / 2, False) == NOT_RULED_OUT
    with pytest.raises(ValueError):
        verdict(cert, -1.0, True)


def test_verdict_monotone_in_we():
    shape = Disk(R0=1.55, rho0=np.sqrt(2.0))
    cert = explicit_bound(geometry_report(shape), shape=shape)
    wes = np.linspace(cert.best * 2.0, cert.best * 1e-3, 50)
    flags = [verdict(cert, we, True) == RULED_OUT for we in wes]
    # once ruled out, stays ruled out as we decreases
    first = flags.index(True)
    assert all(flags[first:])


def test_norbury_probe_diverges_monotonically():
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    rows = norbury_scaling_probe(1.0, eps)
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
        norbury_scaling_probe(1.0, [1.5])
