import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubblering.kernel import (
    gradient_split,
    kernel_split,
    ring_kernel,
    ring_kernel_gradient,
)


def test_symmetry_in_source_and_target():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = (rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        b = (rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        assert_allclose(ring_kernel(a, b), ring_kernel(b, a), rtol=1e-14)


def test_vanishes_on_axis():
    val = ring_kernel((1.0, 0.0), (1e-14, 0.7))
    assert abs(val) < 1e-12


def test_coincident_points_rejected():
    with pytest.raises(ValueError):
        ring_kernel((1.0, 0.2), (1.0, 0.2))
    with pytest.raises(ValueError):
        ring_kernel((-1.0, 0.0), (2.0, 0.0))
    with pytest.raises(ValueError):
        ring_kernel_gradient((1.0, 0.0), (-0.5, 0.3))


def _mp_kernel(rb, zb, r, z):
    d1sq = (r + rb) ** 2 + (z - zb) ** 2
    m = 4 * r * rb / d1sq
    k = mpmath.sqrt(m)
    F = (2 / k - k) * mpmath.ellipk(m) - (2 / k) * mpmath.ellipe(m)
    return mpmath.sqrt(r * rb) / (2 * mpmath.pi) * F


def test_against_mpmath_along_a_line():
    # source (1, 0), targets (1, z): k runs from about 2e-4 (far field) to
    # 1 - 1e-11 (near the filament); derivatives by mpmath's own
    # differentiation of the 40-digit kernel
    one = mpmath.mpf(1)
    with mpmath.workdps(40):
        for z in np.logspace(-5.0, 4.0, 60):
            zm = mpmath.mpf(float(z))
            G = _mp_kernel(one, 0, one, zm)
            Gr = mpmath.diff(lambda r: _mp_kernel(one, 0, r, zm), one)
            Gz = mpmath.diff(lambda t: _mp_kernel(one, 0, one, t), zm)
            assert_allclose(ring_kernel((1.0, 0.0), (1.0, z)), float(G),
                            rtol=1e-14)
            gr, gz = ring_kernel_gradient((1.0, 0.0), (1.0, z))
            assert_allclose(gr, float(Gr), rtol=1e-14)
            assert_allclose(gz, float(Gz), rtol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(30):
        src = (rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        tgt = (rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        if np.hypot(tgt[0] - src[0], tgt[1] - src[1]) < 0.1:
            continue
        gr, gz = ring_kernel_gradient(src, tgt)
        fr = (ring_kernel(src, (tgt[0] + h, tgt[1]))
              - ring_kernel(src, (tgt[0] - h, tgt[1]))) / (2 * h)
        fz = (ring_kernel(src, (tgt[0], tgt[1] + h))
              - ring_kernel(src, (tgt[0], tgt[1] - h))) / (2 * h)
        assert_allclose(gr, fr, rtol=2e-8, atol=1e-10)
        assert_allclose(gz, fz, rtol=2e-8, atol=1e-10)


def test_pde_residual_at_stencil_order():
    # -d/dr((1/r) dpsi/dr) - (1/r) d2psi/dz2 = 0 off the filament
    src = (1.0, 0.0)
    r0, z0 = 2.2, 0.8

    def psi(r, z):
        return ring_kernel(src, (r, z))

    h = 1e-3
    d2r = (psi(r0 + h, z0) - 2 * psi(r0, z0) + psi(r0 - h, z0)) / h**2
    dr = (psi(r0 + h, z0) - psi(r0 - h, z0)) / (2 * h)
    d2z = (psi(r0, z0 + h) - 2 * psi(r0, z0) + psi(r0, z0 - h)) / h**2
    lap = d2r - dr / r0 + d2z  # r * div((1/r) grad psi)
    assert abs(lap) < 1e-6


def test_circulation_around_filament():
    # line integral of (1/r) dpsi/dn around a small circle -> strength
    src = (1.5, 0.3)
    strength = 2.5
    rho = 0.2
    t = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    r = src[0] + rho * np.cos(t)
    z = src[1] + rho * np.sin(t)
    total = 0.0
    for ri, zi, ti in zip(r, z, t):
        gr, gz = ring_kernel_gradient(src, (ri, zi))
        gr, gz = strength * gr, strength * gz
        # outward normal of the circle
        total += (gr * np.cos(ti) + gz * np.sin(ti)) / ri
    total *= rho * 2.0 * np.pi / len(t)
    assert_allclose(-total, strength, rtol=1e-6)


def test_far_field_decay():
    # F ~ pi k^3 / 16: kernel decays like 1/d^3 times sqrt(r rb) growth
    src = (1.0, 0.0)
    v1 = ring_kernel(src, (1.0, 100.0))
    v2 = ring_kernel(src, (1.0, 200.0))
    assert_allclose(v1 / v2, 8.0, rtol=1e-3)


def test_split_reassembles_pointwise():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = rng.uniform(0.5, 3.0)
        z = rng.uniform(-1.0, 1.0)
        rb = r + rng.uniform(-0.3, 0.3)
        zb = z + rng.uniform(-0.3, 0.3)
        if (r - rb) ** 2 + (z - zb) ** 2 < 1e-12:
            continue
        k, q, FL, Freg, pref = kernel_split(
            np.array(r), np.array(z), np.array(rb), np.array(zb))
        val = pref * (FL * np.log(1.0 / q) + Freg)
        assert_allclose(val, ring_kernel((rb, zb), (r, z)), rtol=1e-12)


def test_split_is_accurate_near_diagonal():
    # the split must not lose digits as the points merge
    r, z = 2.0, 0.3
    for d in [1e-3, 1e-5, 1e-7]:
        rb, zb = r + d, z - d
        k, q, FL, Freg, pref = kernel_split(
            np.array(r), np.array(z), np.array(rb), np.array(zb))
        val = pref * (FL * np.log(1.0 / q) + Freg)
        ref = ring_kernel((rb, zb), (r, z))
        assert_allclose(val, ref, rtol=1e-12)


def test_gradient_split_reassembles():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.uniform(0.8, 3.0)
        z = rng.uniform(-1.0, 1.0)
        rb = r + rng.uniform(-0.3, 0.3)
        zb = z + rng.uniform(-0.3, 0.3)
        if (r - rb) ** 2 + (z - zb) ** 2 < 1e-10:
            continue
        th = rng.uniform(0.0, 2.0 * np.pi)
        nr, nz = np.cos(th), np.sin(th)
        q, rho2, AL, Areg = gradient_split(
            np.array(r), np.array(z), np.array(rb), np.array(zb),
            np.array(nr), np.array(nz))
        val = AL * np.log(1.0 / q) + Areg
        gr, gz = ring_kernel_gradient((rb, zb), (r, z))
        assert_allclose(val, nr * gr + nz * gz, rtol=1e-10, atol=1e-13)


def test_gradient_split_diagonal_limits():
    # with curvature supplied, the diagonal values are finite and match the
    # circle formulas: AL = nr/(8 pi),
    # Areg = nr (ln4 - 2)/(4 pi) + (nr/2 - r kappa/2)/(2 pi)
    r, z, nr, nz, kap = 2.0, 0.3, 0.6, 0.8, 1.25
    q, rho2, AL, Areg = gradient_split(
        np.array(r), np.array(z), np.array(r), np.array(z),
        np.array(nr), np.array(nz), kappa_diag=np.array(kap))
    assert_allclose(AL, nr / (8 * np.pi), rtol=1e-13)
    assert_allclose(
        Areg,
        nr * (np.log(4.0) - 2.0) / (4 * np.pi)
        + (nr / 2.0 - r * kap / 2.0) / (2 * np.pi),
        rtol=1e-12,
    )
