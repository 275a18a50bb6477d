import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bubblering.elliptic import _agm_kt, _log_split
from bubblering.kernel import (
    _modulus,
    _gradient_factors,
    _modulus_factors,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_radius_rejected(bad):
    # a NaN radius used to pass the positivity check and return NaN
    for f in (ring_kernel, ring_kernel_gradient):
        with pytest.raises(ValueError, match="finite positive radii"):
            f((1.0, 0.0), (bad, 0.3))
        with pytest.raises(ValueError, match="finite positive radii"):
            f((bad, 0.0), (np.array([1.0, 2.0]), np.array([0.3, 0.1])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_z_rejected(bad):
    # a NaN z used to give NaN, and an infinite one NaN with a warning
    for f in (ring_kernel, ring_kernel_gradient):
        with pytest.raises(ValueError, match="finite z"):
            f((1.0, bad), (2.0, 0.3))
        with pytest.raises(ValueError, match="finite z"):
            f((1.0, 0.0), (2.0, bad))
        with pytest.raises(ValueError, match="finite z"):
            f((1.0, 0.0), (np.array([1.0, 2.0]), np.array([0.3, bad])))


def _mp_kernel(rb, zb, r, z):
    d1sq = (r + rb) ** 2 + (z - zb) ** 2
    m = 4 * r * rb / d1sq
    k = mpmath.sqrt(m)
    F = (2 / k - k) * mpmath.ellipk(m) - (2 / k) * mpmath.ellipe(m)
    return mpmath.sqrt(r * rb) / (2 * mpmath.pi) * F


def _reference_agm(b0, c0):
    # (K, T) of the AGM from (1, b0, c0), step by step from step 0 and
    # stopped once every member has c_n <= eps a_n: the loop `_agm_kt` must
    # reproduce bit for bit, first step and step count included
    a, b, c = 1.0, np.asarray(b0, dtype=float), np.asarray(c0, dtype=float)
    T, pow2 = 0.0, 1.0
    for _ in range(60):
        a, b = (a + b) * 0.5, np.sqrt(a * b)
        c = c * (c / (a * 4.0))
        pow2 *= 2.0
        T = T + c * c * pow2
        if np.all(c <= np.finfo(float).eps * a):
            break
    return np.pi / (2.0 * a), T


def test_against_mpmath_along_a_line():
    # source (1, 0), targets (1, z): k runs from about 2e-4 (far field) to
    # 1 - 1e-11 (near the filament); derivatives by mpmath's own
    # differentiation of the 40-digit kernel.  z = 1e-9 and 1e-12 put the
    # AGM seed sqrt(q) below 1e-8; their reference needs 60 digits.  The
    # kernel reads K and T of `_agm_kt` alone, and those are bit for bit the
    # step-by-step loop's, so the kernel values are too
    one = mpmath.mpf(1)
    for z in np.concatenate([[1e-12, 1e-9], np.logspace(-5.0, 4.0, 60)]):
        k, q, _, _ = _modulus(1.0, z, 1.0, 0.0)
        assert_array_equal(_agm_kt(np.sqrt(q), k),
                           _reference_agm(np.sqrt(q), k))
        with mpmath.workdps(60 if z < 1e-5 else 40):
            zm = mpmath.mpf(float(z))
            G = _mp_kernel(one, 0, one, zm)
            Gr = mpmath.diff(lambda r: _mp_kernel(one, 0, r, zm), one)
            Gz = mpmath.diff(lambda t: _mp_kernel(one, 0, one, t), zm)
            assert_allclose(ring_kernel((1.0, 0.0), (1.0, z)), float(G),
                            rtol=1e-14)
            gr, gz = ring_kernel_gradient((1.0, 0.0), (1.0, z))
            assert_allclose(gr, float(Gr), rtol=1e-14)
            assert_allclose(gz, float(Gz), rtol=1e-14)


def test_batch_with_a_slow_seed_matches_pointwise():
    # one call along the line of the mpmath test, down to z = 1e-30: every
    # member runs the steps of the slowest seed (sqrt(q) ~ 5e-31), as many
    # as the step-by-step loop, and every value equals that of its own call
    zs = np.concatenate([[1e-30, 1e-15, 1e-12, 1e-9],
                         np.logspace(-5.0, 4.0, 60)])
    target = (np.ones_like(zs), zs)
    k, q, _, _ = _modulus(*target, 1.0, 0.0)
    assert_array_equal(_agm_kt(np.sqrt(q), k), _reference_agm(np.sqrt(q), k))
    G = ring_kernel((1.0, 0.0), target)
    gr, gz = ring_kernel_gradient((1.0, 0.0), target)
    for i, z in enumerate(zs):
        assert_allclose(G[i], ring_kernel((1.0, 0.0), (1.0, z)), rtol=1e-15)
        assert_allclose((gr[i], gz[i]),
                        ring_kernel_gradient((1.0, 0.0), (1.0, z)), rtol=1e-15)


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


def _mp_split_factors(r, z, rb, zb):
    # (Kc, Ec, RK, RE, (Kc - Ec)/q) and (FL, dFL, RKk, REk) at 40 digits,
    # the modulus from the exact point pair
    with mpmath.workdps(40):
        r, z, rb, zb = map(mpmath.mpf, (r, z, rb, zb))
        d1sq = (r + rb) ** 2 + (z - zb) ** 2
        k2, q = 4 * r * rb / d1sq, ((r - rb) ** 2 + (z - zb) ** 2) / d1sq
        k = mpmath.sqrt(k2)
        Kc, Ec = mpmath.ellipk(q), mpmath.ellipe(q)
        L = mpmath.log(1 / q) / mpmath.pi
        RK = mpmath.ellipk(k2) - Kc * L
        RE = mpmath.ellipe(k2) - (Kc - Ec) * L
        kme_q = (Kc - Ec) / q
        FL = (2 * Ec / k - k * Kc) / mpmath.pi
        dFL = ((2 - k2) / k2 * kme_q - 2 * Kc / k2) / mpmath.pi
        return [float(x) for x in (Kc, Ec, RK, RE, kme_q, FL, dFL,
                                   -2 * RK / k2, (2 - k2) * RE / k2)]


def test_modulus_factors_split_keeps_small_k_digits():
    # targets (r, 0) and (1, z) of the source (1, 0): k from 2e-6 to 1.
    # The split reads k from `_modulus`, not sqrt(1 - q), whose lost digits
    # put Kc 1.1e-13 off at k = 0.014 and 1.2e-6 off at k = 2e-6.  Ec =
    # Kc (1 - (q + T)/2) is a difference near 1/Kc at small k, so it and
    # FL and dFL, which read it, carry about Kc eps (29 eps at k = 8e-5).
    # Freg is left out: its two terms cancel to O(k^3) in the far field
    eps = np.finfo(float).eps
    r = np.concatenate([np.logspace(-12, 0, 49)[:-1], np.ones(41)])
    z = np.concatenate([np.zeros(48), np.logspace(-8, 2, 41)])
    k, q, _, _ = _modulus(r, z, 1.0, 0.0)
    assert k.min() < 3e-6 and k.max() == 1.0
    FL, _ = _modulus_factors(k, q)
    dFL, RKk, REk = _gradient_factors(k, q)
    got = np.array([*_log_split(k, q), FL, dFL, RKk, REk])
    want = np.array([_mp_split_factors(*p, 1.0, 0.0) for p in zip(r, z)]).T
    rtol = 6 * eps * np.array([1, 8, 1, 1, 1, 8, 8, 1, 1])
    for name, g, w, tol in zip(
            ["Kc", "Ec", "RK", "RE", "kme_q", "FL", "dFL", "RKk", "REk"],
            got, want, rtol):
        assert_allclose(g, w, rtol=tol, atol=0, err_msg=name)


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
