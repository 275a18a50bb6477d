import numpy as np
import pytest
from numpy.testing import assert_allclose

import mpmath

from bubblering.elliptic import ModulusError, _agm_kt, ellip_log_split


def mp_KE(k):
    # high working precision: near k = 1 the integrals are ill conditioned
    # in m = k^2 and the oracle itself needs guard digits
    with mpmath.workdps(40):
        m = mpmath.mpf(k) ** 2
        return float(mpmath.ellipk(m)), float(mpmath.ellipe(m))


def mp_KE_from_q(q):
    with mpmath.workdps(40):
        m = 1 - mpmath.mpf(q)
        return float(mpmath.ellipk(m)), float(mpmath.ellipe(m))


def agm_KE(k):
    # K = K of the AGM seeded (k', k), E = K (1 - k^2/2 - T/2)
    k = np.asarray(k, dtype=float)
    K, T = _agm_kt(np.sqrt((1.0 - k) * (1.0 + k)), k)
    return K, K * (1.0 - 0.5 * k * k - 0.5 * T)


def test_special_values():
    K, E = agm_KE(0.0)
    assert_allclose(K, np.pi / 2, rtol=1e-15)
    assert_allclose(E, np.pi / 2, rtol=1e-15)


def test_against_mpmath_grid():
    ks = np.concatenate([
        np.linspace(0.0, 0.99, 34),
        1.0 - np.logspace(-2, -8, 13),
    ])
    for k in ks:
        Km, Em = mp_KE(k)
        K, E = agm_KE(k)
        assert_allclose(K, Km, rtol=5e-14)
        assert_allclose(E, Em, rtol=5e-14)


def test_legendre_relation_random():
    # K(k) E(k') + E(k) K(k') - K(k) K(k') = pi/2, for 1000 random moduli
    rng = np.random.default_rng(7)
    k = rng.uniform(1e-6, 1.0 - 1e-6, 1000)
    kp = np.sqrt((1.0 - k) * (1.0 + k))
    K, E = agm_KE(k)
    Kp, Ep = agm_KE(kp)
    lhs = K * Ep + E * Kp - K * Kp
    assert_allclose(lhs, np.pi / 2, rtol=1e-12)


def test_modulus_validation():
    with pytest.raises(ModulusError):
        ellip_log_split(np.array([0.5, 1.0]))
    with pytest.raises(ModulusError):
        ellip_log_split(np.array([-1e-3]))


def test_complement_form_accuracy():
    # the seed of kernel._pointwise: b0 = sqrt(q) keeps the digits that
    # 1 - k loses when k is rounded to 1
    for q in [1e-14, 1e-10, 1e-6, 1e-3, 0.5, 1.0]:
        K, T = _agm_kt(np.sqrt(q), np.sqrt(1.0 - q))
        E = K * (0.5 * (1.0 + q) - 0.5 * T)
        Km, Em = mp_KE_from_q(q)
        assert_allclose(K, Km, rtol=1e-13)
        assert_allclose(E, Em, rtol=1e-13)


def test_log_split_reassembles():
    # K = (1/pi) Kc ln(1/q) + RK and the E analogue, against mpmath with
    # the modulus defined exactly through q
    for q in np.logspace(-15, -0.05, 40):
        Kc, Ec, RK, RE, _ = ellip_log_split(np.array([q]))
        L = np.log(1.0 / q)
        K = Kc[0] / np.pi * L + RK[0]
        E = (Kc[0] - Ec[0]) / np.pi * L + RE[0]
        Km, Em = mp_KE_from_q(q)
        assert_allclose(K, Km, rtol=2e-13)
        assert_allclose(E, Em, rtol=2e-13)


def test_split_pieces_are_smooth_at_zero():
    Kc, Ec, RK, RE, _ = ellip_log_split(np.array([0.0]))
    assert_allclose(Kc[0], np.pi / 2, rtol=1e-15)
    assert_allclose(Ec[0], np.pi / 2, rtol=1e-15)
    assert_allclose(RK[0], 2.0 * np.log(2.0), rtol=1e-14)
    assert_allclose(RE[0], 1.0, rtol=1e-14)


def test_kc_minus_ec_over_q_limit():
    vals = ellip_log_split(np.array([0.0, 1e-12, 1e-4]))[4]
    assert_allclose(vals[0], np.pi / 4, rtol=1e-15)
    assert_allclose(vals[1], np.pi / 4, rtol=1e-10)
    # continuity across q = 0.35
    lo = ellip_log_split(np.array([0.3499]))[4]
    hi = ellip_log_split(np.array([0.3501]))[4]
    assert abs(lo[0] - hi[0]) < 1e-3 * abs(lo[0])


def _mp_split(q):
    # ((K(k') - E(k'))/q, RK, RE) at 40 digits, k'^2 = q, with
    # RK = K(k) - K(k') ln(1/q) / pi, RE = E(k) - (K(k') - E(k')) ln(1/q) / pi
    if q == 0.0:
        return np.pi / 4, 2.0 * np.log(2.0), 1.0
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        Kc, Ec = mpmath.ellipk(q), mpmath.ellipe(q)
        L = mpmath.log(1 / q) / mpmath.pi
        return (float((Kc - Ec) / q), float(mpmath.ellipk(1 - q) - Kc * L),
                float(mpmath.ellipe(1 - q) - (Kc - Ec) * L))


def test_tail_sum_and_legendre_identities_against_mpmath():
    # (K(k') - E(k'))/q from the AGM tail sum, RK from the AGM's nome sum
    # and RE from Legendre's relation, at q = 0 and 300 log-spaced points
    qs = np.concatenate([[0.0], np.logspace(-14, np.log10(0.9), 300)])
    _, _, RK, RE, kme_q = ellip_log_split(qs)
    want = np.array([_mp_split(q) for q in qs])
    assert_allclose(kme_q, want[:, 0], rtol=1e-15)
    assert_allclose(RK, want[:, 1], rtol=1e-15)
    assert_allclose(RE, want[:, 2], rtol=1e-15)


def test_regular_parts_near_q_one_against_mpmath():
    # 60 points in (0.9, 1 - 1e-15]: RK ~ pi/2 there while the nome sum
    # that gives it tends to 0, so its absolute error of a few eps shows
    qs = 1.0 - np.logspace(-1, -15, 61)[1:]
    _, _, RK, RE, kme_q = ellip_log_split(qs)
    want = np.array([_mp_split(q) for q in qs])
    assert_allclose(kme_q, want[:, 0], rtol=5e-15)
    assert_allclose(RK, want[:, 1], rtol=5e-15)
    assert_allclose(RE, want[:, 2], rtol=5e-15)

