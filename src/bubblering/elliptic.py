"""Complete elliptic integrals K(k), E(k) via the arithmetic-geometric mean.

Self-contained: no scipy.special.  Besides the plain values, this module
exposes the logarithmic splitting

    K(k) = (1/pi) K(k') ln(1/q) + RK(q)
    E(k) = (1/pi) (K(k') - E(k')) ln(1/q) + RE(q),      q = k'^2 = 1 - k^2,

with RK, RE analytic on [0, 1).  The split isolates the log singularity of
the axisymmetric ring kernel at coincident points, which is what the
Nystrom quadrature needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EllipticPair",
    "ModulusError",
    "complete_elliptic",
    "ellipke",
    "ellipke_complement",
    "ellip_log_split",
    "kc_minus_ec_over_q",
]

_EPS = np.finfo(float).eps


class ModulusError(ValueError):
    """Modulus outside [0, 1); K diverges at k = 1."""


@dataclass(frozen=True)
class EllipticPair:
    """Values of the first and second complete elliptic integrals."""

    k: float
    K: float
    E: float


# Series data.  A[m] = ((1/2)_m / m!)^2 so that K(k) = (pi/2) sum A[m] k^(2m),
# and d[m] = psi(1+m) - psi(1/2+m) gives the complementary-modulus expansion
# K(k) = sum A[m] q^m (ln(1/k') + d[m]) with q = k'^2.
_NSER = 44


def _series_data(n: int = _NSER) -> tuple[np.ndarray, np.ndarray]:
    A = np.empty(n)
    d = np.empty(n)
    A[0] = 1.0
    d[0] = 2.0 * np.log(2.0)
    for m in range(1, n):
        A[m] = A[m - 1] * ((2 * m - 1) / (2 * m)) ** 2
        d[m] = d[m - 1] + 1.0 / m - 2.0 / (2 * m - 1)
    return A, d


_A, _D = _series_data()

# RK(q) = sum A[m] d[m] q^m
_RK_COEF = _A * _D

# RE(q) = q RK + (2/pi)(1-q) K(k') - 2 q (1-q) RK'(q), assembled termwise.
_RE_COEF = np.zeros(_NSER)
for _m in range(_NSER):
    c = 0.0
    if _m >= 1:
        c += _RK_COEF[_m - 1]  # q * RK
    c += _A[_m]  # (2/pi) Kc
    if _m >= 1:
        c -= _A[_m - 1]  # -(2/pi) q Kc
    c -= 2.0 * _m * _RK_COEF[_m]  # -2 q RK'
    if _m >= 1:
        c += 2.0 * (_m - 1) * _RK_COEF[_m - 1]  # +2 q^2 RK'
    _RE_COEF[_m] = c
del _m, c

# (K(k') - E(k'))/q = (pi/2) sum A[m] (2m/(2m-1)) q^(m-1), m >= 1
_KME_COEF = np.array(
    [(np.pi / 2) * _A[m] * (2 * m / (2 * m - 1)) for m in range(1, _NSER)]
)

_SERIES_CUT = 0.35  # series in q below, direct AGM evaluation above


def _polyval_ascending(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Horner in place: the same roundings as out * x + c, no temporaries
    out = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def _agm(b0, csum0):
    """K, E from the AGM started at (a, b) = (1, b0) with b0 = k', and
    csum0 = c_0^2 / 2 = k^2 / 2.

    Terminates when arithmetic and geometric means agree to machine epsilon
    relative; quadratic convergence keeps the count below ~10 in doubles.
    """
    a = np.ones_like(b0)
    b = b0
    csum = csum0  # 2^(n-1) c_n^2, n = 0 term
    pow2 = 1.0
    for _ in range(60):
        c = 0.5 * (a - b)
        an = 0.5 * (a + b)
        b = np.sqrt(a * b)
        a = an
        csum = csum + pow2 * c * c
        pow2 *= 2.0
        if np.all(np.abs(c) <= _EPS * a):
            break
    K = np.pi / (2.0 * a)
    E = K * (1.0 - csum)
    return K, E


def ellipke(k):
    """Vectorized K(k), E(k) for k in [0, 1) by the AGM iteration."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0) or np.any(k >= 1):
        raise ModulusError("modulus must satisfy 0 <= k < 1")
    return _agm(np.sqrt((1.0 - k) * (1.0 + k)), 0.5 * k * k)


def ellipke_complement(q):
    """K(k), E(k) with the modulus given through q = 1 - k^2.

    Seeding the AGM with b0 = sqrt(q) avoids the 1 - k cancellation that
    ruins accuracy when k is rounded to 1; needed by the ring kernel at
    near-coincident points.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0) or np.any(q > 1):
        raise ModulusError("complement must satisfy 0 < q <= 1")
    return _agm(np.sqrt(q), 0.5 * (1.0 - q))


def ellip_log_split(q):
    """Return (Kc, Ec, RK, RE) for q = k'^2 in (0, 1).

    Kc = K(sqrt(q)), Ec = E(sqrt(q)); RK and RE are the regular parts of
    K(k) and E(k) in the splitting documented in the module docstring.
    Small q uses the power series (no cancellation); larger q subtracts the
    directly evaluated log part, which is then well conditioned.
    """
    q = np.asarray(q, dtype=float)
    Kc, Ec = ellipke(np.sqrt(q))
    RK = np.empty_like(q)
    RE = np.empty_like(q)
    small = q < _SERIES_CUT
    if np.any(small):
        qs = q[small]
        RK[small] = _polyval_ascending(_RK_COEF, qs)
        RE[small] = _polyval_ascending(_RE_COEF, qs)
    big = ~small
    if np.any(big):
        qb = q[big]
        L = np.log(1.0 / qb)
        K, E = ellipke_complement(qb)
        RK[big] = K - (1.0 / np.pi) * Kc[big] * L
        RE[big] = E - (1.0 / np.pi) * (Kc[big] - Ec[big]) * L
    return Kc, Ec, RK, RE


def kc_minus_ec_over_q(q, Kc=None, Ec=None):
    """(K(k') - E(k')) / q, stable down to q = 0 (limit pi/4)."""
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    small = q < _SERIES_CUT
    if np.any(small):
        out[small] = _polyval_ascending(_KME_COEF, q[small])
    big = ~small
    if np.any(big):
        if Kc is None or Ec is None:
            Kc, Ec = ellipke(np.sqrt(q))
        out[big] = (np.asarray(Kc)[big] - np.asarray(Ec)[big]) / q[big]
    return out


def complete_elliptic(k: float) -> EllipticPair:
    """K(k) and E(k) for a scalar modulus k in [0, 1).

    Relative error <= 1e-13.  Near k = 1 the second integral is assembled
    from the complementary-modulus expansion to avoid cancellation in the
    AGM sum.
    """
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ModulusError(f"modulus must satisfy 0 <= k < 1, got {k}")
    q = (1.0 - k) * (1.0 + k)
    if q < 1e-4:
        Kc, Ec, RK, RE = ellip_log_split(np.array([q]))
        L = np.log(1.0 / q)
        K = (1.0 / np.pi) * Kc[0] * L + RK[0]
        E = (1.0 / np.pi) * (Kc[0] - Ec[0]) * L + RE[0]
        return EllipticPair(k=k, K=float(K), E=float(E))
    K, E = ellipke(np.array([k]))
    return EllipticPair(k=k, K=float(K[0]), E=float(E[0]))
