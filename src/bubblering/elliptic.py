"""Complete elliptic integrals K(k), E(k) via the arithmetic-geometric mean.

Self-contained: no scipy.special.  One AGM, (a, b, c)_0 = (1, k', k) with
c_{n+1} = c_n^2 / (4 a_{n+1}) (Abramowitz & Stegun 17.6), gives

    K = pi / (2 a_inf),   E = K (1 - k^2/2 - T/2),   T = sum_{n>=1} 2^n c_n^2,

a tail sum T of positive terms.  The module also exposes the logarithmic
splitting

    K(k) = (1/pi) K(k') ln(1/q) + RK(q)
    E(k) = (1/pi) (K(k') - E(k')) ln(1/q) + RE(q),      q = k'^2 = 1 - k^2,

with RK, RE analytic on [0, 1).  The split isolates the log singularity of
the axisymmetric ring kernel at coincident points, which is what the
Nystrom quadrature needs.  One AGM of modulus sqrt(q) gives Kc = K(k'),
Ec = E(k') and its tail sum T, and with them, free of cancellation,

    (Kc - Ec) / q = Kc (1 + T/q) / 2          (T/q -> 0 as q -> 0),
    RE = (pi/2 + q RK (Kc - Ec)/q) / Kc,

the second from Legendre's relation E Kc + Ec K - K Kc = pi/2, in which
the log parts cancel exactly.  Only RK keeps a power series (small q).
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

_SERIES_CUT = 0.35  # RK: series in q below, direct AGM evaluation above


def _polyval_ascending(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Horner in place: the same roundings as out * x + c, no temporaries
    out = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def _agm(b0, c0):
    """(K, T) of the AGM started at (a, b, c) = (1, b0, c0) = (1, k', k);
    see the module docstring.  Stops once c_n <= eps a_n (< ~10 steps)."""
    a, b, c, T, pow2 = np.ones_like(b0), b0, c0, 0.0, 1.0
    for _ in range(60):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c = c * c / (4.0 * a)
        pow2 *= 2.0
        T = T + pow2 * c * c
        if np.all(c <= _EPS * a):
            break
    return np.pi / (2.0 * a), T


def ellipke(k):
    """Vectorized K(k), E(k) for k in [0, 1) by the AGM iteration."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0) or np.any(k >= 1):
        raise ModulusError("modulus must satisfy 0 <= k < 1")
    K, T = _agm(np.sqrt((1.0 - k) * (1.0 + k)), k)
    return K, K * (1.0 - 0.5 * k * k - 0.5 * T)


def ellipke_complement(q):
    """K(k), E(k) with the modulus given through q = 1 - k^2.

    Seeding the AGM with b0 = sqrt(q) avoids the 1 - k cancellation that
    ruins accuracy when k is rounded to 1; needed by the ring kernel at
    near-coincident points.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0) or np.any(q > 1):
        raise ModulusError("complement must satisfy 0 < q <= 1")
    K, T = _agm(np.sqrt(q), np.sqrt(1.0 - q))
    return K, K * (0.5 * (1.0 + q) - 0.5 * T)


def ellip_log_split(q):
    """Return (Kc, Ec, RK, RE, KmE_q) for q = k'^2 in [0, 1).

    Kc = K(sqrt(q)), Ec = E(sqrt(q)), KmE_q = (Kc - Ec)/q (pi/4 at q = 0);
    RK and RE are the regular parts of K(k) and E(k) in the splitting
    documented in the module docstring.  Kc, Ec and KmE_q come from one AGM
    of modulus sqrt(q), RE from Legendre's relation.  RK takes its power
    series below q = 0.35 (no cancellation) and subtracts the directly
    evaluated log part above, where that is well conditioned.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or np.any(q >= 1):
        raise ModulusError("complement must satisfy 0 <= q < 1")
    Kc, T = _agm(np.sqrt(1.0 - q), np.sqrt(q))
    T_q = np.divide(T, q, out=np.zeros_like(q), where=q > 0.0)
    kme_q = 0.5 * Kc * (1.0 + T_q)
    Ec = Kc * (1.0 - 0.5 * q - 0.5 * T)
    RK = np.empty_like(q)
    small = q < _SERIES_CUT
    if np.any(small):
        RK[small] = _polyval_ascending(_RK_COEF, q[small])
    big = ~small
    if np.any(big):
        qb = q[big]
        K, _ = ellipke_complement(qb)
        RK[big] = K - (1.0 / np.pi) * Kc[big] * np.log(1.0 / qb)
    RE = (0.5 * np.pi + q * RK * kme_q) / Kc
    return Kc, Ec, RK, RE, kme_q


def complete_elliptic(k: float) -> EllipticPair:
    """K(k) and E(k) for a scalar modulus k in [0, 1); relative error
    <= 1e-13 down to k = 1 - 1e-8."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ModulusError(f"modulus must satisfy 0 <= k < 1, got {k}")
    K, E = ellipke(np.array([k]))
    return EllipticPair(k=k, K=float(K[0]), E=float(E[0]))
