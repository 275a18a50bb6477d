"""Logarithmic split of the complete elliptic integrals for the ring kernel.

Self-contained: no scipy.special.  The axisymmetric ring kernel needs K(k)
and E(k) near k = 1, where both carry a log singularity.  With
q = k'^2 = 1 - k^2, `ellip_log_split` gives the split

    K(k) = (1/pi) K(k') ln(1/q) + RK(q)
    E(k) = (1/pi) (K(k') - E(k')) ln(1/q) + RE(q),

with RK, RE analytic on [0, 1); the Nystrom quadrature integrates the log
part exactly.  All five of its values come from one arithmetic-geometric
mean, `_agm`: started at (a, b, c)_0 = (1, k', k) with
c_{n+1} = c_n^2 / (4 a_{n+1}) (Abramowitz & Stegun 17.6), it gives

    K = pi / (2 a_inf),   E = K (1 - k^2/2 - T/2),   T = sum_{n>=1} 2^n c_n^2,

a tail sum T of positive terms.  Started at (1, k, k') (modulus sqrt(q))
it gives Kc = K(k'), Ec = E(k') and, free of cancellation,

    (Kc - Ec) / q = Kc (1 + T/q) / 2          (T/q -> 0 as q -> 0),
    RK = (Kc/pi) sum_{n>=0} 2^(1-n) ln(2 a_{n+1} / a_n),
    RE = (pi/2 + q RK (Kc - Ec)/q) / Kc.

RK is the nome sum: K = (Kc/pi) ln(1/q~), q~ the complementary nome, which
squares at each Landen step, so ln(1/q~) telescopes to ln(1/q) plus a sum
of positive terms (2 a_{n+1}/a_n = 1 + b_n/a_n lies in (1, 2]); after N
converged steps the rest is 2^(2-N) ln 2, and RK(0) = 2 ln 2.  RE is
Legendre's relation E Kc + Ec K - K Kc = pi/2, the log parts cancelling.
The kernel's off-boundary values read K and T of the same `_agm`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ModulusError", "ellip_log_split"]

_EPS = np.finfo(float).eps


class ModulusError(ValueError):
    """Modulus outside [0, 1); K diverges at k = 1."""


def _agm(b0, c0):
    """(K, T, L) of the AGM started at (a, b, c) = (1, b0, c0) = (1, k', k),
    L the nome sum of the module docstring: 2^(2-N) ln(2 P) after N steps
    of P <- P^2 (1 + b_n / a_n).  Stops once c_n <= eps a_n.  P stays below
    2^(2^N), so L is finite for b0 >= 1e-8 (N <= 9); callers with smaller
    b0 ignore it.  In place, on copies of b0 and c0 (0-d input works)."""
    b, c = np.array(b0, dtype=float), np.array(c0, dtype=float)
    a, P, T, t = np.ones_like(b), np.ones_like(b), np.zeros_like(b), b.copy()
    pow2 = 1.0
    with np.errstate(over="ignore"):
        for _ in range(60):
            P *= P
            P *= np.add(np.divide(b, a, out=t), 1.0, out=t)
            np.sqrt(np.multiply(a, b, out=t), out=t)
            a += b
            a *= 0.5
            b, t = t, b
            c *= np.divide(c, np.multiply(a, 4.0, out=t), out=t)
            pow2 *= 2.0
            T += np.multiply(np.multiply(c, c, out=t), pow2, out=t)
            if np.all(c <= _EPS * a):
                break
    return np.pi / (2.0 * a), T, np.log(2.0 * P) * (4.0 / pow2)


def ellip_log_split(q):
    """Return (Kc, Ec, RK, RE, KmE_q) for q = k'^2 in [0, 1).

    Kc = K(sqrt(q)), Ec = E(sqrt(q)), KmE_q = (Kc - Ec)/q (pi/4 at q = 0);
    RK and RE are the regular parts of K(k) and E(k) in the splitting of
    the module docstring, which also gives the one AGM behind all five.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or np.any(q >= 1):
        raise ModulusError("complement must satisfy 0 <= q < 1")
    Kc, T, RK = _agm(np.sqrt(1.0 - q), np.sqrt(q))
    RK *= Kc / np.pi
    kme_q = np.divide(T, q, out=np.zeros_like(q), where=q > 0.0)
    kme_q += 1.0
    kme_q *= 0.5 * Kc
    Ec = Kc * (1.0 - 0.5 * (q + T))
    RE = q * RK * kme_q
    RE += 0.5 * np.pi
    RE /= Kc
    return Kc, Ec, RK, RE, kme_q

