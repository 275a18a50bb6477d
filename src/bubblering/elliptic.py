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

The solver knows k and q exactly (`kernel._modulus` computes both from
the point pair), so the split starts from (k, q), not from q alone:
sqrt(1 - q) would lose the digits of a small k.  Its first AGM step is in
closed form, (a, b, c)_1 = ((1 + k)/2, sqrt(k), q / (4 a_1)), and only
the split accumulates the nome sum.  `_agm` runs the remaining steps, the
same number for every member of an array, the count of its slowest one.
The kernel's off-boundary values read K and T of the same `_agm`, started
at (1, k', k).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ModulusError", "ellip_log_split"]

_EPS = float(np.finfo(float).eps)


class ModulusError(ValueError):
    """Modulus outside [0, 1); K diverges at k = 1."""


def _agm(A, B, c, T, P=None):
    """Finish in place the AGM of the module docstring from its first step,
    with a and b carried times 4 (exact), so c_{n+1} = c_n^2 / A_{n+1}:
    (A, B, c) = (4 a, 4 b, c)_1, T = 2 c_1^2 and, for the nome sum, P =
    1 + b_0.  Every member runs the steps of the slowest, the one with the
    largest c_1 = (1 - b_0)/2, counted by its scalar recurrence: until
    c_n <= eps a_n, at most 60 steps in all.  Accumulates P <- P^2 (1 +
    b_n / a_n) when given; P stays below 2^(2^N), so ln(2 P) is finite for
    b_0 >= 1e-8 (N <= 9).  Leaves A = 4 a_N, T and P in place (B is used as
    scratch) and returns 2^N."""
    steps = 0
    if c.size:
        i = np.argmax(c)
        x, y, z = float(A.flat[i]), float(B.flat[i]), float(c.flat[i])
        while steps < 59 and not 4.0 * z <= _EPS * x:
            x, y = (x + y) * 0.5, math.sqrt(x * y)
            z *= z / x
            steps += 1
    t = np.empty_like(A)
    pow2 = 2.0
    with np.errstate(over="ignore"):
        for _ in range(steps):
            np.sqrt(np.multiply(A, B, out=t), out=t)
            if P is not None:      # P^2 (1 + b/a) = P^2 (A + B) / A
                P *= P
                P /= A
            A += B
            if P is not None:
                P *= A
            A *= 0.5
            B, t = t, B
            c *= np.divide(c, A, out=t)
            pow2 *= 2.0
            T += np.multiply(np.multiply(c, c, out=t), pow2, out=t)
    return pow2


def _agm_kt(b0, c0):
    """(K, T) of the AGM from (1, b0, c0) = (1, k', k): the first step
    (a, b, c)_1 = ((1 + b0)/2, sqrt(b0), c0 (c0 / (4 a_1))), then `_agm`,
    and K = pi / (2 a_N)."""
    A = np.add(b0, 1.0, out=np.empty(np.shape(b0)))
    A *= 2.0
    B = np.sqrt(b0, out=np.empty_like(A))
    B *= 4.0
    c = np.divide(c0, A, out=np.empty_like(A))
    c *= c0
    T = np.multiply(c, c, out=np.empty_like(A))
    T *= 2.0
    _agm(A, B, c, T)
    return np.divide(2.0 * np.pi, A, out=A), T


def _log_split(k, q):
    """`ellip_log_split` of the modulus k' = sqrt(q) of the exact pair
    (k, q = 1 - k^2), unchecked.  The AGM from (1, k, sqrt q) takes its
    first step in closed form, (4 a, 4 b, c)_1 = (2 P_1, 4 sqrt(k), q /
    (2 P_1)) with P_1 = 1 + k, and the tail reuses its arrays."""
    P = np.add(k, 1.0, out=np.empty(np.shape(k)))
    A = np.multiply(P, 2.0, out=np.empty_like(P))
    B = np.sqrt(k, out=np.empty_like(P))
    B *= 4.0
    c = np.divide(q, A, out=np.empty_like(P))
    T = np.multiply(c, c, out=np.empty_like(P))
    T *= 2.0
    pow2 = _agm(A, B, c, T, P)
    RK = P                      # (Kc/pi) ln(2 P) 4/2^N, Kc = 2 pi / A
    RK *= 2.0
    np.log(RK, out=RK)
    RK *= 8.0 / pow2
    RK /= A
    hK = np.divide(np.pi, A, out=A)     # Kc / 2
    Ec = np.add(q, T, out=c)
    np.subtract(2.0, Ec, out=Ec)
    Ec *= hK
    kme_q = np.divide(T, q, out=T, where=q > 0.0)
    kme_q += 1.0
    kme_q *= hK
    Kc = np.multiply(hK, 2.0, out=hK)
    RE = np.multiply(q, RK, out=B)
    RE *= kme_q
    RE += 0.5 * np.pi
    RE /= Kc
    return Kc, Ec, RK, RE, kme_q


def ellip_log_split(q):
    """Return (Kc, Ec, RK, RE, KmE_q) for q = k'^2 in [0, 1).

    Kc = K(sqrt(q)), Ec = E(sqrt(q)), KmE_q = (Kc - Ec)/q (pi/4 at q = 0);
    RK and RE are the regular parts of K(k) and E(k) in the splitting of
    the module docstring, which also gives the one AGM behind all five.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or np.any(q >= 1):
        raise ModulusError("complement must satisfy 0 <= q < 1")
    return _log_split(np.sqrt(1.0 - q), q)
