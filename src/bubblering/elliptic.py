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

The solver knows k and q exactly (it computes both from the point
pair), so the split starts from (k, q), not from q alone: sqrt(1 - q)
would lose the digits of a small k.  `_nome_agm` takes its first AGM step
in closed form, (a, b, c)_1 = ((1 + k)/2, sqrt(k), q / (4 a_1)), and
`_agm` runs the remaining steps, the same number for every member of an
array, the count of its slowest one.  It accumulates the nome sum as the
product P_n = (2 a_n / a_{n-1}) P_{n-1}^2, P_0 = 1, so that RK = (Kc/pi)
4 ln(2 P_N) / 2^N, carried scaled: X_n = P_n / (2^(2^n - 1) A_n), A = 4 a,
starts at X_1 = 1/4 and steps as X_{n+1} = X_n^2 A_n, two multiplications
and no overflow.  `_nome_agm` leaves A = 4 a_N, T and L = 4 ln(2 P_N) /
2^N = RK A / 2; `_log_split` reads the five split values off them, and
the solver its single-layer coefficient (`solver._orbit_coefficients`).
The AGM stops one step before its convergence test would, where the next
step would change a, T and the nome sum only in the last bits.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ModulusError", "ellip_log_split"]

_EPS = float(np.finfo(float).eps)


class ModulusError(ValueError):
    """Modulus outside [0, 1); K diverges at k = 1."""


def _agm(A, B, c, T, X):
    """Finish in place the AGM of the module docstring from its first step,
    with a and b carried times 4 (exact), so c_{n+1} = c_n^2 / A_{n+1}:
    (A, B, c) = (4 a, 4 b, c)_1, T = 2 c_1^2 and X = 1/4.  Leaves A = 4 a_N
    and T in place, and X stepped as X <- X^2 A_n, so that X_N A_N =
    P_N / 2^(2^N - 1), P_N the nome product of the module docstring; it
    lies in [2^(1 - 2^N), 1], a normal float for b_0 >= 1e-8 (N <= 9).
    B and c are scratch.  Returns 2^N.

    Every member runs the steps of the slowest, the one with the largest
    c_1 = (1 - b_0)/2, counted by its scalar recurrence: until c_n <= eps
    a_n, at most 60 steps in all.  The AGM stops one step short of that
    count, at N = count - 1: the skipped step would move a by c_{N+1} <=
    eps a_{N+1} (a_{N+1} = a_N - c_{N+1}), the nome sum 4 ln(2 P_N) / 2^N
    by about 4 eps / 2^(N+1), and T by at most eps/2 of its last term."""
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
    for _ in range(steps - 1):
        np.sqrt(np.multiply(A, B, out=t), out=t)
        X *= X
        X *= A
        A += B
        A *= 0.5
        B, t = t, B
        c *= np.divide(c, A, out=t)
        pow2 *= 2.0
        T += np.multiply(np.multiply(c, c, out=t), pow2, out=t)
    return pow2


def _nome_agm(k, q):
    """(A, T, L) of the AGM from (1, k, sqrt q), the modulus k' = sqrt(q)
    of the exact pair (k, q = 1 - k^2), unchecked: its first step in
    closed form, (4 a, 4 b, c)_1 = (2 (1 + k), 4 sqrt(k), q / (2 (1 + k))),
    then `_agm`.  A = 4 a_N, T the tail sum and L = 4 ln(2 P_N) / 2^N =
    4 ln 2 + 4 ln(X_N A_N) / 2^N, so Kc = 2 pi / A and RK = 2 L / A."""
    A = np.add(k, 1.0, out=np.empty(np.shape(k)))
    A *= 2.0
    B = np.sqrt(k, out=np.empty_like(A))
    B *= 4.0
    c = np.divide(q, A, out=np.empty_like(A))
    T = np.multiply(c, c, out=np.empty_like(A))
    T *= 2.0
    X = np.full_like(A, 0.25)
    pow2 = _agm(A, B, c, T, X)
    L = np.multiply(X, A, out=X)            # 2 P_N = 2^(2^N) X_N A_N
    with np.errstate(over="ignore"):
        np.ldexp(L, int(pow2), out=L)
    np.log(L, out=L)
    L *= 4.0 / pow2
    return A, T, L


def _log_split(k, q):
    """`ellip_log_split` of the modulus k' = sqrt(q) of the exact pair
    (k, q = 1 - k^2), unchecked, from `_nome_agm`."""
    A, T, L = _nome_agm(k, q)
    RK = np.divide(L, A, out=L)
    RK *= 2.0
    hK = np.divide(np.pi, A, out=A)     # Kc / 2
    Ec = np.add(q, T, out=np.empty_like(T))
    np.subtract(2.0, Ec, out=Ec)
    Ec *= hK
    kme_q = np.divide(T, q, out=T, where=q > 0.0)
    kme_q += 1.0
    kme_q *= hK
    Kc = np.multiply(hK, 2.0, out=hK)
    RE = np.multiply(q, RK, out=np.empty_like(RK))
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
