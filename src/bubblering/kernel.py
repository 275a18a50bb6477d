"""Stream-function kernel of a circular vortex filament.

G((rb,zb),(r,z)) = sqrt(r rb)/(2 pi) * F(k),
F(k) = (2/k - k) K(k) - (2/k) E(k),
k^2  = 4 r rb / ((r+rb)^2 + (z-zb)^2).

G is the Green's function of -div((1/r) grad psi) in the half plane with
psi = 0 on the axis and decay at infinity; the circulation of the induced
field around the filament equals the strength.  The kernel is
logarithmically singular at coincident points: with q = 1 - k^2,

    F(k) = FL(k, q) ln(1/q) + Freg(k, q),

and both factors are analytic, which is what the Nystrom scheme consumes.
"""

from __future__ import annotations

import numpy as np

from .elliptic import (
    _A,
    ellipke_complement,
    ellip_log_split,
    kc_minus_ec_over_q,
)

__all__ = ["ring_kernel", "ring_kernel_gradient"]

# F(k) = sum f_m k^(2m-1), m >= 1: exact series from the K, E expansions;
# f_1 = 0, so F ~ (pi/16) k^3 at small k (far field).
_F_COEF = np.array(
    [np.pi * _A[m] * (2 * m / (2 * m - 1)) - (np.pi / 2) * _A[m - 1]
     for m in range(1, len(_A))]
)
_SMALL_K = 0.2


def _F_series(k):
    k2 = k * k
    acc = np.zeros_like(k) + _F_COEF[-1]
    for c in _F_COEF[-2::-1]:
        acc = acc * k2 + c
    return acc * k


def _dF_series(k):
    # d/dk sum f_m k^(2m-1) = sum (2m-1) f_m k^(2m-2)
    k2 = k * k
    n = len(_F_COEF)
    acc = np.zeros_like(k) + (2 * n - 1) * _F_COEF[-1]
    for m in range(n - 1, 0, -1):
        acc = acc * k2 + (2 * m - 1) * _F_COEF[m - 1]
    return acc


def _F_direct(k, q):
    K, E = ellipke_complement(q)
    return (2.0 / k - k) * K - (2.0 / k) * E


def _dF_direct(k, q):
    # F'(k) = -2 K / k^2 + (2 - k^2) E / (k^2 q), q = 1 - k^2
    K, E = ellipke_complement(q)
    k2 = k * k
    return (-2.0 * K + (2.0 - k2) * E / q) / k2


def _F(k, q):
    k = np.asarray(k, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.empty_like(k)
    small = k < _SMALL_K
    if np.any(small):
        out[small] = _F_series(k[small])
    if np.any(~small):
        out[~small] = _F_direct(k[~small], q[~small])
    return out


def _dF(k, q):
    k = np.asarray(k, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.empty_like(k)
    small = k < _SMALL_K
    if np.any(small):
        out[small] = _dF_series(k[small])
    if np.any(~small):
        out[~small] = _dF_direct(k[~small], q[~small])
    return out


def _modulus(r, z, rb, zb):
    d1sq = (r + rb) ** 2 + (z - zb) ** 2
    k2 = 4.0 * r * rb / d1sq
    rho2 = (r - rb) ** 2 + (z - zb) ** 2
    q = rho2 / d1sq  # complementary modulus squared, exact: 1 - k^2
    return np.sqrt(np.clip(k2, 0.0, 1.0)), q, d1sq, rho2


def ring_kernel(source, target):
    """Stream-function value at `target` of a unit filament at `source`.

    Both points are (r, z) with positive r; raises for coincident points
    (the kernel is log-singular there; boundary quadrature must use the
    split form instead).
    """
    rb, zb = source
    r, z = target
    if np.any(np.asarray(rb) <= 0) or np.any(np.asarray(r) <= 0):
        raise ValueError("ring kernel needs positive radii")
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    k, q, _, rho2 = _modulus(r, z, rb, zb)
    if np.any(rho2 == 0.0):
        raise ValueError("ring kernel is singular at coincident points")
    val = np.sqrt(r * rb) / (2.0 * np.pi) * _F(k, q)
    return float(val) if val.ndim == 0 else val


def ring_kernel_gradient(source, target):
    """(dG/dr, dG/dz) with respect to the target point."""
    rb, zb = source
    r = np.asarray(target[0], dtype=float)
    z = np.asarray(target[1], dtype=float)
    k, q, d1sq, rho2 = _modulus(r, z, rb, zb)
    if np.any(rho2 == 0.0):
        raise ValueError("ring kernel is singular at coincident points")
    F = _F(k, q)
    dF = _dF(k, q)
    k_r = k * ((rb - r) * (rb + r) + (z - zb) ** 2) / (2.0 * r * d1sq)
    k_z = -k * (z - zb) / d1sq
    pref = np.sqrt(r * rb) / (2.0 * np.pi)
    Gr = np.sqrt(rb / r) / (4.0 * np.pi) * F + pref * dF * k_r
    Gz = pref * dF * k_z
    if Gr.ndim == 0:
        return float(Gr), float(Gz)
    return Gr, Gz


# ---------------------------------------------------------------------------
# split pieces for the Nystrom scheme: pointwise factors only; the solver
# turns them into quadrature matrices

def _modulus_factors(k, q):
    """The kernel factors that depend on a point pair only through its
    modulus (k, q = 1 - k^2): (FL, Freg, dFL, RKk, REk), with dFL the log
    factor of F'(k), RKk = -2 RK / k^2 and REk = (2 - k^2) RE / k^2."""
    Kc, Ec, RK, RE = ellip_log_split(q)
    FL = ((2.0 / k) * Ec - k * Kc) / np.pi
    Freg = (2.0 / k - k) * RK - (2.0 / k) * RE
    kme_q = kc_minus_ec_over_q(q, Kc, Ec)
    k2 = k * k
    dFL = (-2.0 * Kc + (2.0 - k2) * kme_q) / (np.pi * k2)
    return FL, Freg, dFL, -2.0 * RK / k2, (2.0 - k2) * RE / k2


def _split_factors(r, z, rb, zb, nr=None, nz=None, kappa_diag=None,
                   factors=None):
    """One pass over the point pairs for both split kernels.

    Returns (k, q, rho2, FL, Freg, pref, AL, Areg): the single-layer factors
    of `kernel_split` and, when the target normal (nr, nz) is given, the
    normal-derivative factors of `gradient_split` (else AL = Areg = None).
    The modulus and the elliptic log split are computed once for both;
    `factors` supplies the `_modulus_factors` of these pairs instead, when
    the caller already has them.
    """
    k, q, d1sq, rho2 = _modulus(r, z, rb, zb)
    if factors is None:
        factors = _modulus_factors(k, q)
    FL, Freg, dFL, RKk, REk = factors
    pref = np.sqrt(r * rb) / (2.0 * np.pi)
    if nr is None:
        return k, q, rho2, FL, Freg, pref, None, None

    dr_ = r - rb
    dz_ = z - zb
    ndx = nr * dr_ + nz * dz_  # n . (x - y)
    # n . grad k = k (nr rho^2 / (2r) - n.dx) / d1^2  (exact identity)
    ngradk = k * (nr * rho2 / (2.0 * r) - ndx) / d1sq
    # double-layer factor n.dx / rho^2, diagonal limit kappa/2
    with np.errstate(invalid="ignore", divide="ignore"):
        dl = np.where(rho2 > 0.0, ndx / np.where(rho2 > 0.0, rho2, 1.0), 0.0)
    if kappa_diag is not None:
        diag = rho2 == 0.0
        dl = np.where(diag, 0.5 * np.asarray(kappa_diag), dl)
    # n . grad k / q, stable through the diagonal
    ngradk_q = k * (nr / (2.0 * r) - dl)

    pref_f = nr * np.sqrt(rb / r) / (4.0 * np.pi)
    AL = pref_f * FL + pref * dFL * ngradk
    Areg = pref_f * Freg + pref * (RKk * ngradk + REk * ngradk_q)
    return k, q, rho2, FL, Freg, pref, AL, Areg


def kernel_split(r, z, rb, zb):
    """Return (k, q, FL, Freg, pref) with

        G = pref * (FL * ln(1/q) + Freg),   pref = sqrt(r rb)/(2 pi),

    valid for all point pairs including nearly coincident ones (q -> 0).
    """
    k, q, _, FL, Freg, pref, _, _ = _split_factors(r, z, rb, zb)
    return k, q, FL, Freg, pref


def gradient_split(r, z, rb, zb, nr, nz, kappa_diag=None):
    """Split of the normal-derivative kernel n(x) . grad_x G(y, x).

        n . grad G = AL * ln(1/q) + Areg,

    both factors smooth up to the diagonal.  (nr, nz) is the unit normal at
    the target x = (r, z); `kappa_diag` supplies the curvature for the
    diagonal limit of the double-layer factor (x - y) . n / |x - y|^2.
    """
    _, q, rho2, _, _, _, AL, Areg = _split_factors(r, z, rb, zb, nr, nz,
                                                    kappa_diag)
    return q, rho2, AL, Areg
