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
No solve calls this module's split: the solver takes its coefficient
straight from the AGM (`solver._orbit_coefficients`).  `_modulus_factors`
and `kernel_split` are the per-pair references that the tests compare the
assembly against, and `gradient_split` the one behind
`solver.normal_derivative_matrix`.
"""

from __future__ import annotations

import numpy as np

from .elliptic import _log_split

__all__ = ["kernel_split", "gradient_split"]


def _modulus(r, z, rb, zb):
    dz2 = (z - zb) ** 2
    d1sq = (r + rb) ** 2 + dz2
    k2 = 4.0 * r * rb / d1sq
    rho2 = (r - rb) ** 2 + dz2
    q = rho2 / d1sq  # complementary modulus squared, exact: 1 - k^2
    return np.sqrt(np.minimum(k2, 1.0)), q, d1sq, rho2


def _modulus_factors(k, q):
    """(FL, Freg): the factors of the kernel split that depend on a point
    pair only through its modulus (k, q = 1 - k^2)."""
    Kc, Ec, RK, RE, _ = _log_split(k, q)
    ik = np.divide(2.0, k, out=np.empty_like(Kc))      # 2 / k
    FL = np.multiply(Ec, ik, out=Ec)
    FL -= np.multiply(k, Kc, out=Kc)
    FL /= np.pi
    Freg = np.subtract(ik, k, out=Kc)
    Freg *= RK
    Freg -= np.multiply(ik, RE, out=RE)
    return FL, Freg


def _gradient_factors(k, q):
    """(dFL, RKk, REk) of the modulus (k, q): dFL the log factor of F'(k),
    RKk = -2 RK / k^2 and REk = (2 - k^2) RE / k^2."""
    Kc, _, RK, RE, kme_q = _log_split(k, q)
    ik2 = (1.0 / k) ** 2
    c = 2.0 * ik2 - 1.0         # (2 - k^2) / k^2
    return (kme_q * c - 2.0 * ik2 * Kc) / np.pi, -(2.0 * ik2) * RK, c * RE


def kernel_split(r, z, rb, zb):
    """Return (k, q, FL, Freg, pref) with

        G = pref * (FL * ln(1/q) + Freg),   pref = sqrt(r rb)/(2 pi),

    valid for all point pairs including nearly coincident ones (q -> 0).
    """
    k, q, _, _ = _modulus(r, z, rb, zb)
    FL, Freg = _modulus_factors(k, q)
    return k, q, FL, Freg, np.sqrt(r * rb) / (2.0 * np.pi)


def gradient_split(r, z, rb, zb, nr, nz, kappa_diag=None):
    """Split of the normal-derivative kernel n(x) . grad_x G(y, x).

        n . grad G = AL * ln(1/q) + Areg,

    both factors smooth up to the diagonal.  (nr, nz) is the unit normal at
    the target x = (r, z); `kappa_diag` supplies the curvature for the
    diagonal limit of the double-layer factor (x - y) . n / |x - y|^2.
    Returns (q, rho2, AL, Areg), rho2 = |x - y|^2.
    """
    k, q, d1sq, rho2 = _modulus(r, z, rb, zb)
    FL, Freg = _modulus_factors(k, q)
    dFL, RKk, REk = _gradient_factors(k, q)
    pref = np.sqrt(r * rb) / (2.0 * np.pi)
    ndx = nr * (r - rb) + nz * (z - zb)  # n . (x - y)
    # n . grad k = k (nr rho^2 / (2r) - n.dx) / d1^2  (exact identity)
    ngradk = k * (nr * rho2 / (2.0 * r) - ndx) / d1sq
    # double-layer factor n.dx / rho^2, diagonal limit kappa/2
    with np.errstate(invalid="ignore", divide="ignore"):
        dl = np.where(rho2 > 0.0, ndx / np.where(rho2 > 0.0, rho2, 1.0), 0.0)
    if kappa_diag is not None:
        dl = np.where(rho2 == 0.0, 0.5 * np.asarray(kappa_diag), dl)
    # n . grad k / q, stable through the diagonal
    ngradk_q = k * (nr / (2.0 * r) - dl)

    pref_f = nr * np.sqrt(rb / r) / (4.0 * np.pi)
    AL = pref_f * FL + pref * dFL * ngradk
    Areg = pref_f * Freg + pref * (RKk * ngradk + REk * ngradk_q)
    return q, rho2, AL, Areg
