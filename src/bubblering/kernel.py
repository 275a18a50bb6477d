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

Pointwise, F and F'(k) = -2K/k^2 + (2 - k^2) E / (k^2 q) come from one AGM
(`elliptic._agm_kt`): with E = K (1 - k^2/2 - T/2) and the AGM tail sum T,

    F(k)  = K T / k,
    F'(k) = K (k^2 (k^2 + T)/2 - T) / (k^2 q).

The O(1/k) parts of K and E cancel in closed form, and T ~ k^4/8, so the
far field F ~ (pi/16) k^3 needs no series.  Near k = 1 the bracket tends
to E/K, so F' keeps a relative error of about K eps.
"""

from __future__ import annotations

import numpy as np

from .elliptic import _agm_kt, _log_split

__all__ = ["ring_kernel", "ring_kernel_gradient"]


def _modulus(r, z, rb, zb):
    dz2 = (z - zb) ** 2
    d1sq = (r + rb) ** 2 + dz2
    k2 = 4.0 * r * rb / d1sq
    rho2 = (r - rb) ** 2 + dz2
    q = rho2 / d1sq  # complementary modulus squared, exact: 1 - k^2
    return np.sqrt(np.minimum(k2, 1.0)), q, d1sq, rho2


def _pointwise(source, target):
    """(r, z, k, d1^2, F, F') of a filament at `source` seen from `target`,
    F and F' from one AGM (see the module docstring; q seeds it, so k near
    1 keeps its digits).  Raises ValueError for a radius that is not finite
    and positive, a z that is not finite, or coincident points."""
    rb, zb = source
    r = np.asarray(target[0], dtype=float)
    z = np.asarray(target[1], dtype=float)
    if not all(np.all((0 < x) & (x < np.inf)) for x in (np.asarray(rb), r)):
        raise ValueError("ring kernel needs finite positive radii")
    if not (np.all(np.isfinite(zb)) and np.all(np.isfinite(z))):
        raise ValueError("ring kernel needs finite z")
    k, q, d1sq, rho2 = _modulus(r, z, rb, zb)
    if np.any(rho2 == 0.0):
        raise ValueError("ring kernel is singular at coincident points")
    K, T = _agm_kt(np.sqrt(q), k)
    k2 = k * k
    return r, z, k, d1sq, K * T / k, K * (0.5 * k2 * (k2 + T) - T) / (k2 * q)


def ring_kernel(source, target):
    """Stream-function value at `target` of a unit filament at `source`.

    Both points are (r, z) with positive r; raises for coincident points
    (the kernel is log-singular there; boundary quadrature must use the
    split form instead).
    """
    r, _, _, _, F, _ = _pointwise(source, target)
    val = np.sqrt(r * source[0]) / (2.0 * np.pi) * F
    return float(val) if val.ndim == 0 else val


def ring_kernel_gradient(source, target):
    """(dG/dr, dG/dz) with respect to the target point; raises as
    `ring_kernel` does."""
    rb, zb = source
    r, z, k, d1sq, F, dF = _pointwise(source, target)
    k_r = k * ((rb - r) * (rb + r) + (z - zb) ** 2) / (2.0 * r * d1sq)
    k_z = -k * (z - zb) / d1sq
    pref = np.sqrt(r * rb) / (2.0 * np.pi)
    Gr = np.sqrt(rb / r) / (4.0 * np.pi) * F + pref * dF * k_r
    Gz = pref * dF * k_z
    if Gr.ndim == 0:
        return float(Gr), float(Gz)
    return Gr, Gz


# ---------------------------------------------------------------------------
# split pieces for the Nystrom scheme: the solver reads `_modulus` and
# `_modulus_factors` once per orbit of point pairs; `kernel_split` is the
# per-pair reference that the tests compare the assembly against, and
# `gradient_split` the one behind `solver.normal_derivative_matrix`

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
