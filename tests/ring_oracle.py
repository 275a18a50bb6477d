"""Pointwise ring kernel: the tests' oracle for the solver's assembly.

G((rb,zb),(r,z)) = sqrt(r rb)/(2 pi) * F(k) as in `bubblering.kernel`,
evaluated point by point off the boundary.  F and F'(k) = -2K/k^2 +
(2 - k^2) E / (k^2 q) come from one AGM (`_reference_agm`): with
E = K (1 - k^2/2 - T/2) and the AGM tail sum T,

    F(k)  = K T / k,
    F'(k) = K (k^2 (k^2 + T)/2 - T) / (k^2 q).

The O(1/k) parts of K and E cancel in closed form, and T ~ k^4/8, so the
far field F ~ (pi/16) k^3 needs no series.  Near k = 1 the bracket tends
to E/K, so F' keeps a relative error of about K eps.

No command of the package calls these: they check its single-layer
matrix, its normal-derivative reference and its solutions from outside
the split the solver uses.
"""

import numpy as np

from bubblering.kernel import _modulus


def _reference_agm(b0, c0):
    # (K, T) of the AGM from (1, b0, c0), step by step from step 0 and
    # stopped once every member has c_n <= eps a_n
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
    K, T = _reference_agm(np.sqrt(q), k)
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


def evaluate_stream(density, bnd, points):
    """psi at off-boundary points (r, z) from a nodal density on the
    sampled boundary `bnd` (plain trapezoid); raises ValueError as
    `ring_kernel` does."""
    phi = np.asarray(density, dtype=float)
    pr, pz = points
    pr = np.atleast_1d(np.asarray(pr, dtype=float))
    pz = np.atleast_1d(np.asarray(pz, dtype=float))
    vals = ring_kernel((bnd.r, bnd.z), (pr[:, None], pz[:, None]))
    out = vals @ (phi * bnd.weights)
    return out if out.size > 1 else float(out[0])
