"""Nystrom solver for the exterior axisymmetric stream-function problem.

The stream function is represented as a single layer over the boundary,

    psi(x) = int_bdry G(y, x) phi(y) ds(y),

with the ring kernel G.  The Dirichlet data is psi = W r^2/2 + gamma on the
boundary, with the flux constant gamma an extra unknown fixed by the
circulation normalization  int (1/r) dpsi/dn ds = -1  (beta = 1, a = 1).

Discretization: uniform parameter grid, trapezoidal rule for the smooth
kernel part, and the spectral quadrature of Martensen/Kussmaul type for the
logarithmic part ln(4 sin^2((t - tau)/2)); the normal derivative follows
from the conormal jump relation of the single layer, with the principal
value handled by the same splitting.

Assembly is one pass: the modulus, the elliptic log split and the log
factor give the rows of both the single-layer and the normal-derivative
matrix.  The factors that depend only on the modulus are evaluated once per
orbit of the point pairs under reciprocity (i, j) <-> (j, i) and the mirror
(i, j) <-> (n - i, n - j), about a quarter of all pairs, and gathered; the
terms with the target normal are evaluated per pair.  The log quadrature
weights and the orbit map are cached per n.  `solve_dirichlet` uses the
z -> -z mirror symmetry of every section: it assembles only the rows of
nodes 0..n/2, folds column n - j onto column j and solves the bordered
system of n/2 + 1 densities plus gamma, then unfolds the results to all n
nodes.  The system is solved by LU; `condition_number` is the 1-norm
condition estimate of LAPACK's dgecon algorithm, taken from that
factorization, for the folded bordered system, and the solve is refused
above MAX_CONDITION.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.linalg import lu_factor, lu_solve

from .kernel import _modulus, _modulus_factors, _split_factors, ring_kernel
from .shapes import (DEFAULT_RESOLUTION, CrossSection, Polygon,
                     SmoothBoundary, boundary_nodes)

__all__ = [
    "SolverError",
    "BoundarySolution",
    "ResidualReport",
    "solve_dirichlet",
    "dynamic_residual",
    "optimal_W_lam",
    "evaluate_stream",
    "log_quadrature_weights",
    "SOLVER_TOL",
]

SOLVER_TOL = 1e-8
MAX_CONDITION = 1e12


class SolverError(RuntimeError):
    """Boundary-integral solve failed (conditioning or convergence)."""


@dataclass
class BoundarySolution:
    """Single-layer density and boundary traces of one solve."""

    shape: CrossSection
    boundary: SmoothBoundary
    density: np.ndarray
    psi_trace: np.ndarray
    dn_psi: np.ndarray       # exterior normal derivative of psi at the nodes
    W: float
    gamma: float
    circulation: float       # -int (1/r) dpsi/dn ds, target 1
    condition_number: float
    resolution: int

    def to_dict(self) -> dict:
        return {
            "W": self.W,
            "gamma": self.gamma,
            "circulation": self.circulation,
            "condition_number": self.condition_number,
            "resolution": self.resolution,
            "density": self.density.tolist(),
            "psi_trace": self.psi_trace.tolist(),
            "dn_psi": self.dn_psi.tolist(),
        }


@dataclass
class ResidualReport:
    """Defect of the dynamic boundary condition
    2H + lambda = We ((1/r) dpsi/dn - W n.e_r)^2."""

    dyn_residual_l2: float
    dyn_residual_max: float
    identity_gap: float          # |integral of the pointwise defect|
    identity_gap_rel: float      # same, relative to the total-H scale
    max_principle_violation: float
    lam: float
    we: float

    def to_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=8)
def log_quadrature_weights(n_nodes: int) -> np.ndarray:
    """Weights R_d, d = |i - j|, of the spectral rule

        int_0^2pi ln(4 sin^2((t_i - s)/2)) f(s) ds ~ sum_j R_|i-j| f(t_j)

    on the uniform grid t_j = 2 pi j / n (n even).  Cached per n; the
    returned array is read-only."""
    if n_nodes % 2:
        raise ValueError("node count must be even")
    half = n_nodes // 2
    j = np.arange(n_nodes)
    t = 2.0 * np.pi * j / n_nodes
    m = np.arange(1, half)
    R = -(4.0 * np.pi / n_nodes) * (
        np.cos(np.outer(t, m)) @ (1.0 / m) + ((-1.0) ** j) / (2.0 * half)
    )
    R.flags.writeable = False
    return R


@lru_cache(maxsize=8)
def _pair_orbits(n: int, n_rows: int):
    """Orbits of the node pairs under reciprocity (i, j) <-> (j, i) and the
    mirror (i, j) <-> (n - i, n - j) mod n, which keep the modulus q (the
    kernel is symmetric in its points, node n - i mirrors node i).

    Representatives: (0, d) for 0 <= d <= n/2 and (a, a + d) for
    1 <= a <= n/2, 0 <= d <= n - 2a, numbered in that order.  The pair
    (i, j) has a = min(i, j, n - i, n - j) and d = |i - j| (min(d, n - d)
    when a = 0).  Returns (ra, rb, idx, orbit): the representatives' node
    indices and, for rows 0..n_rows-1 and all n columns, idx = |i - j| and
    the number of each pair's representative.  Read-only, cached per
    (n, n_rows).
    """
    half = n // 2
    counts = np.concatenate([[half + 1], n + 1 - 2 * np.arange(1, half + 1)])
    start = np.concatenate([[0], np.cumsum(counts[:-1])])
    ra = np.repeat(np.arange(half + 1), counts)
    rb = np.arange(ra.size) - start[ra] + ra
    node = np.arange(n)
    fold = np.minimum(node, n - node)
    a = np.minimum(fold[:n_rows, None], fold[None, :])
    idx = np.abs(node[:n_rows, None] - node[None, :])
    orbit = np.where(a == 0, np.minimum(idx, n - idx), start[a] + idx)
    for arr in (ra, rb, idx, orbit):
        arr.flags.writeable = False
    return ra, rb, idx, orbit


def _log_factor(bnd: SmoothBoundary, q: np.ndarray, rows: np.ndarray,
                idx: np.ndarray) -> np.ndarray:
    """ln(q / (4 sin^2((t_i - t_j)/2))) on target rows `rows`, idx = |i - j|,
    with the diagonal limit ln(speed^2 / (4 r^2))."""
    s2 = 4.0 * np.sin(np.pi * np.arange(bnd.n_nodes) / bnd.n_nodes) ** 2
    s2[0] = 1.0
    ratio = q / s2[idx]
    ratio[np.arange(rows.size), rows] = (bnd.speed[rows]**2
                                         / (4.0 * bnd.r[rows]**2))
    return np.log(ratio)


def _assemble(bnd: SmoothBoundary,
              n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Target rows 0..n_rows-1 (all n columns) of the single-layer matrix S
    and the principal-value normal-derivative matrix A, from one pass over
    the kernel factors: psi = S phi, dpsi/dn = -r phi / 2 + A phi.

    The factors that depend only on the modulus, the elliptic ones, are
    evaluated once per orbit of `_pair_orbits` and gathered; the terms
    with the target normal are evaluated per pair."""
    n = bnd.n_nodes
    rows = np.arange(n_rows)
    ra, rb, idx, orbit = _pair_orbits(n, n_rows)
    k, q, _, _ = _modulus(bnd.r[ra], bnd.z[ra], bnd.r[rb], bnd.z[rb])
    factors = [f[orbit] for f in _modulus_factors(k, q)]
    _, q, _, FL, Freg, pref, AL, Areg = _split_factors(
        bnd.r[rows, None], bnd.z[rows, None], bnd.r, bnd.z,
        bnd.normal_r[rows, None], bnd.normal_z[rows, None],
        kappa_diag=bnd.curvature[rows, None], factors=factors)
    h = 2.0 * np.pi / n
    # log weights R_|i-j| plus the trapezoid on ln(q / 4 sin^2): both
    # kernels carry the same log factor
    Rlog = log_quadrature_weights(n)[idx] + h * _log_factor(bnd, q, rows, idx)
    S = (h * Freg - Rlog * FL) * (pref * bnd.speed)
    A = (h * Areg - Rlog * AL) * bnd.speed
    return S, A


def single_layer_matrix(bnd: SmoothBoundary) -> np.ndarray:
    """Matrix mapping nodal densities to psi at the nodes."""
    return _assemble(bnd, bnd.n_nodes)[0]


def normal_derivative_matrix(bnd: SmoothBoundary) -> np.ndarray:
    """Matrix for the principal-value part of dpsi/dn on the exterior side;
    the full exterior derivative is  -r phi / 2 + (this matrix) phi."""
    return _assemble(bnd, bnd.n_nodes)[1]


def _inverse_norm1(lu, n: int) -> float:
    """Estimate of ||M^-1||_1 from the LU factors of M in O(n^2).

    Hager's method with Higham's refinements, the algorithm of LAPACK's
    dgecon.  It is written out here because dgecon's result changes in the
    last bits with the alignment of its internal work arrays, which differs
    from one process to the next; this keeps outputs byte-identical.
    """
    x = np.full(n, 1.0 / n)
    est = 0.0
    for it in range(5):
        y = lu_solve(lu, x, check_finite=False)
        y_norm = float(np.sum(np.abs(y)))
        if it and not y_norm > est:
            break
        est = y_norm
        z = lu_solve(lu, np.where(y >= 0.0, 1.0, -1.0), trans=1,
                     check_finite=False)
        j = int(np.argmax(np.abs(z)))
        if it and not abs(z[j]) > z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    # alternating test vector: guards against the estimator's blind spots
    i = np.arange(n)
    alt = np.where(i % 2, -1.0, 1.0) * (1.0 + i / max(n - 1, 1))
    alt_norm = float(np.sum(np.abs(lu_solve(lu, alt, check_finite=False))))
    return max(est, 2.0 * alt_norm / (3.0 * n))


def _first_kind_solve(mat: np.ndarray, rhs: np.ndarray):
    """LU solve, gated on the 1-norm condition estimate of `mat`."""
    lu = lu_factor(mat, check_finite=False)
    cond = np.linalg.norm(mat, 1) * _inverse_norm1(lu, mat.shape[0])
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SolverError(f"boundary system ill-conditioned: cond = {cond:.3g}")
    return lu_solve(lu, rhs, check_finite=False), cond


def solve_first_kind(shape: CrossSection, dirichlet_values,
                     resolution: int = DEFAULT_RESOLUTION):
    """Density of the single layer matching given Dirichlet boundary values.

    Building block for manufactured-solution tests; no flux constant, no
    circulation normalization.
    """
    bnd = _smooth_or_raise(shape, resolution)
    S = single_layer_matrix(bnd)
    phi, cond = _first_kind_solve(S, np.asarray(dirichlet_values, dtype=float))
    return phi, bnd, cond


def _smooth_or_raise(shape, resolution) -> SmoothBoundary:
    if isinstance(shape, Polygon):
        raise SolverError("the stream solver needs a smooth boundary; "
                          "polygons carry no pointwise curvature")
    return boundary_nodes(shape, resolution)


def _solve_affine(shape: CrossSection, resolution):
    """One LU, two right-hand sides: the circulation column (rhs[m] = -1)
    and the unit-W column (rhs[:m] = r^2/2).  Returns (bnd, cond, cols),
    cols = (density, psi_trace, dn_psi, gamma), each with a last axis
    [W = 0, per unit W], since the solution is affine in W."""
    bnd = _smooth_or_raise(shape, resolution)
    n = bnd.n_nodes
    half = n // 2
    m = half + 1
    rows = np.arange(m)
    S, A = _assemble(bnd, m)
    # fold column n - j onto column j, j = 1 .. n/2 - 1
    S = S[:, :m] + np.pad(S[:, :half:-1], ((0, 0), (1, 1)))
    A = A[:, :m] + np.pad(A[:, :half:-1], ((0, 0), (1, 1)))
    mult = np.full(m, 2.0)
    mult[[0, half]] = 1.0
    r = bnd.r[rows]
    w = mult * bnd.weights[rows]

    # (1/r) dpsi/dn = -phi/2 + (1/r) A phi; circulation row in phi:
    sys = np.zeros((m + 1, m + 1))
    sys[:m, :m] = S
    sys[:m, m] = -1.0
    sys[m, :m] = -0.5 * w + (w / r) @ A
    rhs = np.zeros((m + 1, 2))
    rhs[m, 0] = -1.0
    rhs[:m, 1] = 0.5 * r**2
    sol, cond = _first_kind_solve(sys, rhs)
    phi = sol[:m]

    dn_psi = -r[:, None] * phi / 2.0 + A @ phi
    mirror = np.minimum(np.arange(n), n - np.arange(n))
    return bnd, cond, (phi[mirror], (S @ phi)[mirror], dn_psi[mirror],
                       sol[m])


def _solution_at(shape, bnd, cond, cols, W: float) -> BoundarySolution:
    phi, psi_trace, dn_psi, gamma = (c[..., 0] + W * c[..., 1] for c in cols)
    circulation = -float(np.sum(bnd.weights / bnd.r * dn_psi))
    return BoundarySolution(
        shape=shape, boundary=bnd, density=phi, psi_trace=psi_trace,
        dn_psi=dn_psi, W=float(W), gamma=float(gamma),
        circulation=circulation, condition_number=float(cond),
        resolution=bnd.n_nodes,
    )


def solve_dirichlet(shape: CrossSection, W: float,
                    resolution: int = DEFAULT_RESOLUTION) -> BoundarySolution:
    """Solve the exterior problem with data W r^2/2 + gamma on the boundary.

    gamma is determined jointly with the density by appending the discrete
    circulation constraint  sum w_i (1/r_i) dpsi/dn_i = -1, evaluated by
    the same jump-relation quadrature that reports dn_psi.

    The section is symmetric under z -> -z (`boundary_nodes` checks it), so
    node n - j mirrors node j and the density and both traces are even in
    it.  Only the rows of the independent nodes 0..n/2 are assembled;
    column n - j is folded onto column j, and the circulation row weights
    each node by its multiplicity (1 for nodes 0 and n/2, else 2).  The
    factorization is solved for W = 0 and for unit W, and the solution is
    their combination for the requested W.
    """
    if not np.isfinite(W):
        raise ValueError("translation speed W must be finite")
    return _solution_at(shape, *_solve_affine(shape, resolution), W)


def evaluate_stream(sol_or_density, bnd: SmoothBoundary | None = None,
                    points=None):
    """psi at off-boundary points from a nodal density (plain trapezoid)."""
    if isinstance(sol_or_density, BoundarySolution):
        phi = sol_or_density.density
        bnd = sol_or_density.boundary
    else:
        phi = np.asarray(sol_or_density, dtype=float)
    pr, pz = points
    pr = np.atleast_1d(np.asarray(pr, dtype=float))
    pz = np.atleast_1d(np.asarray(pz, dtype=float))
    vals = ring_kernel((bnd.r, bnd.z), (pr[:, None], pz[:, None]))
    out = vals @ (phi * bnd.weights)
    return out if out.size > 1 else float(out[0])


def dynamic_residual(shape: CrossSection, sol: BoundarySolution,
                     we: float, lam: float) -> ResidualReport:
    """Measure the defect of 2H + lam - We ((1/r) dpsi/dn - W n.e_r)^2.

    Reports the L2 and sup norms of the pointwise defect, the gap of its
    boundary integral, and the integrated violation of the sign condition
    dPsi/dn <= 0 for the co-moving stream function.
    """
    if we <= 0:
        raise ValueError("Weber number must be positive")
    if isinstance(shape, Polygon):
        raise SolverError("dynamic residual needs pointwise curvature; "
                          "polygons are geometry-only")
    bnd = sol.boundary
    H = bnd.curvature + bnd.normal_r / bnd.r
    flow = sol.dn_psi / bnd.r - sol.W * bnd.normal_r
    defect = 2.0 * H + lam - we * flow**2
    w = bnd.weights
    l2 = float(np.sqrt(np.sum(defect**2 * w)))
    mx = float(np.max(np.abs(defect)))
    gap = float(abs(np.sum(defect * w)))
    scale = max(abs(float(np.sum(H * w))), 1e-30)
    dn_Psi = sol.dn_psi - sol.W * bnd.r * bnd.normal_r
    viol = float(np.sum(np.maximum(dn_Psi, 0.0) * w))
    return ResidualReport(
        dyn_residual_l2=l2,
        dyn_residual_max=mx,
        identity_gap=gap,
        identity_gap_rel=gap / scale,
        max_principle_violation=viol,
        lam=float(lam),
        we=float(we),
    )


def optimal_W_lam(shape: CrossSection, we: float,
                  resolution: int = DEFAULT_RESOLUTION):
    """(solution, W, lam): the W and lam >= 0 minimizing dyn_residual_l2 of
    one shape, exactly, from one factorization (variable projection).

    The surface flow a + W b is affine in W, so g = 2H - We flow^2 is
    quadratic in W.  For fixed W the best lam is max(0, -<g>_w), <.>_w the
    weighted boundary mean, and the squared residual sum w g^2 - (sum w)
    lam^2 is a quartic in W on either side of the roots of <g>_w: its
    minimum is among the real critical points of both quartics and those
    roots.
    """
    if we <= 0:
        raise ValueError("Weber number must be positive")
    bnd, cond, cols = _solve_affine(shape, resolution)
    w = bnd.weights
    dn_psi = cols[2]
    a = dn_psi[:, 0] / bnd.r
    b = dn_psi[:, 1] / bnd.r - bnd.normal_r
    # nodal coefficients of g in powers of W, lowest first
    g = np.stack([2.0 * (bnd.curvature + bnd.normal_r / bnd.r) - we * a**2,
                  -2.0 * we * a * b, -we * b**2])
    mean = g @ w / np.sum(w)

    def sq_norm(c):   # coefficients of sum w (c_0 + c_1 W + c_2 W^2)^2
        out = np.zeros(5)
        np.add.at(out, np.add.outer(range(3), range(3)), (c * w) @ c.T)
        return out

    cands = np.concatenate([
        P.polyroots(P.polyder(sq_norm(g))),                   # lam = 0
        P.polyroots(P.polyder(sq_norm(g - mean[:, None]))),   # lam > 0
        P.polyroots(mean),
    ]).real
    G = g[0] + np.outer(cands, g[1]) + np.outer(cands**2, g[2])
    lam = np.maximum(0.0, -(G @ w) / np.sum(w))
    best = int(np.argmin((G + lam[:, None]) ** 2 @ w))
    W = float(cands[best])
    return _solution_at(shape, bnd, cond, cols, W), W, float(lam[best])
