"""Nystrom solver for the exterior axisymmetric stream-function problem.

The stream function is represented as a single layer over the boundary,

    psi(x) = int_bdry G(y, x) phi(y) ds(y),

with the ring kernel G.  The Dirichlet data is psi = W r^2/2 + gamma on the
boundary, with the flux constant gamma an extra unknown fixed by the
circulation normalization  int (1/r) dpsi/dn ds = -1  (beta = 1, a = 1).

The surface flow is read off the density.  Inside the section the single
layer solves the same Dirichlet problem, and W r^2/2 + gamma solves the
stream equation there (the section stays off the axis), so the two agree
inside.  The conormal jump relation then gives the exterior normal
derivative exactly,

    dpsi/dn = W r n_r - r phi,   so   (1/r) dpsi/dn - W n_r = -phi,

the surface-vorticity identity of Martensen's method (Lewis, Vortex
Element Methods for Fluid Dynamic Analysis of Engineering Systems, 1991).
Since int n_r ds = 0, the circulation normalization reads int phi ds = 1,
and the bordered system's last row is the quadrature weights.  No solve
assembles the normal-derivative operator; `normal_derivative_matrix`
builds it pair by pair, a reference for the tests and a layer that
perfbench's tracer names.

Discretization: the nodes of `boundary_nodes`, uniform in a parameter s
and graded toward the innermost point by the section's own rule (see
`shapes`), the trapezoidal rule in s for the smooth kernel part, and the
spectral quadrature of Martensen/Kussmaul type for the logarithmic part
ln(4 sin^2((s - sigma)/2)).  Everything works in s with the speed
|dX/ds|, so the grading costs no kernel work.

The boundary nodes are exactly z -> -z symmetric: node n - j is a copy of
node j with z negated.  The single-layer coefficient P of
`_orbit_coefficients`, with the modulus, the elliptic log split and the
log-quadrature correction Rlog behind it, is symmetric in the point pair;
it is computed once per orbit of the node pairs under reciprocity
(i, j) <-> (j, i) and the mirror (i, j) <-> (n - i, n - j), about a quarter
of all pairs, in fixed blocks of orbit representatives.  The matrix
entries are then gathers of P and row and column scalings.
`solve_dirichlet` uses the mirror symmetry of every section: it gathers
the folded block directly, target nodes 0..n/2 with column j carrying node
j and its mirror n - j, through two orbit maps (one for j, one for n - j),
and solves the bordered system of n/2 + 1 densities plus gamma, then
unfolds the results to all n nodes.  The log quadrature
weights and the orbit maps are cached per n.  The system is solved by LU;
`condition_number` is the 1-norm condition estimate of LAPACK's dgecon
algorithm, taken from that factorization, for the folded bordered system,
and the solve is refused above MAX_CONDITION.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .kernel import (_modulus, _modulus_factors, gradient_split,
                     ring_kernel)
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
_ORBIT_BLOCK = 12288   # orbit representatives per block, see below
_TINY = float(np.finfo(float).tiny)


class SolverError(RuntimeError):
    """Boundary-integral solve failed (conditioning or convergence)."""


@dataclass
class BoundarySolution:
    """Single-layer density and boundary traces of one solve on the checked
    section `boundary`."""

    boundary: SmoothBoundary = field(repr=False, compare=False)
    density: np.ndarray
    psi_trace: np.ndarray
    dn_psi: np.ndarray       # exterior normal derivative of psi at the nodes
    W: float
    gamma: float
    circulation: float       # -int (1/r) dpsi/dn ds, target 1
    condition_number: float
    resolution: int
    alpha: float             # node grading t = s + alpha sin s of the solve


@dataclass
class ResidualReport:
    """Defect of the dynamic boundary condition
    2H + lambda = We ((1/r) dpsi/dn - W n.e_r)^2."""

    dyn_residual_l2: float
    dyn_residual_max: float
    # |integral of the pointwise defect| = perimeter * |lam - lam_bal|:
    # how far lam is from the balancing value lam_bal = -<2H - We flow^2>_w
    identity_gap: float
    max_principle_violation: float
    lam: float
    we: float


@lru_cache(maxsize=8)
def log_quadrature_weights(n_nodes: int) -> np.ndarray:
    """Weights R_d, d = |i - j|, of the spectral rule

        int_0^2pi ln(4 sin^2((t_i - s)/2)) f(s) ds ~ sum_j R_|i-j| f(t_j)

    on the uniform grid t_j = 2 pi j / n (n even), the node parameter s of
    a graded sample.  The cosines take
    cos(t_j m) at the reduced argument 2 pi (min(j, n - j) m mod n) / n, so
    R_d == R_{n-d} exactly.  Cached per n; the returned array is read-only."""
    if n_nodes % 2:
        raise ValueError("node count must be even")
    half = n_nodes // 2
    j = np.arange(n_nodes)
    m = np.arange(1, half)
    jm = np.outer(np.minimum(j, n_nodes - j), m) % n_nodes
    R = -(4.0 * np.pi / n_nodes) * (
        np.cos((2.0 * np.pi / n_nodes) * jm) @ (1.0 / m)
        + ((-1.0) ** j) / (2.0 * half)
    )
    R.flags.writeable = False
    return R


@lru_cache(maxsize=8)
def _pair_orbits(n: int):
    """Orbits of the node pairs under reciprocity (i, j) <-> (j, i) and the
    mirror (i, j) <-> (n - i, n - j) mod n, which keep every factor that is
    symmetric in the pair (node n - i mirrors node i exactly).

    Representatives: (0, d) for 0 <= d <= n/2 and (a, a + d) for
    1 <= a <= n/2, 0 <= d <= n - 2a, numbered in that order, so the
    diagonal pair (a, a) is number start[a].  Returns (ra, rb, start, R,
    s2): the representatives' node indices, and their log weight R_d and
    4 sin^2(pi d / n) (1 on the diagonal), d = rb - ra.  Read-only, cached
    per n.
    """
    half = n // 2
    counts = np.concatenate([[half + 1], n + 1 - 2 * np.arange(1, half + 1)])
    start = np.concatenate([[0], np.cumsum(counts[:-1])])
    ra = np.repeat(np.arange(half + 1), counts)
    rb = np.arange(ra.size) - start[ra] + ra
    d = rb - ra
    s2 = 4.0 * np.sin(np.pi * d / n) ** 2
    s2[start] = 1.0
    R = log_quadrature_weights(n)[d]
    for arr in (ra, rb, start, R, s2):
        arr.flags.writeable = False
    return ra, rb, start, R, s2


def _orbit_of(n: int, i, j):
    """Orbit numbers of the pairs (i, j), broadcast: a = min(i, j, n - i,
    n - j) and d = |i - j| (min(d, n - d) when a = 0)."""
    start = _pair_orbits(n)[2]
    a = np.minimum(np.minimum(i, n - i), np.minimum(j, n - j))
    d = np.abs(i - j)
    return np.where(a == 0, np.minimum(d, n - d), start[a] + d)


@lru_cache(maxsize=8)
def _folded_orbits(n: int):
    """(col, mirror): the orbits of the pairs (i, j) and (i, n - j) for
    i, j in 0..n/2.  Columns 0 and n/2 have no mirror column; there
    `mirror` holds the orbit count, the number of a zero sentinel.
    Read-only, cached per n."""
    half = n // 2
    i = np.arange(half + 1)[:, None]
    j = np.arange(half + 1)[None, :]
    col = _orbit_of(n, i, j)
    mirror = _orbit_of(n, i, n - j)
    mirror[:, [0, half]] = _pair_orbits(n)[0].size
    for arr in (col, mirror):
        arr.flags.writeable = False
    return col, mirror


def _orbit_coefficients(bnd: SmoothBoundary):
    """The single-layer coefficient P = h Freg - Rlog FL of the kernel
    split, once per orbit representative of `_pair_orbits`, with the zero
    sentinel of `_gather` appended: an (m + 1,) array.  Rlog = R_d +
    h ln(q / 4 sin^2(pi d/n)), h ln(speed^2 / (4 r^2)) on the diagonal.
    Computed in place from Rlog / h, in fixed blocks of _ORBIT_BLOCK
    representatives (so the outputs depend on n alone) whose temporaries
    stay in cache."""
    n = bnd.n_nodes
    ra, rb, start, R, s2 = _pair_orbits(n)
    m = ra.size
    coef = np.zeros(m + 1)
    for lo in range(0, m, _ORBIT_BLOCK):
        blk = slice(lo, min(lo + _ORBIT_BLOCK, m))
        i, j = ra[blk], rb[blk]
        k, q, _, _ = _modulus(bnd.r[i], bnd.z[i], bnd.r[j], bnd.z[j])
        FL, Freg = _modulus_factors(k, q)
        a0, a1 = np.searchsorted(start, (lo, blk.stop))
        diag = start[a0:a1] - lo     # the diagonal pairs (a, a) of the block
        lg = np.divide(q, s2[blk], out=q)
        lg[diag] = bnd.speed[a0:a1] ** 2 / (4.0 * bnd.r[a0:a1] ** 2)
        np.log(lg, out=lg)
        lg += R[blk] * (n / (2.0 * np.pi))      # Rlog / h
        Freg -= np.multiply(FL, lg, out=FL)
        np.multiply(Freg, 2.0 * np.pi / n, out=coef[blk])
    return coef


def _gather(bnd: SmoothBoundary, col, mirror):
    """S on nodes 0..c-1 (targets and columns) from the orbit coefficients:
    orbit map `col` adds the source y = (r_j, z_j), `mirror` y = (r_j, -z_j)
    or the zero sentinel,

        S_ij = (P[col] + P[mirror]) (sqrt(r_i) / 2 pi) (sqrt(r_j) speed_j).
    """
    P = _orbit_coefficients(bnd)
    r = bnd.r[:col.shape[0]]
    S = P[col] + P[mirror]
    S *= np.outer(np.sqrt(r) / (2.0 * np.pi), np.sqrt(r) * bnd.speed[:r.size])
    return S


def _assemble(bnd: SmoothBoundary) -> np.ndarray:
    """The single-layer matrix S (psi = S phi) of a mirror-even density,
    folded: target nodes 0..n/2, and column j carries node j and its
    mirror n - j."""
    return _gather(bnd, *_folded_orbits(bnd.n_nodes))


def single_layer_matrix(bnd: SmoothBoundary) -> np.ndarray:
    """Matrix mapping nodal densities to psi at the nodes: the gather on
    all n target nodes and all n columns, with no mirror source."""
    n = bnd.n_nodes
    col = _orbit_of(n, *np.ogrid[:n, :n])
    return _gather(bnd, col, np.full_like(col, _pair_orbits(n)[0].size))


def normal_derivative_matrix(bnd: SmoothBoundary) -> np.ndarray:
    """Matrix for the principal-value part of dpsi/dn on the exterior side;
    the full exterior derivative is  -r phi / 2 + (this matrix) phi.  Built
    pair by pair from `gradient_split` with the solver's log quadrature; no
    solve uses it (see the module docstring), it is the reference the
    tests check the surface flow against."""
    n = bnd.n_nodes
    h = 2.0 * np.pi / n
    d = np.abs(np.arange(n)[:, None] - np.arange(n))
    q, _, AL, Areg = gradient_split(
        bnd.r[:, None], bnd.z[:, None], bnd.r, bnd.z, bnd.normal_r[:, None],
        bnd.normal_z[:, None], kappa_diag=bnd.curvature[:, None])
    ratio = q / np.where(d > 0, 4.0 * np.sin(np.pi * d / n) ** 2, 1.0)
    np.fill_diagonal(ratio, bnd.speed**2 / (4.0 * bnd.r**2))
    Rlog = log_quadrature_weights(n)[d] + h * np.log(ratio)
    return (h * Areg - Rlog * AL) * bnd.speed


def _inverse_norm1(lu, getrs) -> float:
    """Estimate of ||M^-1||_1 from the LU factors (lu, piv) of the n x n
    matrix M in O(n^2); `getrs` is LAPACK's dgetrs, which solves with them.

    Hager's method with Higham's refinements, the algorithm of LAPACK's
    dgecon.  It is written out here because dgecon's result changes in the
    last bits with the alignment of its internal work arrays, which differs
    from one process to the next; this keeps outputs byte-identical.
    """
    n = lu[0].shape[0]
    x = np.full(n, 1.0 / n)
    est = 0.0
    for it in range(5):
        y = getrs(*lu, x)[0]
        y_norm = float(np.sum(np.abs(y)))
        if it and not y_norm > est:
            break
        est = y_norm
        z = getrs(*lu, np.where(y >= 0.0, 1.0, -1.0), trans=1)[0]
        j = int(np.argmax(np.abs(z)))
        if it and not abs(z[j]) > z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    # alternating test vector: guards against the estimator's blind spots
    i = np.arange(n)
    alt = np.where(i % 2, -1.0, 1.0) * (1.0 + i / max(n - 1, 1))
    alt_norm = float(np.sum(np.abs(getrs(*lu, alt)[0])))
    return max(est, 2.0 * alt_norm / (3.0 * n))


def _first_kind_solve(mat: np.ndarray, rhs: np.ndarray):
    """LU solve, gated on the 1-norm condition estimate of `mat`.  The one
    use of scipy in the package: LAPACK's dgetrf and dgetrs, loaded by the
    first solve."""
    from scipy.linalg.lapack import dgetrf, dgetrs
    lu, piv, info = dgetrf(mat)
    if info > 0:
        raise SolverError("boundary system singular: "
                          f"U[{info - 1}, {info - 1}] is exactly zero")
    cond = np.linalg.norm(mat, 1) * _inverse_norm1((lu, piv), dgetrs)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SolverError(f"boundary system ill-conditioned: cond = {cond:.3g}")
    return dgetrs(lu, piv, rhs)[0], cond


def _solve_affine(shape: CrossSection, resolution):
    """One LU, two right-hand sides: the circulation column (rhs[m] = 1)
    and the unit-W column (rhs[:m] = r^2/2).  Returns (bnd, cond, cols),
    cols = (density, psi_trace, dn_psi, gamma), each with a last axis
    [W = 0, per unit W], since the solution is affine in W."""
    if isinstance(shape, Polygon):
        raise SolverError("the stream solver needs a smooth boundary; "
                          "polygons carry no pointwise curvature")
    bnd = boundary_nodes(shape, resolution)
    n = bnd.n_nodes
    half = n // 2
    m = half + 1
    mult = np.full(m, 2.0)
    mult[[0, half]] = 1.0
    r = bnd.r[:m]

    # circulation row: sum w phi = 1, since (1/r) dpsi/dn = W n_r - phi
    S = _assemble(bnd)
    sys = np.zeros((m + 1, m + 1))
    sys[:m, :m] = S
    sys[:m, m] = -1.0
    sys[m, :m] = mult * bnd.weights[:m]
    rhs = np.zeros((m + 1, 2))
    rhs[m, 0] = 1.0
    rhs[:m, 1] = 0.5 * r**2
    sol, cond = _first_kind_solve(sys, rhs)
    phi = sol[:m]

    dn_psi = -r[:, None] * phi
    dn_psi[:, 1] += r * bnd.normal_r[:m]
    mirror = np.minimum(np.arange(n), n - np.arange(n))
    return bnd, cond, (phi[mirror], (S @ phi)[mirror], dn_psi[mirror],
                       sol[m])


def _solution_at(bnd, cond, cols, W: float) -> BoundarySolution:
    phi, psi_trace, dn_psi, gamma = (c[..., 0] + W * c[..., 1] for c in cols)
    circulation = -float(np.sum(bnd.weights / bnd.r * dn_psi))
    return BoundarySolution(
        boundary=bnd, density=phi, psi_trace=psi_trace,
        dn_psi=dn_psi, W=float(W), gamma=float(gamma),
        circulation=circulation, condition_number=float(cond),
        resolution=bnd.n_nodes, alpha=bnd.alpha,
    )


def solve_dirichlet(shape: CrossSection, W: float,
                    resolution: int = DEFAULT_RESOLUTION) -> BoundarySolution:
    """Solve the exterior problem with data W r^2/2 + gamma on the boundary.

    gamma is determined jointly with the density by appending the discrete
    circulation constraint  sum w_i phi_i = 1, which is
    sum w_i (1/r_i) dpsi/dn_i = -1 for dn_psi = W r n_r - r phi (see the
    module docstring).

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
    return _solution_at(*_solve_affine(shape, resolution), W)


def evaluate_stream(density, bnd: SmoothBoundary, points):
    """psi at off-boundary points (r, z) from a nodal density on `bnd`
    (plain trapezoid); raises ValueError as `ring_kernel` does."""
    phi = np.asarray(density, dtype=float)
    pr, pz = points
    pr = np.atleast_1d(np.asarray(pr, dtype=float))
    pz = np.atleast_1d(np.asarray(pz, dtype=float))
    vals = ring_kernel((bnd.r, bnd.z), (pr[:, None], pz[:, None]))
    out = vals @ (phi * bnd.weights)
    return out if out.size > 1 else float(out[0])


def _check_defect(norms, culprit: str) -> None:
    """ValueError unless the defect's squared norms, which overflow when an
    input is huge, are finite; the message blames `culprit`."""
    if not np.all(np.isfinite(norms)):
        raise ValueError(f"{culprit} too large: the dynamic defect is not "
                         "finite")


def dynamic_residual(shape: CrossSection, sol: BoundarySolution,
                     we: float, lam: float) -> ResidualReport:
    """Measure the defect of 2H + lam - We ((1/r) dpsi/dn - W n.e_r)^2.

    Reports the L2 and sup norms of the pointwise defect, the gap of its
    boundary integral (how far `lam` is from the value that balances the
    defect on average), and the integrated violation of the sign condition
    dPsi/dn <= 0 for the co-moving stream function, all on the solution's
    boundary.  `shape` must be `sol.boundary.shape`, and We, W and lam
    small enough that the defect's norm is finite, else ValueError.
    """
    if not 0 < we < np.inf:
        raise ValueError("Weber number must be finite and positive")
    if not np.isfinite(lam):
        raise ValueError("Lagrange multiplier lam must be finite")
    if shape != sol.boundary.shape:
        raise ValueError("shape is not the section of the solution")
    bnd = sol.boundary
    H = bnd.curvature + bnd.normal_r / bnd.r
    flow = sol.dn_psi / bnd.r - sol.W * bnd.normal_r
    w = bnd.weights
    with np.errstate(over="ignore", invalid="ignore"):
        defect = 2.0 * H + lam - we * flow**2
        l2 = float(np.sqrt(np.sum(defect**2 * w)))
    _check_defect(l2, f"We = {we:g}, W = {sol.W:g} or lam = {lam:g} is")
    mx = float(np.max(np.abs(defect)))
    gap = float(abs(np.sum(defect * w)))
    dn_Psi = sol.dn_psi - sol.W * bnd.r * bnd.normal_r
    viol = float(np.sum(np.maximum(dn_Psi, 0.0) * w))
    return ResidualReport(
        dyn_residual_l2=l2,
        dyn_residual_max=mx,
        identity_gap=gap,
        max_principle_violation=viol,
        lam=float(lam),
        we=float(we),
    )


def _check_we(we) -> None:
    """ValueError unless We is finite and no smaller than the smallest
    normal float.  A subnormal We makes the quartics' coefficients
    subnormal too, and their companion matrices overflow."""
    if not 0 < we < np.inf:
        raise ValueError("Weber number must be finite and positive")
    if we < _TINY:
        raise ValueError(f"Weber number {float(we)!r} is subnormal: it "
                         f"must be at least {_TINY:g}")


def _critical_points(quartics) -> np.ndarray:
    """The roots of each quartic's derivative, row by row as
    P.polyroots(P.polyder(row)) gives them, from one eigvals call on the
    cubics' companion matrices, built as P.polycompanion builds them.
    Where a cubic's top coefficient is 0, P.polyroots lowers its degree,
    so the rows go there instead."""
    d = quartics[:, 1:] * np.arange(1.0, 5.0)     # P.polyder of each row
    if not np.all(d[:, -1]):
        return np.concatenate([P.polyroots(c) for c in d])
    comp = np.zeros((len(d), 3, 3))
    comp[:, [1, 2], [0, 1]] = 1.0
    comp[:, :, -1] -= d[:, :-1] / d[:, -1:]
    roots = np.linalg.eigvals(comp)
    roots.sort()
    return roots.ravel()


def optimal_W_lam(shape: CrossSection, we: float,
                  resolution: int = DEFAULT_RESOLUTION):
    """(solution, report): the W (`solution.W`) and lam >= 0 (`report.lam`)
    minimizing dyn_residual_l2 of one shape, exactly, from one
    factorization (variable projection); `report` is `dynamic_residual` at
    that optimum.

    The surface flow -phi = a + W b is affine in W, so g = 2H - We flow^2 is
    quadratic in W.  For fixed W the best lam is max(0, -<g>_w), <.>_w the
    weighted boundary mean, and the squared residual sum w g^2 - (sum w)
    lam^2 is a quartic in W on either side of the roots of <g>_w: its
    minimum is among the real critical points of both quartics and those
    roots.  A We at which the quartics overflow, or a subnormal We
    (`_check_we`), is a ValueError.
    """
    _check_we(we)
    bnd, cond, cols = _solve_affine(shape, resolution)
    w = bnd.weights
    a, b = -cols[0][:, 0], -cols[0][:, 1]

    def sq_norm(c):   # coefficients of sum w (c_0 + c_1 W + c_2 W^2)^2
        # the anti-diagonal sums of the weighted Gram matrix M, each from
        # 0.0 in row order, as np.add.at sums them
        M = ((c * w) @ c.T).tolist()
        return [0.0 + M[0][0], 0.0 + M[0][1] + M[1][0],
                0.0 + M[0][2] + M[1][1] + M[2][0], 0.0 + M[1][2] + M[2][1],
                0.0 + M[2][2]]

    with np.errstate(over="ignore", invalid="ignore"):
        # nodal coefficients of g in powers of W, lowest first
        g = np.stack([2.0 * (bnd.curvature + bnd.normal_r / bnd.r)
                      - we * a**2, -2.0 * we * a * b, -we * b**2])
        mean = g @ w / np.sum(w)
        # the quartics of lam = 0 and of lam > 0
        quartics = np.array([sq_norm(g), sq_norm(g - mean[:, None])])
    _check_defect(quartics, f"Weber number {we:g} is")
    cands = np.concatenate([_critical_points(quartics),
                            P.polyroots(mean)]).real
    G = g[0] + np.outer(cands, g[1]) + np.outer(cands**2, g[2])
    lam = np.maximum(0.0, -(G @ w) / np.sum(w))
    best = int(np.argmin((G + lam[:, None]) ** 2 @ w))
    sol = _solution_at(bnd, cond, cols, float(cands[best]))
    return sol, dynamic_residual(shape, sol, we, float(lam[best]))
