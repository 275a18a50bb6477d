import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubblering import shapes, solver
from bubblering.certify import explicit_bound, universal_bound, verdict
from bubblering.cli import _render
from bubblering.geometry import geometry_report
from bubblering.kernel import kernel_split, ring_kernel, ring_kernel_gradient
from bubblering.search import residual_minimize
from bubblering.shapes import (Disk, Ellipse, FourierStar, Polygon,
                               boundary_nodes)
from bubblering.solver import (
    SolverError,
    dynamic_residual,
    evaluate_stream,
    log_quadrature_weights,
    normal_derivative_matrix,
    single_layer_matrix,
    solve_dirichlet,
)

SHAPE = Ellipse(R0=2.0, m=0.8, n=0.6)
SRC = (2.1, 0.1)  # filament inside the section


def _filament_data(resolution):
    bnd = boundary_nodes(SHAPE, resolution)
    return bnd, ring_kernel(SRC, (bnd.r, bnd.z))


def test_log_weights_reproduce_fourier_integrals():
    # int_0^2pi ln(4 sin^2(t/2)) cos(m t) dt = -2 pi / m (0 for m = 0)
    R = log_quadrature_weights(64)
    t = 2.0 * np.pi * np.arange(64) / 64
    assert abs(np.sum(R)) < 1e-13
    for m in [1, 2, 5, 17]:
        assert_allclose(np.sum(R * np.cos(m * t)), -2.0 * np.pi / m,
                        atol=1e-13)
    # the weights are cached per n: no caller may write into them
    with pytest.raises(ValueError):
        R[0] = 0.0


def test_log_weights_are_symmetric_and_accurate_at_512():
    # R_d == R_{n-d} exactly, so every pair orbit has one weight; the
    # integrals of cos(m t), sampled at reduced arguments, m = 0..n/2
    n = 512
    R = log_quadrature_weights(n)
    assert np.array_equal(R[1:], R[1:][::-1])
    j = np.arange(n)
    for m in range(n // 2 + 1):
        cos_mt = np.cos(2.0 * np.pi * (j * m % n) / n)
        exact = -2.0 * np.pi / m if m else 0.0
        assert abs(np.sum(R * cos_mt) - exact) <= 5e-15, m


def test_manufactured_exterior_reconstruction():
    bnd, data = _filament_data(256)
    phi = np.linalg.solve(single_layer_matrix(bnd), data)
    # ring of test points one diameter away from the section
    t = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    pr = 2.0 + 2.4 * np.cos(t)
    pz = 2.4 * np.sin(t)
    keep = pr > 0.05
    rec = evaluate_stream(phi, bnd, (pr[keep], pz[keep]))
    exact = np.array([ring_kernel(SRC, (r, z))
                      for r, z in zip(pr[keep], pz[keep])])
    assert np.max(np.abs(rec - exact)) < 1e-8


def test_manufactured_normal_derivative():
    bnd, data = _filament_data(256)
    phi = np.linalg.solve(single_layer_matrix(bnd), data)
    A = normal_derivative_matrix(bnd)
    dn = -bnd.r * phi / 2.0 + A @ phi
    exact = np.empty(bnd.n_nodes)
    for i in range(bnd.n_nodes):
        gr, gz = ring_kernel_gradient(SRC, (bnd.r[i], bnd.z[i]))
        exact[i] = bnd.normal_r[i] * gr + bnd.normal_z[i] * gz
    assert np.max(np.abs(dn - exact)) < 1e-6


def test_spectral_convergence_of_reconstruction():
    # a filament close to the boundary makes the data nearly singular, so
    # the error is measurable at moderate resolution instead of sitting at
    # roundoff; the decay rate is what is being tested
    hard_src = (2.788, 0.0)  # distance ~0.012 from the section
    pr = np.array([4.5, 2.0, 0.6])
    pz = np.array([0.3, 2.2, -0.5])
    exact = np.array([ring_kernel(hard_src, (r, z)) for r, z in zip(pr, pz)])
    errs = []
    for n in [128, 256, 512]:
        bnd = boundary_nodes(SHAPE, n)
        data = ring_kernel(hard_src, (bnd.r, bnd.z))
        phi = np.linalg.solve(single_layer_matrix(bnd), data)
        rec = evaluate_stream(phi, bnd, (pr, pz))
        errs.append(max(np.max(np.abs(rec - exact)), 1e-15))
    assert errs[0] / errs[1] >= 4.0
    assert errs[1] / errs[2] >= 4.0


def test_circulation_constraint_every_solve():
    for shape in [Disk(R0=2.0, rho0=0.7), SHAPE,
                  Ellipse(R0=3.0, m=2.0, n=1.0)]:
        for W in [0.0, 0.25, -0.4]:
            sol = solve_dirichlet(shape, W, 128)
            assert abs(sol.circulation - 1.0) <= 1e-8


def test_dirichlet_trace_and_gamma():
    sol = solve_dirichlet(SHAPE, 0.3, 128)
    bnd = sol.boundary
    assert_allclose(sol.psi_trace, 0.15 * bnd.r**2 + sol.gamma, atol=1e-12)
    # gamma converges with resolution
    sol2 = solve_dirichlet(SHAPE, 0.3, 256)
    assert abs(sol.gamma - sol2.gamma) < 1e-10


def test_symmetry_at_zero_speed():
    sol = solve_dirichlet(Disk(R0=2.0, rho0=0.7), 0.0, 128)
    phi = sol.density
    dn = sol.dn_psi
    # nodes t and 2 pi - t mirror in z
    assert np.max(np.abs(phi[1:] - phi[1:][::-1])) < 1e-10
    assert np.max(np.abs(dn[1:] - dn[1:][::-1])) < 1e-10


def test_axis_and_decay_invariants():
    sol = solve_dirichlet(SHAPE, 0.2, 128)
    zs = np.linspace(-10.0, 10.0, 9)
    psi_axis = evaluate_stream(sol.density, sol.boundary,
                               (np.full_like(zs, 1e-8), zs))
    assert np.max(np.abs(psi_axis)) < 1e-6
    scale = np.max(np.abs(sol.psi_trace))
    # the far field is a dipole: ~1/d^3 along the axis, ~1/d in the
    # equatorial plane; the 1e-4 decay threshold is checked off-plane and
    # the slow equatorial direction is checked against its 1/d rate
    far = evaluate_stream(sol.density, sol.boundary,
                          (np.array([2.0]), np.array([1e3])))
    assert abs(far) < 1e-4 * scale
    eq1 = evaluate_stream(sol.density, sol.boundary,
                          (np.array([1e3]), np.array([0.0])))
    eq2 = evaluate_stream(sol.density, sol.boundary,
                          (np.array([2e3]), np.array([0.0])))
    assert_allclose(eq1 / eq2, 2.0, rtol=1e-2)


def test_stream_at_non_finite_radius_rejected():
    sol = solve_dirichlet(SHAPE, 0.0, 64)
    for r in (np.nan, -1.0):
        with pytest.raises(ValueError, match="finite positive radii"):
            evaluate_stream(sol.density, sol.boundary,
                            (np.array([3.0, r]), np.array([0.0, 0.5])))


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
def test_stream_at_non_finite_z_rejected(z):
    # used to return NaN at the point
    sol = solve_dirichlet(SHAPE, 0.0, 64)
    with pytest.raises(ValueError, match="finite z"):
        evaluate_stream(sol.density, sol.boundary,
                        (np.array([3.0, 4.0]), np.array([0.0, z])))


def test_polygon_rejected():
    square = Polygon(vertices=((1.0, -0.5), (2.0, -0.5), (2.0, 0.5),
                               (1.0, 0.5)))
    with pytest.raises(SolverError):
        solve_dirichlet(square, 0.0, 64)


def test_invalid_speed_rejected():
    with pytest.raises(ValueError):
        solve_dirichlet(SHAPE, np.nan, 64)


def test_residual_identity_gap_is_integral():
    sol = solve_dirichlet(SHAPE, 0.2, 128)
    rep = dynamic_residual(SHAPE, sol, we=2.0, lam=0.5)
    bnd = sol.boundary
    H = bnd.curvature + bnd.normal_r / bnd.r
    flow = sol.dn_psi / bnd.r - sol.W * bnd.normal_r
    defect = 2.0 * H + 0.5 - 2.0 * flow**2
    assert_allclose(rep.identity_gap, abs(np.sum(defect * bnd.weights)),
                    atol=1e-10)
    # gap bounded by perimeter times sup defect
    assert rep.identity_gap <= bnd.perimeter * rep.dyn_residual_max + 1e-12


def test_residual_grows_linearly_in_perturbation():
    sol = solve_dirichlet(SHAPE, 0.2, 128)
    bnd = sol.boundary
    base = dynamic_residual(SHAPE, sol, we=2.0, lam=0.5)
    vals = []
    for eps in [1e-3, 2e-3, 4e-3]:
        pert = sol.dn_psi + eps * bnd.r * np.cos(bnd.t)
        from dataclasses import replace
        rep = dynamic_residual(SHAPE, replace(sol, dn_psi=pert), we=2.0,
                               lam=0.5)
        vals.append(rep.dyn_residual_l2 - base.dyn_residual_l2)
    # successive increments roughly double
    assert 1.5 < vals[1] / vals[0] < 2.5
    assert 1.5 < vals[2] / vals[1] < 2.5


def test_max_principle_violation_sign():
    sol = solve_dirichlet(SHAPE, 0.0, 128)
    rep = dynamic_residual(SHAPE, sol, we=1.0, lam=0.0)
    dn_Psi = sol.dn_psi - sol.W * sol.boundary.r * sol.boundary.normal_r
    if np.all(dn_Psi <= 0.0):
        assert rep.max_principle_violation == 0.0
    else:
        assert rep.max_principle_violation > 0.0


@pytest.mark.parametrize("other", [
    Ellipse(R0=2.0, m=0.8, n=0.61),
    Polygon(vertices=((1.5, -0.5), (2.5, 0.0), (1.5, 0.5))),
], ids=["ellipse", "polygon"])
def test_residual_refuses_another_shape(other):
    # the residual reads the solution's boundary, which is SHAPE's
    sol = solve_dirichlet(SHAPE, 0.0, 64)
    with pytest.raises(ValueError, match="not the section"):
        dynamic_residual(other, sol, we=1.0, lam=0.0)
    assert sol.boundary.shape == SHAPE


def test_residual_requires_positive_we():
    sol = solve_dirichlet(SHAPE, 0.0, 64)
    with pytest.raises(ValueError):
        dynamic_residual(SHAPE, sol, we=-1.0, lam=0.0)


@pytest.mark.parametrize("call, match", [
    (lambda: dynamic_residual(SHAPE, solve_dirichlet(SHAPE, 0.0, 64),
                              we=1e300, lam=0.0),
     r"We = 1e\+300, W = 0 or lam = 0 is too large: the dynamic defect"),
    (lambda: dynamic_residual(SHAPE, solve_dirichlet(SHAPE, 0.0, 64),
                              we=1.0, lam=1e300),
     r"We = 1, W = 0 or lam = 1e\+300 is too large: the dynamic defect"),
    (lambda: dynamic_residual(SHAPE, solve_dirichlet(SHAPE, 1e300, 64),
                              we=1.0, lam=0.0),
     r"We = 1, W = 1e\+300 or lam = 0 is too large: the dynamic defect"),
    (lambda: solver.optimal_W_lam(SHAPE, 1e300, 64),
     r"Weber number 1e\+300 is too large"),
], ids=["dynamic_residual", "dynamic_residual-lam", "dynamic_residual-W",
        "optimal_W_lam"])
def test_we_with_overflowing_defect_is_rejected(call, match):
    # the flow term is finite but the defect's square is not: a ValueError
    # naming the inputs, and no RuntimeWarning (pytest turns those into
    # errors)
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call", [
    lambda: verdict(explicit_bound(geometry_report(SHAPE), SHAPE), np.nan),
    lambda: universal_bound(np.nan, 1.0),
    lambda: dynamic_residual(SHAPE, solve_dirichlet(SHAPE, 0.0, 64),
                             we=np.nan, lam=0.0),
    lambda: dynamic_residual(SHAPE, solve_dirichlet(SHAPE, 0.0, 64),
                             we=1.0, lam=np.nan),
    lambda: solver.optimal_W_lam(SHAPE, np.nan, 64),
    lambda: residual_minimize("thick-disk", np.nan, budget=1),
], ids=["verdict-we", "universal_bound-mu", "dynamic_residual-we",
        "dynamic_residual-lam", "optimal_W_lam-we", "residual_minimize-we"])
def test_nan_argument_is_rejected(call):
    # NaN passes a plain `x <= 0` check; the library refuses it up front
    with pytest.raises(ValueError, match="finite"):
        call()


def _full_system_solve(bnd, W):
    # the unfolded bordered system over all n nodes of `bnd`: n densities
    # plus gamma, with the circulation row sum w phi = 1 and the flow -phi
    n = bnd.n_nodes
    S = single_layer_matrix(bnd)
    mat = np.zeros((n + 1, n + 1))
    mat[:n, :n] = S
    mat[:n, n] = -1.0
    mat[n, :n] = bnd.weights
    rhs = np.append(0.5 * W * bnd.r**2, 1.0)
    sol = np.linalg.solve(mat, rhs)
    phi = sol[:n]
    return {"density": phi, "dn_psi": bnd.r * (W * bnd.normal_r - phi),
            "psi_trace": S @ phi, "gamma": sol[n]}


# eps / R0 = 1e-2 at area 2 pi: rho0 = sqrt 2, R0 - rho0 = 1e-2 R0; its
# nodes are graded (alpha = 0.9), the other fold shapes get alpha = 0
_NEAR_AXIS = Disk(R0=np.sqrt(2.0) / (1.0 - 1e-2), rho0=np.sqrt(2.0))


_FOLD_SHAPES = pytest.mark.parametrize("shape", [
    Disk(R0=1.55, rho0=np.sqrt(2.0)),
    Ellipse(R0=2.0, m=0.8, n=0.6),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.1, -0.05, 0.02)),
    _NEAR_AXIS,
], ids=["disk", "ellipse", "fourier-star", "near-axis-disk"])


@pytest.mark.parametrize("n", [128, 512])
@_FOLD_SHAPES
def test_folded_solve_matches_full_system(shape, n):
    W = 0.3
    sol = solve_dirichlet(shape, W, n)
    assert (sol.alpha > 0.0) == (shape == _NEAR_AXIS)
    ref = _full_system_solve(sol.boundary, W)
    for name in ["density", "dn_psi", "psi_trace"]:
        got = getattr(sol, name)
        assert got.shape == (n,)
        rel = np.max(np.abs(got - ref[name])) / np.max(np.abs(ref[name]))
        assert rel <= 1e-10, name
    assert abs(sol.gamma - ref["gamma"]) <= 1e-10 * abs(ref["gamma"])


@pytest.mark.parametrize("shape", [
    Disk(R0=1.55, rho0=np.sqrt(2.0)),
    Ellipse(R0=2.0, m=0.8, n=0.6),
    FourierStar(R0=3.0, base=1.0, coeffs=(0.1, -0.05, 0.02)),
], ids=["disk", "ellipse", "fourier-star"])
def test_surface_flow_is_minus_the_density(shape):
    # inside the section the single layer is W r^2/2 + gamma, so the jump
    # relation makes the flow -phi exactly; the normal-derivative operator
    # gives the same flow to its discretization error, at most 1.5e-13
    # measured at n = 512
    W = 0.3
    sol = solve_dirichlet(shape, W, 512)
    bnd = sol.boundary
    flow = sol.dn_psi / bnd.r - W * bnd.normal_r
    scale = np.max(np.abs(sol.density))
    assert np.max(np.abs(flow + sol.density)) <= 1e-15 * scale
    A = normal_derivative_matrix(bnd)
    via_A = -sol.density / 2.0 + (A @ sol.density) / bnd.r - W * bnd.normal_r
    assert np.max(np.abs(flow - via_A)) <= 1e-12 * np.max(np.abs(via_A))


def _log_factor(bnd, q, rows, idx):
    # ln(q / (4 sin^2((t_i - t_j)/2))) on target rows `rows`, idx = |i - j|,
    # with the diagonal limit ln(speed^2 / (4 r^2))
    s2 = 4.0 * np.sin(np.pi * np.arange(bnd.n_nodes) / bnd.n_nodes) ** 2
    s2[0] = 1.0
    ratio = q / s2[idx]
    ratio[np.arange(rows.size), rows] = (bnd.speed[rows]**2
                                         / (4.0 * bnd.r[rows]**2))
    return np.log(ratio)


@pytest.mark.parametrize("n", [128, 512])
@_FOLD_SHAPES
def test_assembly_matches_per_pair_kernels(shape, n):
    # the assembly evaluates the kernel factors once per reciprocal or
    # mirror orbit of the point pairs and gathers them into the folded
    # block; the reference evaluates the split kernel on every pair of
    # rows 0..n/2, with the same log quadrature, and folds column n - j
    # onto column j; on the solver's (graded) nodes
    bnd = boundary_nodes(shape, n)
    half = n // 2
    m = half + 1
    rows = np.arange(m)
    idx = np.abs(rows[:, None] - np.arange(n)[None, :])
    _, q, FL, Freg, pref = kernel_split(bnd.r[:m, None], bnd.z[:m, None],
                                        bnd.r, bnd.z)
    h = 2.0 * np.pi / n
    Rlog = (log_quadrature_weights(n)[idx]
            + h * _log_factor(bnd, q, rows, idx))
    ref = (h * Freg - Rlog * FL) * (pref * bnd.speed)
    ref = ref[:, :m] + np.pad(ref[:, :half:-1], ((0, 0), (1, 1)))
    S = solver._assemble(bnd)
    assert S.shape == (m, m)
    assert np.max(np.abs(S - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [_NEAR_AXIS, Ellipse(R0=2.0, m=0.8, n=0.6)],
                         ids=["near-axis-disk", "ellipse"])
def test_orbit_blocks_leave_the_coefficients_unchanged(monkeypatch, shape):
    # the orbit coefficients are computed in blocks of representatives;
    # blocks of 566 at n = 512 put diagonal pairs (a, a), a >= 1, at the
    # first, second and last place of a block
    n = 512
    bnd = boundary_nodes(shape, n)
    _, rb, start, _, _ = solver._pair_orbits(n)
    assert {0, 1, 565} <= set(start[1:] % 566)
    monkeypatch.setattr(solver, "_ORBIT_BLOCK", 566)
    blocked = solver._orbit_coefficients(bnd)
    monkeypatch.setattr(solver, "_ORBIT_BLOCK", rb.size)
    whole = solver._orbit_coefficients(bnd)
    assert blocked.shape == whole.shape == (rb.size + 1,)
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))


@pytest.mark.parametrize("n", [64, 128])
@_FOLD_SHAPES
def test_unfolded_is_the_gather_without_mirror_sources(shape, n):
    # every column's mirror map entry is the zero sentinel; folding the
    # unfolded matrix (column n - j onto column j) gives the assembly
    bnd = boundary_nodes(shape, n)
    node = np.arange(n)
    col = solver._orbit_of(n, node[:, None], node)
    sentinel = np.full((n, n), solver._pair_orbits(n)[0].size)
    full = single_layer_matrix(bnd)
    assert np.array_equal(full, solver._gather(bnd, col, sentinel))
    half = n // 2
    ref = full[:half + 1, :half + 1].copy()
    ref[:, 1:half] += full[:half + 1, :half:-1]
    folded = solver._assemble(bnd)
    assert np.max(np.abs(folded - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_condition_gate_refuses_solves(monkeypatch):
    monkeypatch.setattr(solver, "MAX_CONDITION", 10.0)
    with pytest.raises(SolverError):
        solve_dirichlet(SHAPE, 0.2, 64)


def test_inverse_norm_estimate_against_exact():
    # the estimate is a lower bound of ||M^-1||_1 attained up to a small
    # factor; 1-norm condition numbers of the test matrices span 6..7e7
    from scipy.linalg import lu_factor
    from scipy.linalg.lapack import dgetrs
    rng = np.random.default_rng(7)
    for n in [2, 9, 66, 130]:
        for scale in [1e-6, 1.0, 1e3]:
            mat = rng.standard_normal((n, n))
            mat[:, 0] *= scale
            exact = np.max(np.sum(np.abs(np.linalg.inv(mat)), axis=0))
            est = solver._inverse_norm1(lu_factor(mat), dgetrs)
            assert exact / 3.0 <= est <= exact * (1.0 + 1e-10)


@pytest.mark.parametrize("n", [128, 512])
def test_first_kind_solve_equals_scipy_lu(monkeypatch, n):
    # LAPACK's getrf/getrs called directly give lu_factor/lu_solve's
    # solution and condition estimate bit for bit on a disk's bordered system
    from scipy.linalg import lu_factor, lu_solve
    first_kind_solve = solver._first_kind_solve
    systems = []

    def record(mat, rhs):
        systems.append((mat.copy(), rhs.copy()))
        return first_kind_solve(mat, rhs)

    monkeypatch.setattr(solver, "_first_kind_solve", record)
    solve_dirichlet(Disk(R0=1.6, rho0=1.0), 0.2, n)
    (mat, rhs), = systems
    sol, cond = first_kind_solve(mat, rhs)
    lu = lu_factor(mat, check_finite=False)

    def getrs(lu, piv, b, trans=0):
        return lu_solve((lu, piv), b, trans=trans, check_finite=False), 0

    assert np.array_equal(sol, lu_solve(lu, rhs, check_finite=False))
    assert cond == np.linalg.norm(mat, 1) * solver._inverse_norm1(lu, getrs)


def test_singular_system_is_refused():
    mat = np.ones((3, 3))
    with pytest.raises(SolverError, match="singular"):
        solver._first_kind_solve(mat, np.ones((3, 2)))


@pytest.mark.parametrize("shape, lam_positive", [
    (Disk(R0=np.sqrt(8.0 / 3.0), rho0=np.sqrt(2.0)), True),
    (Ellipse(R0=2.0, m=0.8, n=0.6), False),
])
def test_optimal_W_lam_matches_brute_force(shape, lam_positive):
    from scipy.optimize import minimize

    we, n = 1.0, 64
    sol, rep = solver.optimal_W_lam(shape, we, n)
    W, lam = sol.W, rep.lam
    assert sol.W == W and abs(sol.circulation - 1.0) <= 1e-10
    assert (lam > 0.0) == lam_positive
    exact = dynamic_residual(shape, sol, we, lam).dyn_residual_l2

    def residual(x):
        trial = solve_dirichlet(shape, x[0], n)
        return dynamic_residual(shape, trial, we, x[1]).dyn_residual_l2

    brute = min(
        minimize(residual, start, method="Nelder-Mead",
                 bounds=((None, None), (0.0, None)),
                 options={"xatol": 1e-12, "fatol": 1e-14,
                          "maxfev": 2000}).fun
        for start in [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
    assert abs(exact - brute) <= 1e-10 * brute


@pytest.mark.parametrize("we", [1e-4, 1e-6])
def test_optimal_W_lam_floor_tends_to_its_zero_We_anchor(we):
    # as We -> 0 the best defect tends to 2H less its weighted mean, a
    # number no solve enters; the floor stays below it, by a relative
    # 6.5e-7 at We = 1e-4 and 6.5e-9 at 1e-6 (8.4312589 on the delta = 0
    # disk)
    shape = Disk(R0=np.sqrt(8.0 / 3.0), rho0=np.sqrt(2.0))
    sol, rep = solver.optimal_W_lam(shape, we, 128)
    bnd = sol.boundary
    two_h = 2.0 * (bnd.curvature + bnd.normal_r / bnd.r)
    mean = np.sum(two_h * bnd.weights) / np.sum(bnd.weights)
    anchor = np.sqrt(np.sum((two_h - mean) ** 2 * bnd.weights))
    assert anchor == pytest.approx(8.4312589, abs=1e-7)
    assert 0.0 <= anchor - rep.dyn_residual_l2 <= 1e-2 * we * anchor


def test_critical_points_equal_polyroots_bit_for_bit():
    # one eigvals call on the stacked companion matrices gives each
    # quartic's critical points exactly as P.polyroots(P.polyder(q)) does,
    # order included; every tenth pair has a vanishing top coefficient
    from numpy.polynomial import polynomial as P
    rng = np.random.default_rng(3)
    for i in range(2000):
        quartics = rng.standard_normal((2, 5)) * 10.0 ** rng.uniform(-8, 8, 5)
        if i % 10 == 0:
            quartics[i % 20 // 10, 4] = 0.0
        want = np.concatenate([P.polyroots(P.polyder(q)) for q in quartics])
        assert np.array_equal(solver._critical_points(quartics), want)


@pytest.mark.parametrize("we", [1e-200, np.finfo(float).tiny])
def test_optimal_W_lam_where_we_squared_underflows(we):
    # We^2 is 0, and so are the quartics' top coefficients: P.polyroots
    # lowers the degree of their derivatives.  W at n = 1024 is
    # 0.16990488744411
    sol, rep = solver.optimal_W_lam(Disk(R0=1.6, rho0=np.sqrt(2.0)), we, 64)
    assert sol.W == pytest.approx(0.1699048459534449, rel=1e-12)
    assert rep.lam == pytest.approx(0.1952886593276755, rel=1e-12)


@pytest.mark.parametrize("we", [1e-320, 1e-312, 2.2e-308])
@pytest.mark.parametrize("call", [
    lambda we: solver.optimal_W_lam(SHAPE, we, 64),
    lambda we: residual_minimize("thick-disk", we, budget=1),
], ids=["optimal_W_lam", "residual_minimize"])
def test_subnormal_we_is_rejected(call, we):
    # a subnormal We makes the quartics' companion matrices overflow
    with pytest.raises(ValueError, match=f"Weber number {we!r} is subnormal"):
        call(we)


# ---------------------------------------------------------------------------
# graded nodes near the axis

# a unit disk 0.005 off the axis (r_min / a = 0.0071) with a filament at
# its centre: alpha = 0.9
_AXIS_DISK = Disk(R0=1.005, rho0=1.0)


@pytest.mark.parametrize("n, tol", [(256, 1e-7), (512, 1e-8)])
def test_manufactured_normal_derivative_near_the_axis(n, tol):
    # uniform nodes leave 4.1e-3 at n = 256 and 3.7e-4 at n = 512; the
    # solver's graded nodes 5.3e-8 and 1.5e-12
    src = (1.005, 0.0)
    bnd = boundary_nodes(_AXIS_DISK, n)
    assert bnd.alpha == 0.9
    phi = np.linalg.solve(single_layer_matrix(bnd),
                          ring_kernel(src, (bnd.r, bnd.z)))
    dn = -bnd.r * phi / 2.0 + normal_derivative_matrix(bnd) @ phi
    gr, gz = ring_kernel_gradient(src, (bnd.r, bnd.z))
    exact = bnd.normal_r * gr + bnd.normal_z * gz
    assert np.max(np.abs(dn - exact)) <= tol * np.max(np.abs(exact))


def test_grading_follows_r_min_over_a():
    # disks: 0 from r_min / a = 0.12 up, 0.9 from 0.03 down, monotone between;
    # a rescaled copy keeps its alpha
    def disk(x):   # area 2 pi, r_min = x
        return Disk(R0=np.sqrt(2.0) + x, rho0=np.sqrt(2.0))

    xs = [0.001, 0.029, 0.05, 0.084, 0.1199, 0.1201, 0.136, 1.0, 30.0]
    alphas = [shapes._grading(disk(x)) for x in xs]
    assert alphas[:2] == [0.9, 0.9]
    assert alphas[5:] == [0.0] * 4
    assert all(a > b for a, b in zip(alphas[1:6], alphas[2:6]))
    for x in xs:
        assert shapes._grading(disk(x).scaled(1e3)) == pytest.approx(
            shapes._grading(disk(x)), abs=1e-14)
    star = FourierStar(R0=1.05, base=1.0, coeffs=(0.0, 0.02))
    x = (1.05 - 1.02) / np.sqrt(star.area / (2.0 * np.pi))
    assert shapes._grading(star) == pytest.approx(
        0.9 * np.log(0.12 / x) / np.log(4.0), rel=1e-14)


def test_graded_nodes_are_shared_by_n_and_n_over_2():
    # alpha does not depend on n, so the n/2 solve samples nodes [::2]
    sol = solve_dirichlet(_AXIS_DISK, 0.3, 512)
    half = solve_dirichlet(_AXIS_DISK, 0.3, 256)
    assert sol.alpha == half.alpha == 0.9
    fine, coarse = sol.boundary, half.boundary
    for name in ("t", "r", "z", "speed", "normal_r", "normal_z",
                 "curvature"):
        assert np.array_equal(getattr(fine, name)[::2],
                              getattr(coarse, name)), name
    assert np.array_equal(2.0 * fine.weights[::2], coarse.weights)


def _flow_gap(shape, W=0.3):
    """The flow-speed gap of n = 512 against n = 256 on the shared nodes,
    relative to its sup norm."""
    sol = solve_dirichlet(shape, W, 512)
    half = solve_dirichlet(shape, W, 256)
    assert abs(sol.circulation - 1.0) <= 1e-12
    bnd = half.boundary
    flow = sol.dn_psi[::2] / bnd.r - W * bnd.normal_r
    flow_half = half.dn_psi / bnd.r - W * bnd.normal_r
    return np.max(np.abs(flow - flow_half)) / np.max(np.abs(flow))


@pytest.mark.parametrize("eps", 10.0 ** np.linspace(-2.5, -1.0, 7))
def test_near_axis_flow_speed_converges_at_512(eps):
    # disks eps / R0 off the axis; uniform nodes leave 0.69 at 10^-2.5,
    # graded ones 4.9e-6 there and 7.3e-8 or less on the other rungs
    assert _flow_gap(Disk(R0=1.7, rho0=1.7 * (1.0 - eps))) <= 1e-4


def test_near_axis_flow_speed_against_2048():
    # the ladder's hardest rung, eps / R0 = 10^-2.5: n = 512 against
    # n = 2048 on the shared nodes, 8.7e-10 measured (3.5e-9 with the flow
    # taken from the normal-derivative operator)
    W = 0.3
    shape = Disk(R0=1.7, rho0=1.7 * (1.0 - 10.0 ** -2.5))
    fine = solve_dirichlet(shape, W, 2048)
    sol = solve_dirichlet(shape, W, 512)
    bnd = fine.boundary
    ref = fine.dn_psi / bnd.r - W * bnd.normal_r
    flow = sol.dn_psi / sol.boundary.r - W * sol.boundary.normal_r
    assert np.max(np.abs(flow - ref[::4])) <= 1.5e-9 * np.max(np.abs(ref))


def _ellipse_off_the_axis(m, n, x):
    return Ellipse(R0=m + x * np.sqrt(m * n / 2.0), m=m, n=n)


@pytest.mark.parametrize("m, n, graded_max, uniform_min", [
    (2.0, 0.3, 1e-10, 1e-7),      # measured 1.2e-11, uniform 4.2e-7
    (0.3, 2.0, 1e-4, 1e-2),       # measured 5.7e-6, uniform 1.4e-2
], ids=["flat", "tall"])
def test_graded_ellipse_near_the_axis_beats_uniform_nodes(
        m, n, graded_max, uniform_min, monkeypatch):
    # the flattest and the tallest ellipse `random_smooth_shape` draws,
    # r_min / a = 0.03 off the axis: the rule grades them fully, and the
    # graded gap is below the uniform one
    shape = _ellipse_off_the_axis(m, n, 0.03)
    assert shapes._grading(shape) == pytest.approx(0.9, abs=1e-12)
    graded = _flow_gap(shape)
    monkeypatch.setattr(shapes, "_grading", lambda shape: 0.0)
    uniform = _flow_gap(shape)
    assert graded <= graded_max and uniform >= uniform_min


def test_sharp_outer_tip_keeps_the_grading(monkeypatch):
    # n/m = 0.03: the outer tip's radius of curvature is 0.0073 a, and the
    # map thins the nodes there.  With the flow read off the density that
    # costs less than crowding them at r_min gains, above that radius and
    # below it: at r_min / a = 0.03 the gap is 1.0e-6 graded against 3.1e-6
    # uniform, at 0.005 1.0e-6 against 4.4e-3
    q = 0.03
    m, n = 1.0 / np.sqrt(q), np.sqrt(q)
    sharp, near = (_ellipse_off_the_axis(m, n, x) for x in (0.03, 0.005))
    assert shapes._grading(sharp) == pytest.approx(0.9, abs=1e-12)
    assert shapes._grading(near) == 0.9
    graded = _flow_gap(sharp)
    assert graded <= 2e-6
    assert _flow_gap(near) <= 5e-4
    monkeypatch.setattr(shapes, "_grading", lambda shape: 0.0)
    assert _flow_gap(sharp) >= graded
    assert _flow_gap(near) >= 2e-3


def test_graded_section_is_mirror_symmetric():
    # the map is odd and fixes s = 0 and pi: node n - j mirrors node j
    # exactly, nodes 0 and n/2 sit at t = 0 and pi on z = 0, and the nodes
    # crowd at t = pi
    n = 128
    bnd = boundary_nodes(_AXIS_DISK, n)
    assert bnd.alpha == 0.9
    for name in ("r", "speed", "normal_r", "curvature", "weights"):
        a = getattr(bnd, name)
        assert np.array_equal(a[1:], a[1:][::-1]), name
    for name in ("z", "normal_z"):
        a = getattr(bnd, name)
        assert np.array_equal(a[1:], -a[1:][::-1]), name
    assert bnd.t[0] == 0.0 and bnd.t[n // 2] == np.pi
    assert bnd.z[0] == bnd.z[n // 2] == 0.0
    assert_allclose(bnd.t[1:] + bnd.t[1:][::-1], 2.0 * np.pi, rtol=1e-15)
    r, z = _AXIS_DISK.point(bnd.t)
    assert_allclose(bnd.r, r, rtol=1e-13)
    assert_allclose(bnd.z, z, atol=1e-13)
    # the curvature of a disk is 1/rho0 whatever the parameterization, and
    # the weights still sum to the perimeter
    assert_allclose(bnd.curvature, 1.0, rtol=1e-13)
    assert_allclose(bnd.perimeter, 2.0 * np.pi, rtol=1e-13)
    gaps = np.diff(bnd.t[:n // 2 + 1])
    assert gaps[-1] < 0.2 * gaps[0]


@pytest.mark.parametrize("shape", [SHAPE, Disk(R0=1.55, rho0=np.sqrt(2.0)),
                                   FourierStar(R0=3.0, base=1.0,
                                               coeffs=(0.1, -0.05, 0.02))],
                         ids=["ellipse", "thick-disk", "fourier-star"])
def test_ungraded_solve_samples_the_uniform_grid(shape):
    # alpha = 0: the solver's sample is the uniform one, bit for bit, so
    # its solution is the one uniform nodes always gave
    n = 128
    sol = solve_dirichlet(shape, 0.2, n)
    assert sol.alpha == 0.0 and _render(sol)["alpha"] == 0.0
    bnd = sol.boundary
    half = n // 2
    t = 2.0 * np.pi * np.arange(n) / n
    (dr, dz), (ddr, ddz) = shape.derivs(t[:half + 1])
    speed = np.hypot(dr, dz)
    assert np.array_equal(bnd.t, t)
    assert np.array_equal(bnd.r[:half + 1], shape.point(t[:half + 1])[0])
    assert np.array_equal(bnd.speed[:half + 1], speed)
    assert np.array_equal(bnd.curvature[:half + 1],
                          (dr * ddz - dz * ddr) / speed**3)
    uniform = boundary_nodes(shape, n)
    for name in ("t", "r", "z", "speed", "normal_r", "normal_z",
                 "curvature", "weights"):
        assert np.array_equal(getattr(bnd, name), getattr(uniform, name))


def test_geometry_report_and_solve_share_the_grading():
    # one node rule: the report of a near-axis section and its solve grade
    # with the same alpha, so the solve's nodes are every k-th node of the
    # report's, bit for bit
    rep = geometry_report(_AXIS_DISK)
    sol = solve_dirichlet(_AXIS_DISK, 0.0, 128)
    assert rep.boundary.alpha == sol.alpha == 0.9
    k = rep.resolution // 128
    for name in ("t", "r", "z", "speed", "normal_r", "normal_z",
                 "curvature"):
        assert np.array_equal(getattr(rep.boundary, name)[::k],
                              getattr(sol.boundary, name)), name


# ---------------------------------------------------------------------------
# an outside oracle: Kelvin's hollow vortex ring

def test_thin_hollow_ring_moves_at_kelvins_speed():
    # at large We the best W of a thin disk (core radius 1, circulation 1)
    # is Kelvin's W_K = (ln(8 R0) - 1/2) / (4 pi R0) of a hollow vortex
    # ring, to the order of the terms it neglects, O((1 / R0)^2): each
    # value within 5 % of its measurement (n = 256 and 512 agree to 10
    # digits), and a fall from R0 = 30 to 100 of at least half of
    # (100 / 30)^2 (8.87 measured).  These rings get alpha = 0.
    errs = []
    for R0, measured in [(30.0, 2.91e-4), (100.0, 3.29e-5)]:
        sol, _ = solver.optimal_W_lam(Disk(R0=R0, rho0=1.0), 1e6, 256)
        assert sol.alpha == 0.0
        w_k = (np.log(8.0 * R0) - 0.5) / (4.0 * np.pi * R0)
        errs.append(sol.W / w_k - 1.0)
        assert errs[-1] == pytest.approx(measured, rel=0.05)
    assert errs[0] / errs[1] >= (100.0 / 30.0) ** 2 / 2.0
