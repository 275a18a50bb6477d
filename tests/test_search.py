import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubblering import search
from bubblering.cli import _render
from bubblering.search import ShapeFamily, family_from_name, residual_minimize
from bubblering.geometry import geometry_report
from bubblering.shapes import Disk, InvalidShapeError


def test_families_produce_normalized_shapes():
    cases = [(fam, fam.initial) for fam in search._FAMILIES.values()]
    cases.append((family_from_name("fourier"), (2.0, 0.05, -0.02)))
    for fam, params in cases:
        shape = fam.make_shape(params)
        rep = geometry_report(shape)
        assert_allclose(rep.area, 2.0 * np.pi, rtol=1e-9)


def test_fourier_family_c2_multiplies_cos_2t():
    # rho = base + c2 cos 2t is even about t = pi/2: rho(0) = rho(pi); a
    # coefficient on cos t would make the section lopsided in r instead
    shape = family_from_name("fourier").make_shape((2.0, 0.1, 0.0))
    (r0, r_pi), _ = shape.point(np.array([0.0, np.pi]))
    assert_allclose(r0 - shape.R0, shape.R0 - r_pi, rtol=1e-14)


@pytest.mark.parametrize("family, params", [
    (family_from_name("ellipse"), (2.0, 1.2)),
    (family_from_name("fourier"), (2.0, 0.05, -0.02)),
], ids=["ellipse", "fourier"])
def test_scaled_parameters_give_a_different_shape(family, params):
    # the rescaling to area 2 pi divides out any common scale, so a family
    # whose parameters carry one would be constant along p -> c p
    rep = geometry_report(family.make_shape(params))
    doubled = geometry_report(family.make_shape(tuple(2.0 * p
                                                      for p in params)))
    assert abs(doubled.mu - rep.mu) > 1e-3 * rep.mu


def test_family_admissibility():
    fam = family_from_name("thick-disk")
    with pytest.raises(InvalidShapeError):
        fam.make_shape((1.0,))  # touches the axis
    with pytest.raises(InvalidShapeError):
        fam.make_shape((2.0,))  # leaves the thick window
    with pytest.raises(ValueError):
        family_from_name("no-such-family")


@pytest.mark.parametrize("name", ["thick-disk", "ellipse", "fourier"])
def test_family_name_prefix_is_optional(name):
    assert family_from_name("family:" + name).name == name
    assert family_from_name(name).name == name


@pytest.mark.parametrize("name", search._FAMILIES)
def test_every_family_starting_point_solves(name):
    # a new family's record is covered once it is in the table
    res = residual_minimize(name, we=0.5, budget=1, resolution=8)
    assert res.best_report is not None
    assert np.isfinite(res.best_residual)


def test_budget_one_returns_initial_candidate():
    res = residual_minimize("thick-disk", we=0.5, budget=1, seed=0,
                            resolution=64)
    assert res.n_evaluations == 1
    assert res.best_params == family_from_name("thick-disk").initial
    assert res.best_report is not None
    assert res.best_residual == res.best_report.dyn_residual_l2


def test_minimization_improves_and_is_deterministic():
    kw = dict(we=0.5, budget=40, seed=42, resolution=64)
    res1 = residual_minimize("thick-disk", **kw)
    res2 = residual_minimize("thick-disk", **kw)
    base = residual_minimize("thick-disk", we=0.5, budget=1, seed=42,
                             resolution=64)
    assert res1.best_residual <= base.best_residual
    assert res1.best_residual == res2.best_residual
    assert res1.best_params == res2.best_params
    assert list(res1.log_rows()) == list(res2.log_rows())
    assert res1.n_evaluations <= 40


def test_penalized_candidates_never_solved():
    res = residual_minimize("thick-disk", we=0.5, budget=60, seed=1,
                            resolution=64)
    for row in res.log:
        if row["penalized"]:
            assert np.isnan(row["dyn_residual_l2"])


def test_log_has_one_row_per_evaluation():
    res = residual_minimize("ellipse", we=1.0, budget=15, seed=3,
                            resolution=64)
    assert len(res.log) == res.n_evaluations
    rows = list(res.log_rows())
    assert [r["eval"] for r in rows] == list(range(1, len(rows) + 1))


def test_resolution_consistency_of_converged_minimum():
    kw = dict(we=0.5, budget=120, seed=7)
    lo = residual_minimize("thick-disk", resolution=64, **kw)
    hi = residual_minimize("thick-disk", resolution=128, **kw)
    # the reported minimum is a property of the family, not the grid
    assert abs(lo.best_residual - hi.best_residual) < 1e-4 * (
        1.0 + lo.best_residual)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        residual_minimize("thick-disk", we=-1.0, budget=5)
    with pytest.raises(ValueError):
        residual_minimize("thick-disk", we=1.0, budget=0)
    # too few nodes is a bad argument, not a rejected shape
    with pytest.raises(ValueError):
        residual_minimize("thick-disk", we=1.0, budget=5, resolution=4)
    # an integral budget only: 2.5 used to run 3 evaluations under budget 2
    for budget in (2.5, np.nan):
        with pytest.raises(ValueError, match="budget must be an integer"):
            residual_minimize("thick-disk", we=0.5, budget=budget,
                              resolution=32)


def test_low_we_floor_is_positive():
    # far below the certificate the minimized defect stays O(1)
    res = residual_minimize("thick-disk", we=0.1, budget=80, seed=0,
                            resolution=64)
    assert res.best_residual > 1.0


def test_thick_disk_floor_converges_within_small_budget():
    # the inner minimum over (W, lambda) is exact, so the 1-D search
    # settles long before either budget binds
    kw = dict(we=0.5, seed=2026, resolution=128)
    small = residual_minimize("thick-disk", budget=100, **kw)
    large = residual_minimize("thick-disk", budget=2000, **kw)
    assert small.best_residual == large.best_residual
    assert small.best_params == large.best_params
    assert small.n_evaluations < 100


def test_each_distinct_point_is_solved_once(monkeypatch):
    from bubblering import search

    calls = []
    real = search.optimal_W_lam

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "optimal_W_lam", counted)
    res = residual_minimize("thick-disk", we=0.5, budget=100, seed=2026,
                            resolution=128)
    distinct = {row["params"] for row in res.log}
    assert len(calls) == res.n_solves == len(distinct) < res.n_evaluations
    assert _render(res)["n_solves"] == res.n_solves
    # a repeat is its first row again, with its own eval number
    first = {}
    for row in res.log:
        seen = first.setdefault(row["params"], row)
        assert {k: v for k, v in row.items() if k != "eval"} == {
            k: v for k, v in seen.items() if k != "eval"}
    assert [row["eval"] for row in res.log] == list(
        range(1, res.n_evaluations + 1))


def _counting_family(built):
    """One parameter; a disk for p >= 0, rejected below; appends each
    build's parameters to `built`."""

    def make_shape(params):
        built.append(params)
        if params[0] < 0:
            raise InvalidShapeError("rejected")
        return Disk(R0=1.55, rho0=np.sqrt(2.0))

    return ShapeFamily("counting", (0.0,), make_shape)


def _scripted_search(monkeypatch, points, family):
    # stand-in optimizer that asks for the given points in order;
    # residual_minimize looks `_nelder_mead` up in its module at each call
    def scripted(fun, simplex, bounds, maxfev):
        for p in points:
            fun(np.array([p]))

    monkeypatch.setattr(search, "_nelder_mead", scripted)
    return residual_minimize(family, we=0.5, budget=len(points),
                             resolution=32)


def test_penalized_repeat_is_not_rebuilt(monkeypatch):
    built = []
    res = _scripted_search(monkeypatch, [-1.0, -1.0, 0.5, -1.0],
                           _counting_family(built))
    assert built == [(-1.0,), (0.5,)]
    assert res.n_evaluations == 4 and res.n_solves == 2
    assert [row["penalized"] for row in res.log] == [True, True, False, True]
    assert res.best_params == (0.5,)


def test_bit_different_points_are_separate_solves(monkeypatch):
    # 0.0 == -0.0 as floats, but they are different parameter vectors
    built = []
    res = _scripted_search(monkeypatch, [0.0, -0.0, 0.0],
                           _counting_family(built))
    assert [np.signbit(p[0]) for p in built] == [False, True]
    assert res.n_evaluations == 3 and res.n_solves == 2
    assert res.log[2]["report"] is res.log[0]["report"]
    assert res.log[1]["report"] is not res.log[0]["report"]


# ---------------------------------------------------------------------------
# the numpy Nelder-Mead against scipy's


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _bumpy(x):
    # a bowl with ripples: contractions fail and the simplex shrinks
    return float(np.sum((x - 0.2) ** 2) + 0.05 * np.sum(np.cos(60.0 * x)))


def _walled(x):
    # inf past a wall, as a penalized candidate scores in a search
    return np.inf if x[0] + x[1] > 0.05 else _rosenbrock(x)


# name: (objective, initial simplex, bounds, whether the run shrinks)
_NM_CASES = {
    # the thick-disk search's shape: the starting vertex 1.68 lies past
    # R0 = sqrt(8/3) and is reflected inside; later reflections clip onto it
    "clipped-1d": (lambda x: float((x[0] - 2.0) ** 2), [[1.55], [1.68]],
                   family_from_name("thick-disk").bounds, False),
    "rosenbrock-2d": (_rosenbrock, [[-1.2, 1.0], [-1.1, 1.0], [-1.2, 1.1]],
                      None, False),
    "rosenbrock-3d": (_rosenbrock, [[-1.0, 1.0, 0.5], [-0.9, 1.0, 0.5],
                                    [-1.0, 1.1, 0.5], [-1.0, 1.0, 0.6]],
                      None, False),
    "bumpy-2d": (_bumpy, [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], None, True),
    "bumpy-3d": (_bumpy, [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0],
                          [0.0, 0.0, 0.1]], None, True),
    # two of the three starting vertices score inf and tie in the sort
    "walled-2d": (_walled, [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], None, False),
}


def _port_points(fun, simplex, bounds, maxfev):
    points = []

    def traced(x):
        points.append(x.tobytes())
        return fun(x)

    x, fx = search._nelder_mead(traced, np.array(simplex), bounds, maxfev)
    return points, x, fx


def _scipy_points(fun, simplex, bounds, maxfev):
    """Points asked for, the call count at the end of each iteration, and
    the result of scipy's Nelder-Mead with residual_minimize's options."""
    from scipy.optimize import minimize
    points, ends = [], []

    def traced(x):
        points.append(x.tobytes())
        return fun(x)

    def callback(intermediate_result):
        ends.append(len(points))

    res = minimize(traced, simplex[0], method="Nelder-Mead", bounds=bounds,
                   callback=callback,
                   options={"maxfev": maxfev, "initial_simplex": simplex,
                            "xatol": 1e-10, "fatol": 1e-12})
    return points, ends, res


@pytest.mark.parametrize("name", _NM_CASES)
def test_nelder_mead_asks_for_scipys_points(name):
    fun, simplex, bounds, shrinks = _NM_CASES[name]
    N = len(simplex[0])
    points, ends, _ = _scipy_points(fun, simplex, bounds, 5000)
    assert len(points) < 5000   # stopped by xatol and fatol
    assert _port_points(fun, simplex, bounds, 5000)[0] == points
    if bounds is not None:
        hi = np.array([b[1] for b in bounds])
        assert hi.tobytes() in points
    # an iteration of N + 2 calls shrinks: a budget in [start + 2, end)
    # ends inside the shrink, after some vertices moved
    starts = [N + 1] + ends[:-1]
    in_shrink = {b for s, e in zip(starts, ends) if e - s == N + 2
                 for b in range(s + 2, e)}
    assert bool(in_shrink) == shrinks
    budgets = {*range(1, 41), N + 1, len(points), len(points) + 1,
               *sorted(in_shrink)[:6]}
    for budget in sorted(budgets):
        want, _, res = _scipy_points(fun, simplex, bounds, budget)
        got, x, fx = _port_points(fun, simplex, bounds, budget)
        assert got == want == points[:budget], budget
        assert x.tobytes() == res.x.tobytes() and fx == res.fun, budget


def test_nelder_mead_pinned_to_scipy_1_17_1():
    # the first 12 points scipy 1.17.1 asks for on the rippled bowl (a
    # reflection, an expansion, contractions, then a shrink's two points),
    # so the port keeps its meaning if a later scipy changes
    pinned = [
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.999999999999ap-4", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.999999999999ap-4"),
        ("0x1.999999999999ap-4", "0x1.999999999999ap-4"),
        ("0x1.3333333333334p-3", "0x1.3333333333334p-3"),
        ("0x1.0000000000000p-2", "0x1.999999999999cp-5"),
        ("0x1.3333333333334p-2", "0x1.999999999999bp-3"),
        ("0x1.0000000000001p-2", "0x1.3333333333334p-3"),
        ("0x1.3333333333336p-3", "0x1.0000000000000p-2"),
        ("0x1.6666666666668p-3", "0x1.999999999999ap-3"),
        ("0x1.999999999999bp-3", "0x1.3333333333334p-3"),
        ("0x1.999999999999ap-3", "0x1.999999999999bp-4"),
    ]
    want = [np.array([float.fromhex(h) for h in p]).tobytes() for p in pinned]
    fun, simplex, bounds, _ = _NM_CASES["bumpy-2d"]
    assert _port_points(fun, simplex, bounds, len(pinned))[0] == want
