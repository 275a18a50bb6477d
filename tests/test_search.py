import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubblering.search import (
    EllipseFamily,
    FourierFamily,
    ShapeFamily,
    ThickDiskFamily,
    family_from_name,
    residual_minimize,
)
from bubblering.geometry import geometry_report
from bubblering.shapes import Disk, InvalidShapeError


def test_families_produce_normalized_shapes():
    cases = [(fam, fam.initial)
             for fam in [ThickDiskFamily(), EllipseFamily(), FourierFamily()]]
    cases.append((FourierFamily(), (2.0, 0.05, -0.02)))
    for fam, params in cases:
        shape = fam.make_shape(params)
        rep = geometry_report(shape)
        assert_allclose(rep.area, 2.0 * np.pi, rtol=1e-9)


def test_fourier_family_c2_multiplies_cos_2t():
    # rho = base + c2 cos 2t is even about t = pi/2: rho(0) = rho(pi); a
    # coefficient on cos t would make the section lopsided in r instead
    shape = FourierFamily().make_shape((2.0, 0.1, 0.0))
    (r0, r_pi), _ = shape.point(np.array([0.0, np.pi]))
    assert_allclose(r0 - shape.R0, shape.R0 - r_pi, rtol=1e-14)


@pytest.mark.parametrize("family, params", [
    (EllipseFamily(), (2.0, 1.2)),
    (FourierFamily(), (2.0, 0.05, -0.02)),
], ids=["ellipse", "fourier"])
def test_scaled_parameters_give_a_different_shape(family, params):
    # the rescaling to area 2 pi divides out any common scale, so a family
    # whose parameters carry one would be constant along p -> c p
    rep = geometry_report(family.make_shape(params))
    doubled = geometry_report(family.make_shape(tuple(2.0 * p
                                                      for p in params)))
    assert abs(doubled.mu - rep.mu) > 1e-3 * rep.mu


def test_family_admissibility():
    fam = ThickDiskFamily()
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


def test_budget_one_returns_initial_candidate():
    res = residual_minimize("thick-disk", we=0.5, budget=1, seed=0,
                            resolution=64)
    assert res.n_evaluations == 1
    assert res.best_params == ThickDiskFamily().initial
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
    assert res.to_dict()["n_solves"] == res.n_solves
    # a repeat is its first row again, with its own eval number
    first = {}
    for row in res.log:
        seen = first.setdefault(row["params"], row)
        assert {k: v for k, v in row.items() if k != "eval"} == {
            k: v for k, v in seen.items() if k != "eval"}
    assert [row["eval"] for row in res.log] == list(
        range(1, res.n_evaluations + 1))


class _CountingFamily(ShapeFamily):
    """One parameter; a disk for p >= 0, rejected below; counts builds."""

    name = "counting"
    initial = (0.0,)

    def __init__(self):
        self.built = []

    def make_shape(self, params):
        self.built.append(params)
        if params[0] < 0:
            raise InvalidShapeError("rejected")
        return Disk(R0=1.55, rho0=np.sqrt(2.0))


def _scripted_search(monkeypatch, points, family):
    # stand-in optimizer that asks for the given points in order;
    # residual_minimize imports `minimize` from scipy.optimize at each call
    import scipy.optimize

    def scripted(fun, x0, **kwargs):
        for p in points:
            fun(np.array([p]))

    monkeypatch.setattr(scipy.optimize, "minimize", scripted)
    return residual_minimize(family, we=0.5, budget=len(points),
                             resolution=32)


def test_penalized_repeat_is_not_rebuilt(monkeypatch):
    family = _CountingFamily()
    res = _scripted_search(monkeypatch, [-1.0, -1.0, 0.5, -1.0], family)
    assert family.built == [(-1.0,), (0.5,)]
    assert res.n_evaluations == 4 and res.n_solves == 2
    assert [row["penalized"] for row in res.log] == [True, True, False, True]
    assert res.best_params == (0.5,)


def test_bit_different_points_are_separate_solves(monkeypatch):
    # 0.0 == -0.0 as floats, but they are different parameter vectors
    family = _CountingFamily()
    res = _scripted_search(monkeypatch, [0.0, -0.0, 0.0], family)
    assert [np.signbit(p[0]) for p in family.built] == [False, True]
    assert res.n_evaluations == 3 and res.n_solves == 2
    assert res.log[2]["report"] is res.log[0]["report"]
    assert res.log[1]["report"] is not res.log[0]["report"]
