"""Derivative-free residual minimization over shape families.

The dynamic boundary condition is overdetermined: for generic shapes no
choice of (W, lambda) makes the defect vanish.  `residual_minimize` probes
how small the defect can get within a finite-dimensional family of
cross-sections, which is the numerical face of the low-Weber non-existence
phenomenon: below the certified Weber threshold the minimized residual
stays pinned above a strictly positive floor.

The best (W, lambda >= 0) of each shape is exact (`optimal_W_lam`), so
Nelder-Mead runs over the shape parameters only.  Families renormalize to
area 2 pi, so all runs live in normalized units (a = 1, beta = 1).  Shapes
outside the admissible region (axis touched, convexity lost) or refused by
the solver score inf and are logged as penalized.

Bounded Nelder-Mead asks for the same point more than once (a reflection
clipped onto a bound is re-evaluated until the simplex collapses), so the
objective remembers each distinct parameter vector: a repeat costs no
solve, but still counts toward the budget and gets its own log row.

The Nelder-Mead (`_nelder_mead`) is numpy only: a step-for-step port of
scipy's `_minimize_neldermead` (scipy 1.17.1, BSD-3) for the options used
here.  It asks for the same points as scipy 1.17.1, bit for bit; the
search loads no scipy.optimize, and its results are the same whatever
scipy is installed.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .geometry import normalize
from .shapes import (CrossSection, Disk, Ellipse, FourierStar,
                     InvalidShapeError, node_count)
from .solver import ResidualReport, SolverError, _check_we, optimal_W_lam

__all__ = [
    "ShapeFamily",
    "SearchResult",
    "residual_minimize",
    "family_from_name",
    "SEARCH_RESOLUTION",
]

SEARCH_RESOLUTION = 128

_SQRT2 = np.sqrt(2.0)
_DISK_R0_MAX = np.sqrt(8.0 / 3.0)   # delta >= 0 for the area-2pi disk
_XATOL, _FATOL = 1e-10, 1e-12      # Nelder-Mead's stopping spans in x, f


@dataclass(frozen=True)
class ShapeFamily:
    """Finite-dimensional family of normalized cross-sections: its `name`,
    `initial` parameters, `make_shape(params) -> CrossSection`, which
    raises InvalidShapeError for parameters outside the admissible region,
    and optional (low, high) `bounds` per parameter."""

    name: str
    initial: tuple
    make_shape: Callable[[tuple], CrossSection]
    bounds: tuple | None = None


def _thick_disk(params) -> Disk:
    """Disks of area 2 pi (radius sqrt 2); the center radius R0 ranges over
    the thick window (sqrt 2, sqrt(8/3)]."""
    (R0,) = params
    if not _SQRT2 < R0 <= _DISK_R0_MAX:
        raise InvalidShapeError(
            f"thick-disk family needs sqrt(2) < R0 <= sqrt(8/3), got {R0}")
    return Disk(R0=float(R0), rho0=_SQRT2)


def _ellipse(params) -> Ellipse:
    """Ellipses (R0, m = 1, n), rescaled so the area is exactly 2 pi; m = 1
    fixes the scale that the rescaling would divide out."""
    R0, n = (float(p) for p in params)
    return normalize(Ellipse(R0=R0, m=1.0, n=n), None)[0]


def _fourier(params) -> FourierStar:
    """Star-shaped sections rho(t) = 1 + c2 cos 2t + c3 cos 3t around a
    center R0, rescaled to area 2 pi; parameters (R0, c2, c3)."""
    R0, c2, c3 = (float(p) for p in params)
    # FourierStar numbers its coefficients from j = 1: c1 = 0
    return normalize(FourierStar(R0=R0, base=1.0, coeffs=(0.0, c2, c3)),
                     None)[0]


_FAMILIES = {f.name: f for f in (
    ShapeFamily("thick-disk", (1.55,), _thick_disk,
                bounds=((_SQRT2, _DISK_R0_MAX),)),
    ShapeFamily("ellipse", (2.0, 1.2), _ellipse),
    ShapeFamily("fourier", (2.0, 0.0, 0.0), _fourier),
)}


def family_from_name(name: str) -> ShapeFamily:
    """The family named `name`, with or without a `family:` prefix."""
    name = name.removeprefix("family:")
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; "
                         f"choose from {sorted(_FAMILIES)}") from None


@dataclass
class SearchResult:
    """One search's outcome; `log`, the evaluation log's rows, is neither
    compared nor part of the JSON."""

    family: str
    we: float
    seed: int
    budget: int
    resolution: int
    best_params: tuple
    best_W: float
    best_lam: float
    best_residual: float
    best_shape: CrossSection | None
    best_report: ResidualReport | None
    n_evaluations: int
    n_solves: int
    log: list = field(default_factory=list, compare=False)

    LOG_FIELDS = ("eval", "params", "W", "lam", "dyn_residual_l2",
                  "dyn_residual_max", "penalized")

    def log_rows(self):
        """Rows for the CSV evaluation log."""
        for row in self.log:
            yield dict({k: row[k] for k in self.LOG_FIELDS},
                       params=" ".join(f"{p:.12g}" for p in row["params"]),
                       penalized=int(row["penalized"]))


def _row(family: ShapeFamily, params: tuple, we: float, resolution) -> dict:
    """The log row of one distinct parameter vector, without its eval
    number: solved, or penalized when the family or the solver refuses
    it."""
    try:
        shape = family.make_shape(params)
        sol, rep = optimal_W_lam(shape, we, resolution)
    except (InvalidShapeError, SolverError):
        return {"params": params, "W": np.nan, "lam": np.nan,
                "dyn_residual_l2": np.nan, "dyn_residual_max": np.nan,
                "penalized": True, "shape": None, "report": None}
    return {"params": params, "W": sol.W, "lam": rep.lam,
            "dyn_residual_l2": rep.dyn_residual_l2,
            "dyn_residual_max": rep.dyn_residual_max, "penalized": False,
            "shape": shape, "report": rep}


class _BudgetSpent(Exception):
    """An evaluation was asked for past the budget."""


def _nelder_mead(fun, simplex, bounds, maxfev: int):
    """Minimize `fun` by Nelder-Mead from `simplex` ((N + 1) x N) with at
    most `maxfev` calls; returns the best vertex and its value.

    A step-for-step port of scipy's `_minimize_neldermead` (scipy 1.17.1,
    BSD-3) for the options `residual_minimize` uses: a given initial
    simplex, (low, high) `bounds` per parameter or None, maxfev, xatol =
    `_XATOL` and fatol = `_FATOL`, no maxiter and no adaptive coefficients.
    Same coefficients, same expressions, same sorts, so it asks `fun` for
    the same points bit for bit.  A bounded simplex is reflected into the box and clipped, and
    so is every trial point.  A call past the budget ends the iteration
    it falls in, as scipy's `_MaxFuncCallError` does.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    N = sim.shape[1]
    # clipping a finite point to (-inf, inf) returns it bit for bit
    lo, hi = ((-np.inf, np.inf) if bounds is None
              else np.array(bounds, dtype=float).T)
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)

    def clip(x):
        return np.clip(x, lo, hi)

    fsim = np.full(N + 1, np.inf)
    ncalls = 0

    def f(x):
        nonlocal ncalls
        if ncalls >= maxfev:
            raise _BudgetSpent
        ncalls += 1
        return fun(np.copy(x))

    def order(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = order(*order(sim, fsim))   # scipy sorts twice here
    while ncalls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _XATOL and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = clip((1 + rho) * xbar - rho * sim[-1])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip((1 + rho * chi) * xbar - rho * chi * sim[-1])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:   # outside contraction
                    xc = clip((1 + psi * rho) * xbar - psi * rho * sim[-1])
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:                # inside contraction
                    xc = clip((1 - psi) * xbar + psi * sim[-1])
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = clip(sim[0] + sigma * (sim[j] - sim[0]))
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = order(sim, fsim)
    return sim[0], fsim[0]


def residual_minimize(family: ShapeFamily | str, we: float, budget: int,
                      seed: int = 0,
                      resolution: int = SEARCH_RESOLUTION) -> SearchResult:
    """Minimize dyn_residual_l2 over (family parameters, W, lambda >= 0).

    (W, lambda) are exact per shape (`optimal_W_lam`, one solve); a bounded
    Nelder-Mead from a `seed`-ed simplex searches the shape parameters, and
    is deterministic for fixed seed and budget.  `family` may be a name.
    budget, an integer >= 1, counts evaluations; budget = 1 returns the
    initial candidate's residual.  Family, We, budget and node count are
    checked before the first solve, so a refused search loads no scipy.
    The Nelder-Mead is `_nelder_mead`, scipy 1.17.1's own ported to numpy,
    so the points it visits do not depend on the installed scipy.  Each
    distinct parameter vector (exact bytes, so 0.0 and -0.0 differ) is
    evaluated once, to one row (`_row`); every evaluation logs a copy of
    its vector's row with its own eval number.  n_solves counts the
    distinct vectors.
    """
    if isinstance(family, str):
        family = family_from_name(family)
    _check_we(we)
    try:
        budget = operator.index(budget)
    except TypeError:
        raise ValueError(f"budget must be an integer, got {budget!r}") from None
    if budget < 1:
        raise ValueError("budget must be >= 1")
    resolution = node_count(resolution)

    x0 = np.array(family.initial, dtype=float)
    log: list[dict] = []
    first: dict[bytes, dict] = {}   # exact bytes of x -> its row

    def score(row):
        return np.inf if row["penalized"] else row["dyn_residual_l2"]

    def objective(x):
        key = np.asarray(x, dtype=float).tobytes()
        if key not in first:
            first[key] = _row(family, tuple(float(p) for p in x), we,
                              resolution)
        log.append(dict(first[key], eval=len(log) + 1))
        return score(log[-1])

    rng = np.random.default_rng(seed)
    # reproducible nondegenerate initial simplex around x0; Nelder-Mead
    # evaluates x0 first, so budget = 1 stops there
    steps = 0.05 * (1.0 + np.abs(x0)) * (1.0 + 0.1 * rng.random(x0.size))
    simplex = np.vstack([x0, x0 + np.diag(steps)])
    _nelder_mead(objective, simplex, family.bounds, budget)

    best = min(log, key=score)   # the first of equal minima
    return SearchResult(
        family=family.name,
        we=float(we),
        seed=int(seed),
        budget=budget,
        resolution=resolution,
        best_params=best["params"],
        best_W=best["W"],
        best_lam=best["lam"],
        best_residual=float(score(best)),
        best_shape=best["shape"],
        best_report=best["report"],
        n_evaluations=len(log),
        n_solves=len(first),
        log=log,
    )
