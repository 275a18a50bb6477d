"""The benchmark's workloads: inputs from a seed, one CLI call per
operation, and the check of each operation's emitted output.

Each workload is a closed loop of `bubblering.cli.main(argv)` calls with
`--out`; the check reads the emitted JSON (and the search's CSV log) and
returns the operation's accuracy error.  Checks run outside the timed
region.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from bubblering.certify import (NOT_RULED_OUT, RULED_OUT, explicit_bound,
                                universal_bound)
from bubblering.geometry import (PhysicalParams, disk_delta,
                                 ellipse_inv_r2_integral, geometry_report,
                                 normalize)
from bubblering.shapes import (Disk, Ellipse, random_convex_polygon,
                               random_smooth_shape, shape_from_dict,
                               shape_to_dict)
from bubblering.solver import (MAX_CONDITION, SOLVER_TOL, dynamic_residual,
                               solve_dirichlet)

_UNIT = PhysicalParams(rho=1.0, sigma=1.0, beta=1.0)
_SQRT2 = math.sqrt(2.0)

# tolerances of the acceptance criteria for the closed-form and identity
# delta checks (criteria 1 and 2)
CLOSED_FORM_RTOL = 1e-10
IDENTITY_TOL = 1e-8
PROBE_FAMILY = "family:thick-disk"


def _arg(x: float) -> str:
    return repr(float(x))


@dataclass
class Item:
    """One operation's input: the subcommand, its arguments after the shape,
    and the shape written to a file (None for a shape family)."""

    command: str
    args: list
    shape: object = None
    near_axis: bool = False

    def argv(self, shape_arg: str, out_path: str) -> list:
        return [self.command, "--shape", shape_arg, *self.args,
                "--out", out_path]


@dataclass
class Check:
    ok: bool
    err: float = math.nan
    reason: str = ""
    floor: float | None = None
    counts: dict = field(default_factory=dict)


def _load(out_path):
    with open(out_path) as fh:
        return json.load(fh)["report"]


class Workload:
    """A workload makes `pool_size` inputs from a seed (`make_inputs`) and
    checks one emitted output (`check`); its warm-up is one operation."""

    def warmup_argv(self, item, shape_arg, out_path):
        return item.argv(shape_arg, out_path)


class Certify(Workload):
    """`bound --we` on a mix of random smooth sections, near-axis disks and
    convex polygons: the cheap answer path, no solver."""

    name = "certify"
    pool_size = 600

    def make_inputs(self, rng):
        items = []
        for i in range(self.pool_size):
            kind = ("smooth", "near-axis", "polygon")[i % 3]
            if kind == "smooth":
                shape = random_smooth_shape(rng)
            elif kind == "near-axis":
                R0 = rng.uniform(0.5, 3.0)
                eps = 10.0 ** rng.uniform(-4.0, -1.0)   # eps / R0
                shape = Disk(R0=R0, rho0=R0 * (1.0 - eps))
            else:
                shape = random_convex_polygon(rng)
            we = 10.0 ** rng.uniform(-2.0, 1.0)
            items.append(Item("bound", ["--we", _arg(we)], shape,
                              near_axis=kind == "near-axis"))
        return items

    def check(self, item, out_path) -> Check:
        rep = _load(out_path)
        shape, delta = item.shape, rep["delta"]
        err = 0.0
        if isinstance(shape, Disk):
            exact = disk_delta(shape.R0, shape.rho0)
        elif isinstance(shape, Ellipse):
            exact = ellipse_inv_r2_integral(shape.R0, shape.m, shape.n) \
                - 2.0 * math.pi
        else:
            exact = None
        if exact is not None:
            err = abs(delta - exact) / (exact + 2.0 * math.pi)
            if not err <= CLOSED_FORM_RTOL:
                return Check(False, err, f"closed-form delta error {err:.3g}")
        scaled, _ = normalize(shape, _UNIT)
        ident = abs(geometry_report(scaled).total_mean_curvature + delta)
        err = max(err, ident)
        if not ident <= IDENTITY_TOL:
            return Check(False, err, f"mean-curvature identity gap {ident:.3g}")
        we_min = universal_bound(rep["mu"], delta)
        if abs(we_min - rep["universal"]["we_min"]) > 1e-12 * we_min:
            return Check(False, err, "universal we_min does not recompute")
        thick_and_below = rep["is_thick"] and rep["we"] < rep["we_min_best"]
        expected = RULED_OUT if thick_and_below else NOT_RULED_OUT
        if rep["verdict"] != expected:
            return Check(False, err, f"verdict {rep['verdict']!r}, "
                                     f"expected {expected!r}")
        return Check(True, err)


class Solve(Workload):
    """`solve` at the CLI default resolution 512: three quarters random
    smooth sections, one quarter near-axis disks on a fixed ladder of
    eps/R0 from 10^-2.5 to 10^-1."""

    name = "solve"
    pool_size = 28
    resolution = 512
    # The n/2 gap of the flow speed depends on eps/R0 alone, and steeply
    # (1e-11 at 1e-1, 0.6 at 10^-2.5), so random eps would make err_max a
    # lottery on the smallest draw.  A ladder the seed only reorders keeps
    # it comparable between runs.  Below 10^-2.5, n = 512 does not resolve
    # the boundary layer and the gap is O(1) noise.
    ladder = 10.0 ** np.linspace(-2.5, -1.0, 7)

    def make_inputs(self, rng):
        rungs = []
        while len(rungs) < self.pool_size // 4:
            rungs.extend(rng.permutation(len(self.ladder)))
        items = []
        for i in range(self.pool_size):
            near = i % 4 == 3
            if near:
                R0 = rng.uniform(0.5, 3.0)
                eps = self.ladder[rungs[i // 4]]
                shape = Disk(R0=R0, rho0=R0 * (1.0 - eps))
            else:
                shape = random_smooth_shape(rng)
            W = rng.uniform(-0.5, 0.5)
            lam = rng.uniform(0.0, 1.0)
            we = 10.0 ** rng.uniform(-1.0, 1.0)
            items.append(Item(
                "solve", ["--resolution", str(self.resolution), "--w", _arg(W),
                          "--lam", _arg(lam), "--we", _arg(we)],
                shape, near_axis=near))
        return items

    def check(self, item, out_path) -> Check:
        rep = _load(out_path)
        sol, res = rep["solution"], rep["residual"]
        if not abs(sol["circulation"] - 1.0) <= SOLVER_TOL:
            return Check(False, reason=f"circulation {sol['circulation']!r}")
        values = [sol[k] for k in ("W", "gamma", "circulation",
                                   "condition_number")]
        values += [v for v in res.values() if isinstance(v, float)]
        arrays = [np.asarray(sol[k], dtype=float)
                  for k in ("density", "psi_trace", "dn_psi")]
        if not (all(math.isfinite(v) for v in values)
                and all(np.all(np.isfinite(a)) for a in arrays)):
            return Check(False, reason="non-finite output")
        if not sol["condition_number"] < MAX_CONDITION:
            return Check(False, reason="condition number above the gate")
        # accuracy: the surface flow speed (1/r) dpsi/dn - W n_r, which the
        # dynamic residual squares, against an n/2 re-solve on the shared
        # nodes [::2]; relative to its sup norm
        W = sol["W"]
        scaled, _ = normalize(item.shape, _UNIT)
        half = solve_dirichlet(scaled, W, sol["resolution"] // 2)
        bnd = half.boundary
        flow = arrays[2][::2] / bnd.r - W * bnd.normal_r
        flow_half = half.dn_psi / bnd.r - W * bnd.normal_r
        err = float(np.max(np.abs(flow - flow_half)) / np.max(np.abs(flow)))
        return Check(True, err)


class Probe(Workload):
    """The criterion-10 residual-floor probe on the thick-disk family at
    We = f * (measured certificate of Disk(1.55, sqrt 2))."""

    name = "probe"
    pool_size = 24
    resolution = 128
    # With budget 2000 the search stops on convergence after 439 to 1497
    # evaluations (4 to 16 s), a chaotic function of We and the seed, so the
    # median of the few operations that fit in a run swings by more than
    # any bound.  A budget of 100 always binds: every operation makes 100
    # evaluations (61 to 78 solves), and about 34 fit in a run.
    budget = 100
    warmup_budget = 10

    def make_inputs(self, rng):
        disk = Disk(R0=1.55, rho0=_SQRT2)
        cert = explicit_bound(geometry_report(disk), shape=disk)
        items = []
        for _ in range(self.pool_size):
            f = rng.uniform(0.02, 0.5)
            seed = int(rng.integers(0, 2**31))
            items.append(Item(
                "search", ["--we", _arg(cert.best * f), "--budget",
                           str(self.budget), "--resolution",
                           str(self.resolution), "--seed", str(seed)]))
        return items

    def warmup_argv(self, item, shape_arg, out_path):
        argv = item.argv(shape_arg, out_path)
        argv[argv.index("--budget") + 1] = str(self.warmup_budget)
        return argv

    def check(self, item, out_path) -> Check:
        rep = _load(out_path)
        floor = rep["best_residual"]
        if not (math.isfinite(floor) and floor > 100.0 * SOLVER_TOL):
            return Check(False, reason=f"floor {floor!r} <= 100 * SOLVER_TOL")
        with open(out_path + ".log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != rep["n_evaluations"]:
            return Check(False, reason="log rows != n_evaluations")
        penalized = sum(int(r["penalized"]) for r in rows)
        counts = {"evaluations": len(rows), "penalized": penalized,
                  "solves": len(rows) - penalized}
        # accuracy: the floor re-evaluated at twice the search resolution
        shape = shape_from_dict(rep["best_shape"])
        fine = solve_dirichlet(shape, rep["best_W"], 2 * rep["resolution"])
        again = dynamic_residual(shape, fine, rep["we"], rep["best_lam"])
        err = abs(again.dyn_residual_l2 - floor) / floor
        return Check(True, err, floor=floor, counts=counts)


WORKLOADS = {w.name: w for w in (Certify(), Solve(), Probe())}


def write_shapes(items, directory) -> list:
    """Write each item's shape file; return the --shape argument per item."""
    paths = []
    for i, item in enumerate(items):
        if item.shape is None:
            paths.append(PROBE_FAMILY)
            continue
        path = directory / f"shape-{i}.json"
        with open(path, "w") as fh:
            json.dump(shape_to_dict(item.shape), fh)
        paths.append(str(path))
    return paths
