"""Command-line front-end: reproducible runs with machine-readable output.

Subcommands
-----------
analyze        geometry report of a shape file (JSON)
bound          low-Weber certificate of the normalized shape (JSON)
solve          exterior stream solve + dynamic-condition residual (JSON)
search         residual minimization over a shape family (JSON + CSV log)
verify-lemmas  seeded property suites with counts and worst margins (JSON)
norbury-table  certificate scaling along the near-axis disk family (CSV)

Each subcommand takes only the flags it reads, plus --out; any other flag
is a usage error.  Exit codes: 0 success, 2 validation or usage error,
3 solver failure.  Every output embeds the invoking config (exactly the
flags the command read), seed, resolution and library version; identical
configs produce byte-identical files.  Every JSON block is one record's
fields, written by `_render`, except `verify-lemmas`' `suites`, which
`cmd_verify_lemmas` builds from `_suite_rows`.  One writer, `_dumps`, emits
every JSON file, byte-identical to the stdlib's `json.dumps` with an indent
of 2, sorted keys and `allow_nan=False`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .shapes import (DEFAULT_RESOLUTION, CrossSection, Ellipse,
                     InvalidShapeError, boundary_nodes, load_shape,
                     random_convex_polygon, random_smooth_shape,
                     shape_to_dict)
from .geometry import (QuadratureError, geometry_report, outer_radius_ratio,
                       normalize, surface_set_length, ellipse_inv_r2_integral)
from .solver import SolverError, dynamic_residual, solve_dirichlet
from .search import SEARCH_RESOLUTION, residual_minimize
from .certify import explicit_bound, norbury_scaling_probe, verdict

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

_UNITS = "normalized, a=1, beta=1"


def _render(value):
    """The JSON form of a result: a section is its shape file, a record the
    dict of its compared fields (those it is equal by), an array or tuple a
    list, and a numpy scalar a Python one; each rendered in turn."""
    if isinstance(value, CrossSection):
        return shape_to_dict(value)
    if dataclasses.is_dataclass(value):
        return {f.name: _render(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.compare}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, tuple):
        return [_render(v) for v in value]
    return value


def _payload(args, report: dict, resolution) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out") and v is not None}
    return {
        "config": config,
        "seed": getattr(args, "seed", None),
        "resolution": resolution,
        "version": __version__,
        "units": _UNITS,
        "report": report,
    }


_ENCODER = json.JSONEncoder(allow_nan=False)


def _dumps(value, indent: str = "\n") -> str:
    """`value` as the text of `json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`, byte for byte, for the values the CLI writes (dict
    keys are strings); `indent` starts each of `value`'s own lines.  A
    list the C encoder renders with no string or container in it holds
    only numbers, true, false and null, none of which holds ", ": that
    text is re-indented whole rather than formatted item by item."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON "
                             f"compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        body = ("," + inner).join(f"{_ENCODER.encode(k)}: {_dumps(v, inner)}"
                                  for k, v in sorted(value.items()))
        return "{" + inner + body + indent + "}" if value else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            text = _ENCODER.encode(value)
            flat = not ('"' in text or "{" in text or "[" in text[1:])
        except ValueError:   # a NaN or infinity: the item-wise path names it
            flat = False
        body = (text[1:-1].replace(", ", "," + inner) if flat else
                ("," + inner).join(_dumps(v, inner) for v in value))
        return "[" + inner + body + indent + "]"
    return _ENCODER.encode(value)


def _emit(args, payload: dict, log: str | None = None) -> None:
    # strict JSON: a NaN or infinity is a ValueError (exit 2) before any
    # file is opened
    _write(args, _dumps(payload) + "\n", log)


def _write(args, text: str, log: str | None = None) -> None:
    """Write `text` to --out, or to stdout without it.  `log`, the search's
    CSV log, goes to <out>.log.csv and is not written without --out.  Every
    file is opened before any is written, and an OSError removes the files
    this call opened, so a failure leaves no output file."""
    if not args.out:
        sys.stdout.write(text)
        return
    files = {args.out: text}
    if log is not None:
        files[args.out + ".log.csv"] = log
    handles = []
    try:
        with contextlib.ExitStack() as stack:
            # newline="": the csv writer's \r\n line ends are kept as is
            for path in files:
                handles.append(stack.enter_context(
                    open(path, "w", newline="")))
            for fh, body in zip(handles, files.values()):
                fh.write(body)
    except OSError:
        for fh in handles:
            os.remove(fh.name)
        raise


def _load(args):
    if args.shape is None:
        raise InvalidShapeError("this command needs --shape")
    return load_shape(args.shape)


def _normalized(shape):
    scaled, a = normalize(shape, None)
    return scaled, a, geometry_report(scaled)


def cmd_analyze(args) -> int:
    shape = _load(args)
    rep = geometry_report(shape)
    _emit(args, _payload(args, _render(rep), rep.resolution))
    return EXIT_OK


def cmd_bound(args) -> int:
    shape = _load(args)
    # explicit_bound takes any scale, but the one report is that of the
    # normalized copy `solve` works on: the rounding of the copy's
    # parameters alone moves delta by up to 3e-10 on eps/R0 = 1e-4 disks
    scaled, a, rep = _normalized(shape)
    cert = explicit_bound(rep, shape=scaled)
    out = _render(cert)
    out["we_min_best"] = cert.best
    out["scale_factor_a"] = a
    if args.we is not None:
        out["we"] = args.we
        out["verdict"] = verdict(cert, args.we)
    _emit(args, _payload(args, out, rep.resolution))
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.we is None:
        raise InvalidShapeError("solve needs --we")
    shape = _load(args)
    # the report is the input gate (QuadratureError on an unresolved section)
    scaled, _, _ = _normalized(shape)
    sol = solve_dirichlet(scaled, args.w, args.resolution)
    rep = dynamic_residual(scaled, sol, args.we, args.lam)
    out = {"solution": _render(sol), "residual": _render(rep)}
    _emit(args, _payload(args, out, sol.resolution))
    return EXIT_OK


def cmd_search(args) -> int:
    if args.we is None:
        raise InvalidShapeError("search needs --we")
    res = residual_minimize(args.shape, we=args.we,
                            budget=args.budget, seed=args.seed,
                            resolution=args.resolution)
    log = io.StringIO()
    writer = csv.DictWriter(log, fieldnames=res.LOG_FIELDS)
    writer.writeheader()
    writer.writerows(res.log_rows())
    out = _render(res)
    if res.best_report is not None:
        # identity_gap is roundoff at optimal_W_lam's lam
        del out["best_report"]["identity_gap"]
    _emit(args, _payload(args, out, args.resolution), log.getvalue())
    return EXIT_OK


def _suite_rows(seed: int, count: int):
    rng = np.random.default_rng(seed)
    suites = []

    # ellipse closed form for the swirl-moment integral
    worst = 0.0
    for _ in range(count):
        m = rng.uniform(0.3, 2.0)
        n = rng.uniform(0.3, 2.0)
        R0 = m + rng.uniform(0.05, 3.0)
        rep = geometry_report(Ellipse(R0=R0, m=m, n=n))
        exact = ellipse_inv_r2_integral(R0, m, n)
        worst = max(worst, abs(rep.delta + 2 * np.pi - exact) / exact)
    suites.append(("ellipse-closed-form", count, worst, worst < 1e-10))

    # total mean curvature identity: integral of H plus delta vanishes
    worst = 0.0
    for _ in range(count):
        rep = geometry_report(random_smooth_shape(rng))
        worst = max(worst, abs(rep.total_mean_curvature + rep.delta))
    suites.append(("mean-curvature-identity", count, worst, worst < 1e-8))

    # turning number of convex sections (smooth and polygonal)
    worst = 0.0
    for _ in range(count):
        shape = random_smooth_shape(rng)
        bnd = boundary_nodes(shape)
        total = float(np.sum(bnd.curvature * bnd.weights))
        worst = max(worst, abs(total - 2 * np.pi))
        poly = random_convex_polygon(rng)
        pbnd = boundary_nodes(poly)
        worst = max(worst, abs(float(np.sum(pbnd.turning_angles)) - 2 * np.pi))
    suites.append(("turning-number", 2 * count, worst, worst < 1e-8))

    # outer-radius ratio bound r_max <= 3 R on convex symmetric sections
    worst = 0.0
    for _ in range(count):
        worst = max(worst, outer_radius_ratio(random_convex_polygon(rng)))
    suites.append(("outer-radius-ratio", count, worst, worst <= 3 + 1e-10))

    # proof-chain inequalities on normalized shapes
    violations = 0
    margin = np.inf
    for _ in range(count):
        scaled, _, rep = _normalized(random_smooth_shape(rng))
        R = rep.R
        h, dR = rep.height_h, rep.r_max - rep.r_min
        b = explicit_bound(rep, scaled).b_star
        checks = [
            2 * h - 2 * np.pi / (3 * R),
            surface_set_length(rep.boundary, b) - np.pi / (3 * R),
            2 * h + 6 * R - surface_set_length(rep.boundary, 0.0),
            h * dR - np.pi,
            3 * R - dR,
        ]
        margin = min(margin, min(checks))
        violations += sum(c < 0 for c in checks)
    suites.append(("proof-chain", count, margin, violations == 0))

    # small-R sections have nonnegative delta; ellipses with n > 2m and
    # m < R0 <= sqrt(m n / 2) are small-R by construction: R = R0, so
    # 2 pi R^2 <= pi m n, the area
    violations = 0
    margin = np.inf
    for _ in range(count):
        m = rng.uniform(0.3, 1.0)
        n = m * rng.uniform(2.3, 6.0)
        R0 = rng.uniform(1.05 * m, np.sqrt(m * n / 2.0))
        rep = geometry_report(Ellipse(R0=R0, m=m, n=n))
        margin = min(margin, rep.delta)
        violations += not (2 * np.pi * rep.R**2 <= rep.area
                           and rep.delta >= -1e-10)
    suites.append(("small-R-nonnegative-delta", count, margin, violations == 0))
    return suites


def cmd_verify_lemmas(args) -> int:
    suites = _suite_rows(args.seed, args.count)
    report = {
        "suites": [
            {"name": name, "cases": cases,
             "worst_margin": float(margin),
             "passed": bool(ok)}
            for name, cases, margin, ok in suites
        ],
        "all_passed": all(ok for *_, ok in suites),
    }
    _emit(args, _payload(args, report, None))
    return EXIT_OK if report["all_passed"] else EXIT_VALIDATION


_NORBURY_COLUMNS = ("eps_over_R0", "delta", "delta_scaled", "mu", "we_min")


def cmd_norbury_table(args) -> int:
    eps = [10.0 ** (-p / 2.0) for p in range(2, 9)]
    rows = norbury_scaling_probe(eps)
    buf = io.StringIO()
    buf.write(f"# version={__version__} units={_UNITS}\n")
    writer = csv.writer(buf)
    writer.writerow(_NORBURY_COLUMNS)
    for row in rows:
        writer.writerow([f"{row[k]:.12g}" for k in _NORBURY_COLUMNS])
    _write(args, buf.getvalue())
    return EXIT_OK


def finite_float(text: str) -> float:
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"not a finite number: {text}")
    return value


def positive_float(text: str) -> float:
    if not 0 < (value := float(text)) < np.inf:
        raise argparse.ArgumentTypeError(
            f"not a finite positive number: {text}")
    return value


def positive_int(text: str) -> int:
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text}")
    return value


# every flag a subcommand may read; each subcommand names its own in
# build_parser, and --out is common to all
_FLAGS = {
    "--shape": dict(help="shape JSON file (search: [family:]<name>)"),
    "--we": dict(type=positive_float, help="Weber number"),
    "--seed": dict(type=int, default=0),
    "--budget": dict(type=int, default=200),
    "--resolution": dict(type=int, help="boundary nodes n of each solve"),
    "--w": dict(type=finite_float, default=0.0, help="translation speed"),
    "--lam": dict(type=finite_float, default=0.0,
                  help="Lagrange multiplier in the dynamic condition"),
    "--count": dict(type=positive_int, default=25, help="cases per suite"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each parse_args call fills a
    fresh Namespace, so no call sees another's values."""
    parser = argparse.ArgumentParser(
        prog="bubblering",
        description="Geometry, stream solves and low-Weber certificates "
                    "for axisymmetric ring cross-sections.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, *flags, **defaults):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", help="output file (default: stdout)")
        p.set_defaults(func=func, **defaults)

    add("analyze", cmd_analyze, "geometry report", "--shape")
    add("bound", cmd_bound, "low-Weber certificate", "--shape", "--we")
    add("solve", cmd_solve, "stream solve + residual", "--shape", "--we",
        "--resolution", "--w", "--lam", resolution=DEFAULT_RESOLUTION)
    add("search", cmd_search, "residual minimization over a family",
        "--shape", "--we", "--seed", "--budget", "--resolution",
        shape="thick-disk", resolution=SEARCH_RESOLUTION)
    add("verify-lemmas", cmd_verify_lemmas, "seeded property suites",
        "--seed", "--count")
    add("norbury-table", cmd_norbury_table, "near-axis scaling table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
