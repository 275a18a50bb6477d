"""Benchmark of the bubblering CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload {certify,solve,probe} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.
Each operation calls `bubblering.cli.main(argv)` in-process with `--out`
into a scratch directory under `.perfbench/`, in a closed loop with one
caller, for S seconds, going over the workload's input pool several times.
Every operation's output is checked outside the timed region.  Latencies
are scaled to a reference machine speed (see reference.py), and each input's
latency is the median over its passes.

stdout: a report line (every metric with its unit, the environment, tail
percentile, absent trace names), then, as the last line, the result:
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end metrics
of BENCHMARK.json (`--trace 0`) or its per-layer metrics (`--trace 1`).
A traced run alternates an untraced and a traced call of each input, takes
the per-layer numbers from the traced calls and writes their spans to
`.perfbench/spans-<workload>-<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "solve", "probe")
SETUP_REPEATS = 3
ERR_FLOOR = 1e-10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_library() -> None:
    """Put the checkout's src/ first on the path and import the workloads."""
    src = ROOT / "src"
    if not (src / "bubblering" / "__init__.py").is_file():
        raise BenchmarkError(f"no bubblering package under {src}")
    sys.path.insert(0, str(src))
    import workloads  # noqa: F401  (imports numpy, scipy and bubblering)


def time_import() -> float:
    """Wall seconds of a fresh interpreter that imports the CLI, as a user
    starting `bubblering` pays them."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import bubblering.cli")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


@dataclass
class Record:
    index: int        # position of the input in the pool
    start: float      # perf_counter at the call
    latency: float    # wall seconds of the call
    traced: bool
    near_axis: bool
    check: "workloads.Check"
    scaled: float = math.nan   # latency at the reference machine speed


def run_op(wl, index, item, shape_arg, out_path, tracer=None,
           op_id=0) -> Record:
    """One timed CLI call, then its check outside the timed region."""
    from bubblering import cli
    from workloads import Check
    for stale in (out_path, out_path + ".log.csv"):
        if os.path.exists(stale):
            os.remove(stale)
    argv = item.argv(shape_arg, out_path)
    error = ""
    with tracer.recording(op_id) if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:   # counted as a failed op
            rc, error = None, f"raised {exc!r}"
        latency = time.perf_counter() - t0
    if rc != 0:
        chk = Check(False, reason=error or f"exit code {rc}")
    else:
        try:
            chk = wl.check(item, out_path)
        except Exception as exc:   # a malformed output is a failed op
            chk = Check(False, reason=f"check raised {exc!r}")
    return Record(index, t0, latency, tracer is not None, item.near_axis,
                  chk)


def tail(latencies):
    """Highest percentile of TAIL_PERCENTILES (nearest rank) with at least
    TAIL_MIN_BEYOND samples beyond it, or None."""
    xs = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(xs))
        if rank >= 1 and len(xs) - rank >= TAIL_MIN_BEYOND:
            return {"tail_s": xs[rank - 1], "percentile": pct,
                    "beyond": len(xs) - rank, "samples": len(xs)}
    return None


def input_latencies(records, traced=False) -> list:
    """Each passed input's median scaled latency over the passes of the run,
    which drops the bursts of machine load that the scaling misses."""
    per_input = {}
    for r in records:
        if r.check.ok and r.traced == traced:
            per_input.setdefault(r.index, []).append(r.scaled)
    return [statistics.median(v) for v in per_input.values()]


def end_to_end(records, setup_s):
    """Return (metrics, tail details or None), from the untraced
    operations."""
    untraced = [r for r in records if not r.traced]
    ok = [r for r in untraced if r.check.ok]
    lat = [r.latency for r in ok]
    typical = input_latencies(untraced)
    m = {
        "setup_s": setup_s,
        "ops_per_s": len(typical) / sum(typical) if typical else None,
        "p50_s": statistics.median(typical) if typical else None,
        "ops_per_s_wall": len(ok) / sum(r.latency for r in untraced),
        "p50_wall_s": statistics.median(lat) if lat else None,
        "passes": len(untraced) / len({r.index for r in untraced}),
        "failed_frac": (len(untraced) - len(ok)) / len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "err_max": max([ERR_FLOOR] + [r.check.err for r in ok]) if ok else None,
        "near_axis_share": sum(r.near_axis for r in untraced)
        / len(untraced),
    }
    t = tail([r.scaled for r in ok])
    if t:
        m["tail_s"] = t["tail_s"]
    floors = [r.check.floor for r in ok if r.check.floor is not None]
    if floors:
        m["floor"] = statistics.median(floors)
    return m, t


def per_layer(records, tracer) -> dict:
    """Tracer metrics, the search counts read from the CSV log, and the
    tracing overhead over the same inputs."""
    traced = [r for r in records if r.traced]
    n = max(len(traced), 1)
    m = tracer.per_layer(n)
    totals = {}
    for key in ("evaluations", "solves", "penalized"):
        totals[key] = sum(r.check.counts.get(key, 0) for r in traced)
        m[f"search.residual_minimize.{key}"] = totals[key] / n
    m["search.residual_minimize.useful_ratio"] = (
        totals["solves"] / totals["evaluations"] if totals["evaluations"]
        else 0.0)
    p50 = {flag: statistics.median(input_latencies(records, flag)
                                   or [math.nan])
           for flag in (False, True)}
    m["trace.p50_untraced_s"] = p50[False]
    m["trace.p50_traced_s"] = p50[True]
    m["trace.overhead_s"] = p50[True] - p50[False]
    return m


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_s": "s", "tail_s": "s",
         "failed_frac": "1", "peak_rss_mb": "MB", "err_max": "rel",
         "floor": "1", "near_axis_share": "1", "ops_per_s_wall": "1/s",
         "p50_wall_s": "s", "passes": "1"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    quantity = name.rsplit(".", 1)[-1]
    if quantity.endswith("_s"):
        return "s/op" if not name.startswith("trace.") else "s"
    return {"bytes": "B/op", "nodes_max": "count", "useful_ratio": "1"}.get(
        quantity, "count/op")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    import bubblering
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": _blas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bubblering": bubblering.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy's wheel bundles."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload; return (report, result)."""
    import numpy as np
    from bubblering import cli
    from reference import Reference
    from tracing import Tracer
    from workloads import WORKLOADS as WLS, write_shapes

    wl = WLS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=scratch) as tmp:
        work = Path(tmp)
        out_path = str(work / "out.json")
        import_times, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(time_import())
            t0 = time.perf_counter()
            items = wl.make_inputs(np.random.default_rng(seed))
            shape_args = write_shapes(items, work)
            cli.main(wl.warmup_argv(items[0], shape_args[0], out_path))
            setup_times.append(import_times[-1] + time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)

        tracer = Tracer() if trace else None
        ref = Reference()
        ref.sample(force=True)
        records = []
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            i = k % len(items)
            for t in ((None, tracer) if trace else (None,)):
                records.append(run_op(wl, i, items[i], shape_args[i],
                                      out_path, t, len(records)))
                ref.sample()
            k += 1
            if time.perf_counter() >= deadline:
                break
        ref.sample(force=True)
        for r in records:
            r.scaled = r.latency * ref.scale(r.start + r.latency / 2)

    metrics, tail_info = end_to_end(records, setup_s)
    if trace:
        metrics.update(per_layer(records, tracer))
        spans_path = scratch / f"spans-{name}-{seed}.jsonl"
        tracer.write(spans_path)
    failed = sum(not r.check.ok for r in records)
    reasons = sorted({r.check.reason for r in records if not r.check.ok})
    report = {
        "workload": name, "seconds": seconds, "trace": int(trace),
        "env": environment(seed),
        "tail": tail_info,
        "setup": {"repeats_s": setup_times, "import_s": import_times},
        "reference": ref.summary(),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(metrics.items())},
        "absent": tracer.absent if trace else [],
        "spans": str(spans_path.relative_to(ROOT)) if trace else None,
        "failures": reasons[:5],
    }
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = {m["name"]: metrics.get(m["name"]) for m in wanted}
    result = {
        "correct": failed == 0 and all(
            isinstance(v, float) and math.isfinite(v) for v in values.values()),
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
