"""Fast self-test of the benchmark (about a minute):

    python3 perfbench/selftest.py

1. Every workload runs for a moment, untraced and traced, passes its checks
   and emits every metric name: the end-to-end and per-layer lists of
   BENCHMARK.json on the last line, and the full set of README.md in the
   report.
2. A corrupted output (the emitted circulation nudged by 1e-6) makes every
   solve operation count as failed.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run

REPORT_E2E = {"setup_s", "ops_per_s", "p50_s", "failed_frac", "peak_rss_mb",
              "err_max", "near_axis_share"}
REPORT_LAYER = {
    "cli.main.self_s", "shapes.boundary_nodes.nodes",
    "geometry.geometry_report.nodes_max", "geometry.surface_set_length.self_s",
    "geometry.width_height.self_s", "certify.explicit_bound.self_s",
    "elliptic.ellip_log_split.elements", "kernel.kernel_split.pairs",
    "kernel.gradient_split.pairs", "solver.single_layer_matrix.bytes",
    "solver.normal_derivative_matrix.bytes", "solver.solve_dirichlet.total_s",
    "solver.dynamic_residual.self_s", "search.residual_minimize.total_s",
    "search.residual_minimize.useful_ratio", "trace.overhead_s",
}
# seconds per workload: long enough for certify to collect a tail sample
SECONDS = {"certify": 1.0, "solve": 0.01, "probe": 0.01}


def check_workloads(spec) -> None:
    for name in run.WORKLOADS:
        for trace in (False, True):
            report, result = run.run_workload(name, 7, SECONDS[name], trace)
            assert result["correct"], (name, trace, report["failures"])
            assert result["attempted"] >= 1 and result["failed"] == 0
            wanted = spec["per_layer" if trace else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in wanted]
            metrics = set(report["metrics"])
            assert REPORT_E2E <= metrics, REPORT_E2E - metrics
            if trace:
                assert REPORT_LAYER <= metrics, REPORT_LAYER - metrics
                assert report["absent"] == []
            if name == "certify":
                assert "tail_s" in metrics and report["tail"]["beyond"] >= 10
            if name == "probe":
                assert "floor" in metrics
            print(f"ok  {name} trace={int(trace)}: "
                  f"{result['attempted']} operations", flush=True)


def check_corruption() -> None:
    from bubblering import cli
    real = cli.main

    def corrupting(argv):
        rc = real(argv)
        path = argv[argv.index("--out") + 1]
        with open(path) as fh:
            data = json.load(fh)
        data["report"]["solution"]["circulation"] += 1e-6
        with open(path, "w") as fh:
            json.dump(data, fh)
        return rc

    cli.main = corrupting
    try:
        report, result = run.run_workload("solve", 7, 0.01, False)
    finally:
        cli.main = real
    assert result["failed"] == result["attempted"] >= 1, result
    assert not result["correct"]
    assert report["failures"][0].startswith("circulation"), report["failures"]
    print("ok  corrupted circulation counted as failed", flush=True)


def check_bare_directory() -> None:
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=scratch) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == "", proc
    print("ok  bare directory exits with code", proc.returncode, flush=True)


def main() -> int:
    run.import_library()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    check_corruption()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
