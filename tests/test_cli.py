import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bubblering import __version__
from bubblering.cli import main
from bubblering.geometry import ellipse_inv_r2_integral


def _write_shape(tmp_path, payload, name="shape.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ELLIPSE = {"kind": "ellipse", "params": {"R0": 3.0, "m": 2.0, "n": 1.0}}
THICK_DISK = {"kind": "disk",
              "params": {"R0": 1.55, "rho0": float(np.sqrt(2.0))}}
SQUARE = {"kind": "polygon",
          "params": {"vertices": [[1.0, -0.5], [2.0, -0.5], [2.0, 0.5],
                                  [1.0, 0.5]]}}


def test_analyze_reference_ellipse(tmp_path):
    shape = _write_shape(tmp_path, ELLIPSE)
    out = tmp_path / "report.json"
    assert main(["analyze", "--shape", shape, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    exact = ellipse_inv_r2_integral(3.0, 2.0, 1.0) - 2.0 * np.pi
    assert_allclose(payload["report"]["delta"], exact, rtol=1e-10)
    assert payload["version"] == __version__
    assert payload["config"]["command"] == "analyze"
    assert payload["seed"] is None   # analyze has no seed
    assert payload["resolution"] is not None


@pytest.mark.parametrize("argv", [
    ["analyze", "--shape", "{shape}", "--format", "csv"],
    ["bound", "--shape", "{shape}", "--we", "1", "--resolution", "4096"],
    ["analyze", "--shape", "{shape}", "--we", "1"],
    ["solve", "--shape", "{shape}", "--we", "1", "--budget", "5"],
    ["verify-lemmas", "--shape", "x"],
    ["norbury-table", "--seed", "1"],
], ids=["analyze-format", "bound-resolution", "analyze-we", "solve-budget",
        "verify-lemmas-shape", "norbury-table-seed"])
def test_unread_flag_is_rejected(tmp_path, argv):
    # each subcommand takes only the flags it reads: any other is a usage
    # error, and argparse exits 2 before any output is opened
    shape = _write_shape(tmp_path, THICK_DISK)
    out = tmp_path / "a.json"
    with pytest.raises(SystemExit) as exc:
        main([a.format(shape=shape) for a in argv] + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_shape_file_resolution_key_is_ignored(tmp_path):
    # a shape carries no node count; old files with the key still load
    plain = _write_shape(tmp_path, ELLIPSE, "plain.json")
    keyed = _write_shape(tmp_path, {**ELLIPSE, "resolution": 64},
                         "keyed.json")
    reports = []
    for shape in (plain, keyed):
        out = tmp_path / "report.json"
        assert main(["analyze", "--shape", shape, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]


def test_bound_verdict_ruled_out(tmp_path):
    shape = _write_shape(tmp_path, THICK_DISK)
    out = tmp_path / "cert.json"
    assert main(["bound", "--shape", shape, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["report"]
    assert cert["is_thick"]
    half = cert["we_min_best"] / 2.0
    assert main(["bound", "--shape", shape, "--we", str(half),
                 "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["report"]
    assert cert["verdict"] == "RuledOut"


def test_solve_outputs_solution_and_residual(tmp_path):
    shape = _write_shape(tmp_path, THICK_DISK)
    out = tmp_path / "sol.json"
    assert main(["solve", "--shape", shape, "--we", "1.0", "--w", "0.1",
                 "--resolution", "64", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert abs(rep["solution"]["circulation"] - 1.0) < 1e-8
    assert rep["residual"]["dyn_residual_l2"] > 0


def test_missing_we_is_validation_error(tmp_path):
    shape = _write_shape(tmp_path, ELLIPSE)
    assert main(["solve", "--shape", shape]) == 2
    assert main(["search"]) == 2


@pytest.mark.parametrize("command", ["solve", "search"])
def test_resolution_above_maximum_is_validation_error(tmp_path, capsys,
                                                       command):
    # rejected before any assembly: exit 2 and no output file
    shape = (_write_shape(tmp_path, THICK_DISK) if command == "solve"
             else "family:thick-disk")
    out = tmp_path / "a.json"
    assert main([command, "--shape", shape, "--we", "1", "--resolution",
                 "8194", "--out", str(out)]) == 2
    assert "resolution must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_shape_is_validation_error(tmp_path, capsys):
    bad = _write_shape(tmp_path, {"kind": "ellipse", "params": {"R0": 3.0}})
    assert main(["analyze", "--shape", bad]) == 2
    assert "m" in capsys.readouterr().err
    touching = _write_shape(tmp_path, {"kind": "ellipse",
                                       "params": {"R0": 1.0, "m": 1.5,
                                                  "n": 0.5}})
    assert main(["analyze", "--shape", touching]) == 2


def test_polygon_solve_is_solver_failure(tmp_path):
    shape = _write_shape(tmp_path, SQUARE)
    assert main(["solve", "--shape", shape, "--we", "1.0"]) == 3


def test_search_writes_incumbent_and_log(tmp_path):
    out = tmp_path / "search.json"
    assert main(["search", "--shape", "family:thick-disk", "--we", "0.5",
                 "--budget", "10", "--seed", "5", "--resolution", "64",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["n_evaluations"] <= 10
    assert payload["report"]["best_shape"]["kind"] == "disk"
    log = (tmp_path / "search.json.log.csv").read_text().splitlines()
    assert log[0].startswith("eval,params,W,lam,dyn_residual_l2")
    assert len(log) - 1 == payload["report"]["n_evaluations"]


def test_verify_lemmas_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-lemmas", "--seed", "42", "--count", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())["report"]
    assert report["all_passed"]
    assert {s["name"] for s in report["suites"]} >= {
        "ellipse-closed-form", "mean-curvature-identity", "turning-number",
        "outer-radius-ratio", "proof-chain"}
    for suite in report["suites"]:
        assert suite["cases"] > 0


def test_solve_output_independent_of_cached_tables(tmp_path):
    # the second in-process solve reuses the per-n log weights and pair
    # orbits; a fresh process builds them anew
    import os
    import subprocess
    import sys

    import bubblering

    shape = _write_shape(tmp_path, THICK_DISK)
    outs = [tmp_path / f"{name}.json" for name in "abc"]
    args = ["solve", "--shape", shape, "--we", "1.0", "--w", "0.1",
            "--resolution", "128", "--out"]
    assert main(args + [str(outs[0])]) == 0
    assert main(args + [str(outs[1])]) == 0
    src = os.path.dirname(os.path.dirname(bubblering.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-m", "bubblering.cli", *args,
                    str(outs[2])], env=env, check=True)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() == outs[2].read_bytes()


def test_verify_lemmas_reports_outer_radius_violation(tmp_path,
                                                     monkeypatch):
    import dataclasses
    from bubblering import geometry

    real = geometry.geometry_report

    def stretched(shape):
        rep = real(shape)
        return dataclasses.replace(rep, r_max=3.5 * rep.R)

    monkeypatch.setattr(geometry, "geometry_report", stretched)
    out = tmp_path / "lemmas.json"
    assert main(["verify-lemmas", "--seed", "42", "--count", "3",
                 "--out", str(out)]) == 2
    report = json.loads(out.read_text())["report"]
    assert not report["all_passed"]
    suite = {s["name"]: s for s in report["suites"]}["outer-radius-ratio"]
    assert not suite["passed"]
    assert suite["worst_margin"] > 3.0


def test_norbury_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["norbury-table", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and __version__ in lines[0]
    header = lines[1].split(",")
    assert header == ["eps_over_R0", "delta", "delta_scaled", "mu", "we_min"]
    rows = [line.split(",") for line in lines[2:]]
    wemin = [float(r[-1]) for r in rows]
    assert all(np.diff(wemin) > 0)  # diverges as eps decreases down the table
