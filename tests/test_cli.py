import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bubblering
from bubblering import __version__
from bubblering.cli import main
from bubblering.geometry import ellipse_inv_r2_integral


def _write_shape(tmp_path, payload, name="shape.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _fresh_python(code, *args):
    """Run `code` with `args` in a new interpreter that imports bubblering
    from this source tree; it must exit 0.  Returns the finished process."""
    src = str(Path(bubblering.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)


ELLIPSE = {"kind": "ellipse", "params": {"R0": 3.0, "m": 2.0, "n": 1.0}}
THICK_DISK = {"kind": "disk",
              "params": {"R0": 1.55, "rho0": float(np.sqrt(2.0))}}
STAR = {"kind": "fourier-star",
        "params": {"R0": 3.0, "base": 1.0, "coeffs": [0.0, 0.05, -0.02]}}
SQUARE = {"kind": "polygon",
          "params": {"vertices": [[1.0, -0.5], [2.0, -0.5], [2.0, 0.5],
                                  [1.0, 0.5]]}}


def test_version_is_the_distribution_version():
    # pyproject.toml read with a regex: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', text, re.M) == [__version__]


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


@pytest.mark.parametrize("argv", [
    ["solve", "--shape", "{shape}", "--we", "nan"],
    ["solve", "--shape", "{shape}", "--we", "inf"],
    ["solve", "--shape", "{shape}", "--we", "1", "--lam", "nan"],
    ["solve", "--shape", "{shape}", "--we", "1", "--w", "nan"],
    ["bound", "--shape", "{shape}", "--we", "nan"],
    ["bound", "--shape", "{shape}", "--we", "inf"],
    ["search", "--shape", "family:thick-disk", "--we", "inf"],
    ["verify-lemmas", "--count", "0"],
    ["solve", "--shape", "{shape}", "--we", "-1"],
    ["solve", "--shape", "{shape}", "--we", "0"],
    ["bound", "--shape", "{shape}", "--we", "0"],
    ["search", "--shape", "family:thick-disk", "--we", "-0.5"],
], ids=["solve-we-nan", "solve-we-inf", "solve-lam-nan", "solve-w-nan",
        "bound-we-nan", "bound-we-inf", "search-we-inf", "lemmas-count-0",
        "solve-we-negative", "solve-we-0", "bound-we-0",
        "search-we-negative"])
def test_non_finite_number_or_empty_count_is_rejected(tmp_path, argv):
    # a NaN or infinite Weber number, speed or multiplier, a Weber number
    # <= 0, and a suite of zero cases, are usage errors: exit 2 before any
    # output is opened, and before any shape is read or solved
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
    # the user's lam: the gap says how far it is from the balancing value
    assert rep["residual"]["identity_gap"] > 0
    assert "identity_gap_rel" not in rep["residual"]


def test_missing_we_is_validation_error(tmp_path):
    shape = _write_shape(tmp_path, ELLIPSE)
    assert main(["solve", "--shape", shape]) == 2
    assert main(["search"]) == 2


@pytest.mark.parametrize("command", ["solve", "search"])
def test_resolution_above_maximum_is_validation_error(tmp_path, capsys,
                                                       command):
    # rejected before any assembly, as is an odd node count: exit 2 and no
    # output file
    shape = (_write_shape(tmp_path, THICK_DISK) if command == "solve"
             else "family:thick-disk")
    out = tmp_path / "a.json"
    for resolution in ("8194", "129" if command == "solve" else "65"):
        assert main([command, "--shape", shape, "--we", "1", "--resolution",
                     resolution, "--out", str(out)]) == 2
        assert "resolution must lie in [8, 8192]" in capsys.readouterr().err
        assert not out.exists()


def test_malformed_shape_is_validation_error(tmp_path, capsys):
    bad = _write_shape(tmp_path, {"kind": "ellipse", "params": {"R0": 3.0}})
    assert main(["analyze", "--shape", bad]) == 2
    assert "m" in capsys.readouterr().err
    touching = _write_shape(tmp_path, {"kind": "ellipse",
                                       "params": {"R0": 1.0, "m": 1.5,
                                                  "n": 0.5}})
    assert main(["analyze", "--shape", touching]) == 2


NON_FINITE = {
    "disk": {"kind": "disk", "params": {"R0": float("nan"), "rho0": 1.0}},
    "ellipse": {"kind": "ellipse",
                "params": {"R0": float("inf"), "m": 1.0, "n": 1.0}},
    "fourier-star": {"kind": "fourier-star",
                     "params": {"R0": 3.0, "base": 1.0,
                                "coeffs": [0.0, float("nan")]}},
    "polygon": {"kind": "polygon",
                "params": {"vertices": [[1.0, -0.5], [2.0, -0.5],
                                        [2.0, 0.5], [float("nan"), 0.5]]}},
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE))
@pytest.mark.parametrize("argv", [["analyze"], ["bound", "--we", "0.1"],
                                  ["solve", "--we", "1",
                                   "--resolution", "64"]])
def test_non_finite_shape_parameter_is_validation_error(tmp_path, capsys,
                                                        kind, argv):
    # json reads NaN and Infinity; they are exit 2 with no output file
    shape = _write_shape(tmp_path, NON_FINITE[kind])
    out = tmp_path / "a.json"
    assert main([*argv, "--shape", shape, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"kind": "disk", "params": [1, 2]},
    {"kind": "disk", "params": {"R0": "abc", "rho0": 1.0}},
    {"kind": "fourier-star", "params": {"R0": 3.0, "base": 1.0,
                                        "coeffs": None}},
    {"kind": "fourier-star", "params": {"R0": 3.0, "base": 1.0,
                                        "coeffs": 0.1}},
    # a kind that is no string is an unknown kind, not a TypeError
    {"kind": [], "params": {}},
    {"kind": None, "params": {}},
    {"kind": 3, "params": {}},
])
def test_malformed_shape_type_is_validation_error(tmp_path, payload):
    shape = _write_shape(tmp_path, payload)
    out = tmp_path / "a.json"
    for argv in (["analyze"], ["bound"], ["solve", "--we", "1"]):
        assert main([*argv, "--shape", shape, "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("payload", [
    # eps/R0 = 1e-9: the boundary quadrature does not converge
    {"kind": "disk", "params": {"R0": 1.0, "rho0": 1.0 - 1e-9}},
    {"kind": "polygon",
     "params": {"vertices": SQUARE["params"]["vertices"][::-1]}},
    # the report's check is the only one bound runs on a section: a
    # non-convex star, a pentagram and an asymmetric tiny triangle
    {"kind": "fourier-star",
     "params": {"R0": 3.0, "base": 1.0, "coeffs": [0.0, 0.4]}},
    {"kind": "polygon",
     "params": {"vertices": [[3.0 + np.cos(0.4 * np.pi * k),
                              np.sin(0.4 * np.pi * k)]
                             for k in (0, 2, 4, 1, 3)]}},
    {"kind": "polygon",
     "params": {"vertices": [[1e-13, -1e-13], [3e-13, 0.0], [1e-13, 2e-13]]}},
    # polygons that touch or cross the axis
    {"kind": "polygon",
     "params": {"vertices": [[0.0, -1.0], [2.0, -1.0], [2.0, 1.0],
                             [0.0, 1.0]]}},
    {"kind": "polygon",
     "params": {"vertices": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                             [-1.0, 1.0]]}},
    # finite parameters whose area overflows: analyze refuses the report,
    # bound and solve the normalization
    {"kind": "disk", "params": {"R0": 1e308, "rho0": 1e307}},
    # the clockwise form of the smoke test's pentagon
    {"kind": "polygon",
     "params": {"vertices": [[1, 0.5], [2, 0.8], [2.5, 0], [2, -0.8],
                             [1, -0.5]]}},
])
@pytest.mark.parametrize("argv", [["analyze"], ["bound", "--we", "0.1"],
                                  ["solve", "--we", "1",
                                   "--resolution", "128"]])
def test_unconverged_or_clockwise_section_is_validation_error(
        tmp_path, payload, argv):
    shape = _write_shape(tmp_path, payload)
    out = tmp_path / "a.json"
    assert main([*argv, "--shape", shape, "--out", str(out)]) == 2
    assert not out.exists()


REFUSED = {
    "two-vertices": ('{"kind": "polygon", "params": {"vertices": '
                     '[[1, 0], [2, 0]]}}',
                     "polygon needs at least 3 vertices"),
    "repeated-vertex": ('{"kind": "polygon", "params": {"vertices": '
                        '[[1, -0.5], [2, -0.5], [2, -0.5], [2, 0.5], '
                        '[1, 0.5]]}}', "polygon has a repeated vertex"),
    "non-convex-polygon": ('{"kind": "polygon", "params": {"vertices": '
                           '[[1, -1], [3, -1], [2, 0], [3, 1], [1, 1]]}}',
                           "polygon is not convex: negative turning angle"),
    "star-base": ('{"kind": "fourier-star", "params": {"R0": 3, "base": 0, '
                  '"coeffs": []}}',
                  "fourier-star base radius must be positive"),
    "star-vanishing": ('{"kind": "fourier-star", "params": {"R0": 3, '
                       '"base": 1, "coeffs": [0.5, -0.5]}}',
                       "fourier-star radius may vanish"),
    # FourierStar.validate does not compare R0 with the radius: the
    # sampled section's own check refuses it
    "star-crossing-axis": ('{"kind": "fourier-star", "params": {"R0": 0.5, '
                           '"base": 1, "coeffs": []}}',
                           "curve touches the axis"),
    "unknown-kind": ('{"kind": "triangle", "params": {}}',
                     "unknown shape kind 'triangle'"),
    "not-json": ("not json", "shape file is not valid JSON"),
    "many-vertices": (json.dumps({"kind": "polygon", "params": {"vertices": [
        [3 + math.cos(2 * math.pi * k / 8193),
         math.sin(2 * math.pi * k / 8193)] for k in range(8193)]}}),
        "polygon has 8193 vertices, more than 8192"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
@pytest.mark.parametrize("argv", [["analyze"], ["bound", "--we", "0.1"],
                                  ["solve", "--we", "1",
                                   "--resolution", "64"]])
def test_refused_shape_file_is_validation_error(tmp_path, capsys, case,
                                                argv):
    text, message = REFUSED[case]
    shape = tmp_path / "shape.json"
    shape.write_text(text)
    out = tmp_path / "a.json"
    assert main([*argv, "--shape", str(shape), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_without_shape_is_validation_error(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert main(["analyze", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: this command needs --shape\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["analyze"], ["bound", "--we", "0.1"],
                                  ["solve", "--we", "1",
                                   "--resolution", "64"]])
def test_integer_too_large_for_a_float_is_validation_error(tmp_path, capsys,
                                                           argv):
    # json reads `1` followed by 400 zeros as an int that no float holds
    shape = tmp_path / "huge.json"
    shape.write_text('{"kind": "disk", "params": {"R0": 1' + "0" * 400
                     + ', "rho0": 1}}')
    out = tmp_path / "a.json"
    assert main([*argv, "--shape", str(shape), "--out", str(out)]) == 2
    assert "too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", [THICK_DISK, ELLIPSE, SQUARE, STAR])
def test_bound_builds_one_geometry_report(tmp_path, count_calls, payload):
    from bubblering import geometry, shapes
    calls = count_calls(geometry, "geometry_report")
    samples = count_calls(shapes, "boundary_nodes")
    shape = _write_shape(tmp_path, payload)
    assert main(["bound", "--shape", shape, "--we", "0.1",
                 "--out", str(tmp_path / "a.json")]) == 0
    assert len(calls) == 1
    # the report's sample is the one the certificate measures on
    assert len(samples) == 1


def test_underflowing_report_is_validation_error(tmp_path, capsys):
    # the section's speed**3 is subnormal: analyze refuses it, while bound
    # and solve work on the normalized copy
    shape = _write_shape(tmp_path, {"kind": "disk",
                                    "params": {"R0": 1e-105, "rho0": 1e-106}})
    out = tmp_path / "a.json"
    assert main(["analyze", "--shape", shape, "--out", str(out)]) == 2
    assert "speed**3" in capsys.readouterr().err
    assert not out.exists()
    assert main(["bound", "--shape", shape, "--we", "0.1",
                 "--out", str(out)]) == 0
    assert main(["solve", "--shape", shape, "--we", "1", "--resolution", "64",
                 "--out", str(out)]) == 0


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
    assert 1 <= payload["report"]["n_solves"] <= 10
    assert payload["report"]["best_shape"]["kind"] == "disk"
    log = (tmp_path / "search.json.log.csv").read_text().splitlines()
    assert log[0] == ("eval,params,W,lam,dyn_residual_l2,dyn_residual_max,"
                      "penalized")
    assert len(log) - 1 == payload["report"]["n_evaluations"]
    # identity_gap is roundoff at the search's lam, so neither reports it
    assert "identity_gap" not in payload["report"]["best_report"]


def test_search_family_prefix_is_optional(tmp_path):
    outs = []
    for name in ("thick-disk", "family:thick-disk"):
        out = tmp_path / f"{name}.json"
        assert main(["search", "--shape", name, "--we", "0.5", "--budget",
                     "3", "--resolution", "32", "--out", str(out)]) == 0
        outs.append(_strict_json(out))
    del outs[0]["config"]["shape"], outs[1]["config"]["shape"]
    assert outs[0] == outs[1]


def test_search_that_cannot_write_its_log_leaves_no_output(tmp_path,
                                                           capsys):
    # the JSON's name fits the file system's 255 bytes, its log's does not:
    # both files are opened before either is written, so neither is left
    out = tmp_path / ("x" * 250 + ".json")
    assert main(["search", "--we", "0.5", "--budget", "2", "--resolution",
                 "32", "--out", str(out)]) == 2
    assert "File name too long" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_search_refuses_an_empty_shape(tmp_path, capsys):
    # an omitted --shape is the thick-disk family; an empty name is not
    # a family, as it is no shape file for the other commands
    out = tmp_path / "search.json"
    assert main(["search", "--shape", "", "--we", "1", "--budget", "2",
                 "--resolution", "32", "--out", str(out)]) == 2
    assert "unknown family ''" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "search.json.log.csv").exists()
    assert main(["search", "--we", "1", "--budget", "2", "--resolution",
                 "32", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["family"] == "thick-disk"


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


def test_verify_lemmas_samples_each_proof_chain_shape_once(tmp_path,
                                                          count_calls):
    # the proof chain measures |S(b)| on its report's checked boundary;
    # it is the only suite whose shapes are normalized to area 2 pi
    from bubblering import shapes
    samples = count_calls(shapes, "boundary_nodes")
    assert main(["verify-lemmas", "--seed", "42", "--count", "5",
                 "--out", str(tmp_path / "a.json")]) == 0
    chain = [args[0] for args in samples
             if abs(args[0].area - 2.0 * np.pi) < 1e-9]
    assert len(chain) == len(set(chain)) == 5


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_verify_lemmas_small_r_suite_reports_a_margin(tmp_path):
    # the suite draws small-R ellipses by construction, so it checks every
    # case, at the CI seed too (random sections were never small-R there)
    out = tmp_path / "lemmas.json"
    assert main(["verify-lemmas", "--seed", "42", "--count", "5",
                 "--out", str(out)]) == 0
    suites = {s["name"]: s for s in _strict_json(out)["report"]["suites"]}
    small_r = suites["small-R-nonnegative-delta"]
    assert small_r["worst_margin"] is not None
    assert small_r["worst_margin"] >= -1e-10
    assert small_r["cases"] == 5 and small_r["passed"]


def test_non_finite_report_is_validation_error(tmp_path, capsys):
    # finite parameters whose geometry overflows: exit 2, no output file
    shape = _write_shape(tmp_path, {"kind": "disk",
                                    "params": {"R0": 1e308, "rho0": 1e307}})
    out = tmp_path / "a.json"
    assert main(["analyze", "--shape", shape, "--out", str(out)]) == 2
    assert "field area is nan" in capsys.readouterr().err
    assert not out.exists()


def test_parser_built_once_keeps_defaults_per_call(tmp_path):
    # the cached parser fills a fresh Namespace per call: nothing read by
    # one subcommand leaks into the next
    from bubblering.cli import build_parser

    assert build_parser() is build_parser()
    shape = _write_shape(tmp_path, THICK_DISK)
    solve = ["solve", "--shape", shape, "--we", "1.0"]
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(solve + ["--out", str(first)]) == 0
    search = tmp_path / "search.json"
    assert main(["search", "--shape", "family:thick-disk", "--we", "0.5",
                 "--budget", "3", "--seed", "9", "--out", str(search)]) == 0
    assert main(["bound", "--shape", shape, "--we", "0.1",
                 "--out", str(tmp_path / "bound.json")]) == 0
    unread = tmp_path / "unread.json"
    with pytest.raises(SystemExit) as exc:
        main(solve + ["--budget", "5", "--out", str(unread)])
    assert exc.value.code == 2
    assert not unread.exists()
    assert main(solve + ["--out", str(again)]) == 0
    assert first.read_bytes() == again.read_bytes()
    assert _strict_json(first)["resolution"] == 512
    assert _strict_json(search)["resolution"] == 128


def test_solve_output_independent_of_cached_tables(tmp_path):
    # the second in-process solve reuses the per-n log weights and pair
    # orbits; a fresh process builds them anew
    shape = _write_shape(tmp_path, THICK_DISK)
    outs = [tmp_path / f"{name}.json" for name in "abc"]
    args = ["solve", "--shape", shape, "--we", "1.0", "--w", "0.1",
            "--resolution", "128", "--out"]
    assert main(args + [str(outs[0])]) == 0
    assert main(args + [str(outs[1])]) == 0
    _fresh_python("import sys, bubblering.cli; "
                  "sys.exit(bubblering.cli.main(sys.argv[1:]))",
                  *args, str(outs[2]))
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


def test_numpy_only_commands_load_no_scipy(tmp_path):
    # import bubblering, analyze, bound, norbury-table and verify-lemmas run
    # on numpy alone: a fresh process that runs them never imports scipy
    star = _write_shape(tmp_path, STAR, "star.json")
    square = _write_shape(tmp_path, SQUARE, "square.json")
    runs = {
        "analyze": ["analyze", "--shape", star],
        "bound": ["bound", "--shape", star, "--we", "0.1"],
        "bound-polygon": ["bound", "--shape", square, "--we", "0.1"],
        "norbury-table": ["norbury-table"],
        "verify-lemmas": ["verify-lemmas", "--seed", "42", "--count", "5"],
    }
    code = textwrap.dedent("""
        import json, sys

        def scipy_modules():
            return sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))

        import bubblering
        loaded = {"import bubblering": scipy_modules()}
        import bubblering.cli
        loaded["import bubblering.cli"] = scipy_modules()
        for name, argv in json.loads(sys.argv[1]).items():
            status = bubblering.cli.main(argv)
            loaded[name] = scipy_modules() if status == 0 else status
        print(json.dumps(loaded))
    """)
    argvs = {name: argv + ["--out", str(tmp_path / f"{name}.out")]
             for name, argv in runs.items()}
    loaded = json.loads(_fresh_python(code, json.dumps(argvs)).stdout)
    assert loaded == {name: [] for name in
                      ["import bubblering", "import bubblering.cli", *runs]}


def test_refused_search_loads_no_scipy(tmp_path):
    # the node count is checked with We and the budget, before
    # scipy.optimize is imported
    out = tmp_path / "search.json"
    code = textwrap.dedent("""
        import sys
        import bubblering.cli
        status = bubblering.cli.main(sys.argv[1:])
        print(status, sorted(m for m in sys.modules
                             if m == "scipy" or m.startswith("scipy.")))
    """)
    proc = _fresh_python(code, "search", "--shape", "family:thick-disk",
                         "--we", "1", "--resolution", "65", "--out", str(out))
    assert proc.stdout == "2 []\n"
    assert proc.stderr == ("error: resolution must lie in [8, 8192] and be "
                           "even, got 65\n")
    assert not out.exists()


def test_subnormal_weber_number_is_refused_before_any_solve(tmp_path):
    # a subnormal We makes the residual quartics' companion matrices
    # overflow; the search refuses it with its checks, so it loads no scipy
    out = tmp_path / "search.json"
    code = textwrap.dedent("""
        import sys
        import bubblering.cli
        status = bubblering.cli.main(sys.argv[1:])
        print(status, sorted(m for m in sys.modules
                             if m == "scipy" or m.startswith("scipy.")))
    """)
    proc = _fresh_python(code, "search", "--shape", "family:thick-disk",
                         "--we", "1e-320", "--budget", "2", "--resolution",
                         "32", "--out", str(out))
    assert proc.stdout == "2 []\n"
    assert proc.stderr == ("error: Weber number 1e-320 is subnormal: it must "
                           "be at least 2.22507e-308\n")
    assert not out.exists()


def test_search_loads_scipy_linalg_but_not_optimize(tmp_path):
    # the search's Nelder-Mead is numpy only; its solves load scipy.linalg
    out = tmp_path / "search.json"
    code = textwrap.dedent("""
        import json, sys
        import bubblering.cli
        status = bubblering.cli.main(sys.argv[1:])
        print(json.dumps([status, "scipy.linalg" in sys.modules,
                          sorted(m for m in sys.modules
                                 if m.startswith("scipy.optimize"))]))
    """)
    proc = _fresh_python(code, "search", "--shape", "family:thick-disk",
                         "--we", "0.5", "--budget", "10", "--resolution",
                         "64", "--out", str(out))
    assert json.loads(proc.stdout) == [0, True, []]
    assert json.loads(out.read_text())["report"]["n_solves"] >= 1


# The CLI contract end to end: each command below, with its shape files in
# one shared directory, writes the same bytes in any fresh interpreter and
# in any order of commands.  "{}" in an argv is that directory.
SMOKE_SHAPES = {
    "disk": THICK_DISK,
    "near-axis": {"kind": "disk",
                  "params": {"R0": 1.7, "rho0": 1.7 * (1 - 10 ** -2.5)}},
    "deep-axis": {"kind": "disk", "params": {"R0": 1, "rho0": 0.999999}},
    "star": {"kind": "fourier-star",
             "params": {"R0": 3, "base": 1, "coeffs": [0, 0.05, -0.02]}},
    "flat": {"kind": "ellipse", "params": {"R0": 3, "m": 1, "n": 0.1}},
    # n/m = 0.03, r_min / a = 0.03: an outer tip sharper than r_min, graded
    "sharp": {"kind": "ellipse",
              "params": {"R0": 0.03 ** -0.5 + 0.03 * 0.5 ** 0.5,
                         "m": 0.03 ** -0.5, "n": 0.03 ** 0.5}},
    "poly": {"kind": "polygon",
             "params": {"vertices": [[1, -0.5], [2, -0.8], [2.5, 0],
                                     [2, 0.8], [1, 0.5]]}},
    # a regular polygon with the most vertices a polygon may have
    "max-poly": {"kind": "polygon", "params": {"vertices": [
        [3 + math.cos(2 * math.pi * k / 8192),
         math.sin(2 * math.pi * k / 8192)] for k in range(8192)]}},
}
_SEARCH = "--we 0.5 --budget 10 --resolution 64"
SMOKE = {
    "solve-128": "solve --shape {}/disk.json --we 1 --resolution 128",
    "solve-512": "solve --shape {}/disk.json --we 1",
    "near-axis-solve": "solve --shape {}/near-axis.json --we 1",
    "sharp-solve": "solve --shape {}/sharp.json --we 1",
    "near-axis-bound": "bound --shape {}/near-axis.json --we 0.1",
    "near-axis-analyze": "analyze --shape {}/near-axis.json",
    "deep-axis-analyze": "analyze --shape {}/deep-axis.json",
    "bound": "bound --shape {}/disk.json --we 0.1",
    "lemmas": "verify-lemmas --seed 42 --count 5",
    "analyze": "analyze --shape {}/disk.json",
    "star-bound": "bound --shape {}/star.json --we 0.1",
    "flat-bound": "bound --shape {}/flat.json --we 0.1",
    "star-analyze": "analyze --shape {}/star.json",
    "poly-analyze": "analyze --shape {}/poly.json",
    "poly-bound": "bound --shape {}/poly.json --we 0.1",
    "max-poly-analyze": "analyze --shape {}/max-poly.json",
    "max-poly-bound": "bound --shape {}/max-poly.json --we 0.1",
    "search": f"search --shape family:thick-disk {_SEARCH}",
    "bare-search": f"search --shape thick-disk {_SEARCH}",
    "ellipse-search": f"search --shape family:ellipse {_SEARCH}",
    "fourier-search": f"search --shape family:fourier {_SEARCH}",
    "table": "norbury-table",
}


def test_smoke_matrix_byte_identical_across_processes(tmp_path):
    # one interpreter runs the matrix forward and one in reverse, so no
    # output may depend on a table an earlier command cached
    shapes = tmp_path / "shapes"
    shapes.mkdir()
    for name, payload in SMOKE_SHAPES.items():
        _write_shape(shapes, payload, f"{name}.json")
    outs = {name: name + (".csv" if argv == "norbury-table" else ".json")
            for name, argv in SMOKE.items()}
    expected = {*outs.values(), *(outs[name] + ".log.csv"
                                  for name, argv in SMOKE.items()
                                  if argv.startswith("search"))}
    assert len(expected) == 26
    code = textwrap.dedent("""
        import json, sys
        import bubblering.cli
        print(json.dumps({name: bubblering.cli.main(argv)
                          for name, argv in json.loads(sys.argv[1])}))
    """)
    dirs = {}
    for order in ("forward", "reverse"):
        dirs[order] = tmp_path / order
        dirs[order].mkdir()
        runs = [(name, [a.format(shapes) for a in argv.split()]
                 + ["--out", str(dirs[order] / outs[name])])
                for name, argv in SMOKE.items()]
        if order == "reverse":
            runs.reverse()
        status = json.loads(_fresh_python(code, json.dumps(runs)).stdout)
        assert status == {name: 0 for name in SMOKE}
        assert {p.name for p in dirs[order].iterdir()} == expected
    for out in sorted(expected):
        forward = (dirs["forward"] / out).read_bytes()
        assert forward == (dirs["reverse"] / out).read_bytes(), out
        if out.endswith(".json"):
            _strict_json(dirs["forward"] / out)
    for name in ("near-axis-solve", "sharp-solve"):
        solution = _strict_json(dirs["forward"] / f"{name}.json")
        assert solution["report"]["solution"]["alpha"] > 0
