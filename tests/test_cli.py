"""Command line driver: exit codes, report JSON, and the three subcommands.

Everything runs in process through main(argv), which returns 0 when every
check passes, 1 when a check fails, and 2 on input errors.  Argparse-level
errors (unknown suite, unknown bundle) raise SystemExit(2) instead.
"""

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import struct
from dataclasses import replace
from fractions import Fraction

import pytest

from protract import kernel, transport
from protract.cli import (SUITES, _SUITES, GeometrySpec, Report,
                          _eval_points, _leibniz_defect, _scalars,
                          build_parser, load_geometry_spec, main, run_suite,
                          sample_points)
from protract.expr import add
from protract.geometry import ChartGeometry
from protract.tensor import TensorField, max_residual, max_residuals
from protract.tractor import (S2CotractorSection, S2TractorSection, _leibniz,
                              _metrisability_correction, metric_lift,
                              s2_cotractor_dual_pairing)
from protract.transport import pde_residual_field

import oracles
from gen import poly, random_metric, rng_for


def run_cli(argv, json_path=None):
    """Invoke main() capturing streams; parse the JSON report if requested."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    report = None
    if json_path is not None:
        with open(json_path) as fh:
            report = json.load(fh)
    return rc, out.getvalue(), err.getvalue(), report


def write_spec(tmp_path, name="chart.json", **overrides):
    data = {
        "dim": 2,
        "coords": ["x0", "x1"],
        "metric": [["1", "0"], ["0", "1 + x0^2"]],
        "phi": "x0/2 + x1/3",
        "box": [[-1, 1], [-1, 1]],
        "samples": {"count": 8, "seed": 3},
        "mode": "rational",
    }
    data.update(overrides)
    for key in [k for k, v in data.items() if v is None]:
        del data[key]
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BUNDLED = ("flat2", "flat3", "sphere2", "sphere3",
           "nonEinstein2", "nonEinstein3")


class TestCheckCommand:
    def test_flat_chart_full_suite_passes(self, tmp_path):
        path = tmp_path / "r.json"
        rc, out, err, report = run_cli(
            ["check", "--spec", "flat2", "--suite", "all",
             "--json", str(path)], json_path=path)
        assert rc == 0
        assert err == ""
        assert report["status"] == "pass"
        assert len(report["checks"]) == 15
        # flat chart in rational mode: every residual is exactly zero
        for check in report["checks"]:
            assert check["pass"] is True
            assert check["residual"] == 0.0
        names = {c["name"] for c in report["checks"]}
        assert {"bianchi_first", "duality_tractor", "weyl_invariance",
                "obstruction_identity", "metric_lift_parallel",
                "cotractor_dim_attains_rank"} <= names

    def test_report_schema_and_no_timing(self, tmp_path):
        path = tmp_path / "r.json"
        rc, out, _, report = run_cli(
            ["check", "--spec", "flat2", "--suite", "duality",
             "--json", str(path)], json_path=path)
        assert rc == 0
        assert sorted(report.keys()) == [
            "checks", "command", "metrics", "spec_digest", "status"]
        assert report["command"] == "check"
        assert len(report["spec_digest"]) == 64
        for check in report["checks"]:
            assert sorted(check.keys()) == [
                "name", "pass", "residual", "threshold"]
        # wall time goes to stdout only, never into the report
        assert "(s)" not in json.dumps(report)
        assert out.rstrip().splitlines()[-1].startswith("status: pass")
        assert out.rstrip().endswith("s)")

    def test_json_report_is_deterministic(self, tmp_path):
        argv = ["check", "--spec", "flat2", "--suite", "all", "--seed", "11"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(argv + ["--json", str(p1)])
        run_cli(argv + ["--json", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_sphere_einstein_suite_passes(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["check", "--spec", "sphere3", "--suite", "einstein",
             "--json", str(path)], json_path=path)
        assert rc == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["obstruction_vanishes"]["pass"]
        assert by_name["obstruction_identity"]["pass"]

    def test_non_einstein_invariance_fails_with_exit_1(self, tmp_path):
        path = tmp_path / "r.json"
        rc, out, err, report = run_cli(
            ["check", "--spec", "nonEinstein3", "--suite", "invariance",
             "--json", str(path)], json_path=path)
        assert rc == 1
        assert err == ""
        assert report["status"] == "fail"
        by_name = {c["name"]: c for c in report["checks"]}
        # Weyl is insensitive to the connection change, Cotton is not
        assert by_name["weyl_invariance"]["pass"]
        assert not by_name["cotton_invariance"]["pass"]
        assert by_name["cotton_invariance"]["residual"] > 1e-3
        # the change in Cotton still equals the contracted Weyl shift
        assert report["metrics"]["cotton_weyl_shift_identity"] == 0.0
        assert "[FAIL] cotton_invariance" in out
        assert "status: fail" in out

    def test_non_einstein_obstruction_detects(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["check", "--spec", "nonEinstein3", "--suite", "einstein",
             "--json", str(path)], json_path=path)
        assert rc == 0
        by_name = {c["name"]: c for c in report["checks"]}
        detect = by_name["obstruction_detects_non_einstein"]
        assert detect["pass"]
        assert report["metrics"]["einstein_deviation_max"] > 1e-3

    def test_bundled_names_all_load(self):
        for name in BUNDLED:
            rc, out, err, _ = run_cli(["curvature", "--spec", name])
            assert rc == 0, (name, err)

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["check", "--spec", "flat2", "--suite", "nope"])
        assert exc.value.code == 2

    def test_all_runs_every_suite_in_table_order(self, tmp_path):
        assert set(SUITES) == {"bianchi", "duality", "invariance", "einstein",
                               "prolong", "holonomy", "all"}

        def check_names(suite):
            path = tmp_path / ("%s.json" % suite)
            _, _, _, report = run_cli(
                ["check", "--spec", "flat2", "--suite", suite, "--steps",
                 "64", "--json", str(path)], json_path=path)
            return [c["name"] for c in report["checks"]]

        assert check_names("all") == [name for suite in _SUITES
                                      for name in check_names(suite)]

    @pytest.mark.parametrize("steps", ["0", "-5"])
    @pytest.mark.parametrize("command", [["check", "--suite", "holonomy"],
                                         ["transport", "tractor"]])
    def test_steps_below_one_rejected_by_parser(self, command, steps,
                                                capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                command + ["--steps", steps, "--spec", "sphere2"])
        assert exc.value.code == 2
        assert "--steps: must be at least 1" in capsys.readouterr().err

    def test_bianchi_suite_compiles_one_residual_tape(self, monkeypatch):
        from protract import program

        real = program.compile_table
        entries = []

        def counted(exprs):
            table = real(exprs)
            entries.append(table.n_out)
            return table

        monkeypatch.setattr(program, "compile_table", counted)
        rc, out, _, _ = run_cli(["check", "--spec", "nonEinstein3",
                                  "--suite", "bianchi"])
        assert rc == 0, out
        # the metric (probed for symmetry) and its determinant (screening
        # the sample points), each cached on the geometry; then one tape
        # for the first and second Bianchi and Cotton-Weyl residuals
        assert entries == [9, 1, 3 ** 4 + 3 ** 5 + 3 ** 3]

    def test_prolong_suite_compiles_one_residual_tape(self, monkeypatch):
        from protract import program, transport

        real = program.compile_table
        entries = []

        def counted(exprs):
            table = real(exprs)
            entries.append(table.n_out)
            return table

        monkeypatch.setattr(program, "compile_table", counted)
        monkeypatch.setattr(transport, "compile_table", counted)
        rc, out, _, _ = run_cli(["check", "--spec", "sphere3",
                                  "--suite", "prolong"])
        assert rc == 0, out
        # the metric probe and the determinant screen, as for bianchi;
        # the symmetry probe of nabla t that trace_free_sym runs; then
        # one tape for the connection on the lift (n sections of n^2 + n
        # + 1 slots), the expansion gap (n * 10 * 10 matrix entries) and
        # the source equation on the lift's t slot (n^3)
        assert entries == [9, 1, 3 ** 3,
                           3 * (3 ** 2 + 3 + 1) + 3 * 10 ** 2 + 3 ** 3]

    def test_lift_not_shown_parallel_fails_with_exit_1(self, tmp_path,
                                                        monkeypatch):
        # rho off by one: the t slot still solves the equation, but the
        # section is not parallel, so no metrisability residual passes
        from protract import cli

        real = cli.metric_lift

        def shifted(geom):
            s = real(geom)
            rho = TensorField(geom.dim, 0, 0, [s.rho.components[0] + 1])
            return S2TractorSection(s.t, s.nu, rho)

        monkeypatch.setattr(cli, "metric_lift", shifted)
        path = tmp_path / "r.json"
        rc, out, err, report = run_cli(
            ["check", "--spec", "sphere2", "--suite", "prolong",
             "--json", str(path)], json_path=path)
        assert rc == 1, out
        assert err == ""
        parallel, residual, expansion = report["checks"]
        assert parallel["residual"] > 1e-7 and not parallel["pass"]
        assert math.isnan(residual["residual"]) and not residual["pass"]
        assert expansion["pass"]

    def test_holonomy_suite_compiles_one_coefficient_tape(self, monkeypatch):
        from protract import program, transport

        real = program.compile_table
        entries = []

        def counted(exprs):
            table = real(exprs)
            entries.append(table.n_out)
            return table

        monkeypatch.setattr(program, "compile_table", counted)
        monkeypatch.setattr(transport, "compile_table", counted)
        # at 50 steps the RK4 error exceeds sv_tol, so only the tapes are
        # checked here, not the verdict
        run_cli(["check", "--spec", "sphere2", "--suite", "holonomy",
                 "--steps", "50"])
        # one coefficient table for the cotractor, tractor and
        # metrisability bundles, 2 * (9 + 9 + 36) entries, and none of
        # their own
        assert entries.count(2 * (3 ** 2 + 3 ** 2 + 6 ** 2)) == 1
        assert 2 * 3 ** 2 not in entries and 2 * 6 ** 2 not in entries
        # one table for the curvature read: Weyl and Cotton, n^4 + n^3
        # entries (as many as the two 2 x 2 grids of rank-3 sections it
        # replaced), and no curvature grid of one bundle
        assert entries.count(2 ** 4 + 2 ** 3) == 1
        assert 2 * 2 * 3 not in entries

    def test_missing_spec_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["check", "--suite", "all"])
        assert exc.value.code == 2


class TestSpecLoading:
    def test_custom_spec_file_runs(self, tmp_path):
        spec = write_spec(tmp_path)
        out_path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["check", "--spec", spec, "--suite", "duality",
             "--json", str(out_path)], json_path=out_path)
        assert rc == 0
        assert all(c["residual"] == 0.0 for c in report["checks"])

    def test_invariance_needs_phi_or_upsilon(self, tmp_path):
        spec = write_spec(tmp_path, phi=None)
        rc, _, err, _ = run_cli(["check", "--spec", spec,
                                 "--suite", "invariance"])
        assert rc == 2
        assert "invariance" in err

    def test_explicit_upsilon_accepted(self, tmp_path):
        spec = write_spec(tmp_path, phi=None, upsilon=["1/2", "x0/3"])
        rc, _, err, _ = run_cli(["check", "--spec", spec,
                                 "--suite", "invariance"])
        assert rc in (0, 1)
        assert err == ""

    def test_upsilon_length_checked(self, tmp_path):
        spec = write_spec(tmp_path, upsilon=["1"])
        rc, _, err, _ = run_cli(["check", "--spec", spec, "--suite", "all"])
        assert rc == 2
        assert "upsilon" in err

    def test_asymmetric_metric_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, metric=[["1", "x0"], ["0", "1"]])
        rc, _, err, _ = run_cli(["curvature", "--spec", spec])
        assert rc == 2
        assert "error:" in err

    def test_unreadable_path_exits_2(self):
        rc, _, err, _ = run_cli(["curvature", "--spec", "/no/such/file.json"])
        assert rc == 2
        assert "cannot read spec" in err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err, _ = run_cli(["curvature", "--spec", str(path)])
        assert rc == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("command", [["check", "--suite", "bianchi"],
                                         ["curvature"]])
    def test_constant_beyond_float_range_exits_2(self, tmp_path, command):
        # 10^400 evaluates to inf in float mode, so no sample point has an
        # invertible metric
        spec = write_spec(tmp_path, mode="float",
                          metric=[["1 + 10^400*x0^2", "0"], ["0", "1"]])
        rc, _, err, _ = run_cli(command + ["--spec", spec])
        assert rc == 2
        assert "no usable sample points" in err

    def test_exact_residual_beyond_float_range_fails(self, tmp_path):
        # nonEinstein3 with phi = 10^400 x0: Upsilon = (10^400, 0, 0)
        # makes the exact Cotton change too large for a float, so the
        # residual saturates to inf and the check fails with its report
        # written, as a NaN residual does
        spec = write_spec(tmp_path, dim=3, coords=["x0", "x1", "x2"],
                          metric=[["1", "0", "0"], ["0", "1+x0^2", "0"],
                                  ["0", "0", "1"]],
                          phi="10^400*x0", box=[[-1, 1]] * 3,
                          samples={"count": 2, "seed": 105})
        path = tmp_path / "r.json"
        rc, out, err, report = run_cli(
            ["check", "--spec", spec, "--suite", "invariance",
             "--json", str(path)], json_path=path)
        assert rc == 1, out
        assert err == ""
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["cotton_invariance"]["residual"] == math.inf
        assert not by_name["cotton_invariance"]["pass"]
        assert report["status"] == "fail"

    def test_bad_metric_entry_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, metric=[["1", "0"], ["0", "x7 + 1"]])
        rc, _, err, _ = run_cli(["curvature", "--spec", spec])
        assert rc == 2
        assert "metric entry" in err

    @pytest.mark.parametrize("command", [["curvature"],
                                         ["check", "--suite", "bianchi"],
                                         ["transport", "tractor"]])
    def test_tol_flag_rejected_by_parser(self, command, capsys):
        # every check keeps its one fixed threshold
        with pytest.raises(SystemExit) as exc:
            main(command + ["--spec", "flat2", "--tol", "1"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestInputFaults:
    """Malformed input exits 2 with one error line, never a traceback."""

    # (command, spec fields, text the error names); samples takes count
    # and seed only, so fixed points are refused, not silently re-sampled
    @pytest.mark.parametrize("command, spec, named", [
        (["curvature", "--point", "abc"], {}, "--point"),
        (["curvature", "--point", "0.1,"], {}, "--point"),
        (["check", "--suite", "bianchi"], {"samples": {"count": "abc"}},
         "samples"),
        (["check", "--suite", "bianchi"], {"samples": {"seed": 1.5}},
         "samples"),
        (["check", "--suite", "bianchi"], {"samples": "x"}, "samples"),
        (["check", "--suite", "bianchi"],
         {"samples": {"points": [[0.1, 0.2]]}}, "points"),
        (["transport", "tractor"], {"box": [[-1, "inf"], [-1, 1]]},
         "finite"),
        (["check", "--suite", "bianchi"], {"box": [[-1], [-1, 1]]},
         "box pair"),
    ], ids=["point-text", "point-empty", "samples-count", "samples-seed",
            "samples-text", "samples-points", "box-inf", "box-short"])
    def test_exits_2_with_one_error_line(self, tmp_path, command, spec,
                                         named):
        rc, out, err, _ = run_cli(
            command + ["--spec", write_spec(tmp_path, mode="float", **spec)])
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err and "Traceback" not in err and out == ""

    # the duality suite draws its own points, so only a check at load
    # refuses the count there
    @pytest.mark.parametrize("suite", ["duality", "bianchi"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_sample_count_below_one_exits_2(self, tmp_path, suite, count):
        rc, out, err, _ = run_cli(
            ["check", "--suite", suite, "--spec",
             write_spec(tmp_path, samples={"count": count, "seed": 3})])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "samples.count" in err and "Traceback" not in err


class TestTransportCommand:
    def test_flat_loop_reports_zero_deviation(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["transport", "cotractor", "circle:0,0,0.5", "--spec", "flat2",
             "--steps", "128", "--loop", "--json", str(path)],
            json_path=path)
        assert rc == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["reverse_transport"]["pass"]
        assert by_name["rk4_order"]["pass"]
        assert report["metrics"]["loop_deviation"] == 0.0
        assert report["metrics"]["rank"] == 3
        assert report["metrics"]["bundle"] == "cotractor"
        assert len(report["metrics"]["initial"]) == 3
        assert sorted(report["metrics"]["final_section"]) == ["mu", "sigma"]

    def test_sphere_loop_order_near_four(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["transport", "tractor", "circle:0.2,0.1,0.55",
             "--spec", "sphere2", "--steps", "200", "--loop",
             "--json", str(path)], json_path=path)
        assert rc == 0
        assert abs(report["metrics"]["observed_order"] - 4.0) < 0.3
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["reverse_transport"]["residual"] < 1e-8

    def test_open_curve_with_loop_flag_exits_2(self):
        rc, _, err, _ = run_cli(
            ["transport", "cotractor", "line:0,0;1,1", "--spec", "flat2",
             "--loop"])
        assert rc == 2
        assert "closed" in err

    def test_open_curve_without_loop_runs(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["transport", "cotractor", "line:0,0;0.5,0.25", "--spec",
             "flat2", "--steps", "64", "--json", str(path)], json_path=path)
        assert rc == 0
        assert "loop_deviation" not in report["metrics"]

    def test_bad_curve_text_exits_2(self):
        # besides a short circle: a value that is not finite, a rectangle
        # whose far corner is not, and line endpoints whose length is not
        # the chart dimension
        for spec, curve in (("flat2", "circle:0,0"),
                            ("sphere2", "circle:0.1,0.1,inf"),
                            ("sphere2", "rect:0,nan,0.1,0.1"),
                            ("sphere2", "rect:1e308,0,1e308,0.1"),
                            ("sphere2", "line:0;1"),
                            ("sphere2", "line:0,0,0;0.1,0.1,0.1"),
                            ("sphere2", "line:0,0;1,1,1")):
            rc, _, err, _ = run_cli(
                ["transport", "cotractor", curve, "--spec", spec])
            assert rc == 2, curve
            assert "bad curve" in err, curve

    def test_curve_beyond_float_range_fails_with_nan(self, tmp_path):
        # the circle's exact coefficients are fine; its float samples
        # overflow, and the checks fail on NaN residuals
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["transport", "tractor", "circle:1e308,0,1e308", "--spec",
             "sphere2", "--steps", "8", "--json", str(path)],
            json_path=path)
        assert rc == 1
        assert [c["name"] for c in report["checks"]] == [
            "reverse_transport", "rk4_order"]
        for check in report["checks"]:
            assert not check["pass"] and math.isnan(check["residual"])

    def test_unknown_curve_kind_exits_2(self):
        rc, _, err, _ = run_cli(
            ["transport", "cotractor", "spiral:1,2,3", "--spec", "flat2"])
        assert rc == 2
        assert "unknown curve kind" in err

    def test_default_curve_is_seeded_and_deterministic(self, tmp_path):
        argv = ["transport", "tractor", "--spec", "flat2", "--steps", "64",
                "--seed", "9"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        rc1, _, _, r1 = run_cli(argv + ["--json", str(p1)], json_path=p1)
        rc2, _, _, r2 = run_cli(argv + ["--json", str(p2)], json_path=p2)
        assert rc1 == rc2 == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert r1["metrics"]["rank"] == 3

    def test_bundle_table_is_the_parser_choices(self, flat3):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        bundle_arg = next(a for a in sub.choices["transport"]._actions
                          if a.dest == "bundle")
        assert bundle_arg.choices == tuple(transport.BUNDLES)
        assert set(transport.BUNDLES) == {"cotractor", "tractor",
                                          "metrisability", "s2dual", "skew",
                                          "tangent"}
        for name, factory in transport.BUNDLES.items():
            assert factory(flat3).name == name

    def test_bundle_choices_enforced(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["transport", "frame", "--spec", "flat2"])
        assert exc.value.code == 2

    def test_every_bundle_transports_on_flat2(self, tmp_path):
        # trivial_loop: parallel sections span the whole bundle, so any
        # initial value returns to itself around a closed curve
        for bundle, rank, trivial_loop in (
                ("cotractor", 3, True), ("tractor", 3, True),
                ("metrisability", 6, False), ("s2dual", 6, False),
                ("tangent", 2, True)):
            path = tmp_path / ("%s.json" % bundle)
            rc, _, err, report = run_cli(
                ["transport", bundle, "circle:0,0,0.4", "--spec", "flat2",
                 "--steps", "256", "--loop", "--json", str(path)],
                json_path=path)
            assert rc == 0, (bundle, err)
            assert report["metrics"]["rank"] == rank
            if trivial_loop:
                assert report["metrics"]["loop_deviation"] < 1e-10

    def test_skew_bundle_needs_three_dimensions(self):
        rc, _, err, _ = run_cli(
            ["transport", "skew", "circle:0,0,0.4", "--spec", "flat2"])
        assert rc == 2
        assert "dimension at least 3" in err

    def test_skew_bundle_needs_a_flat_connection(self):
        rc, _, err, _ = run_cli(
            ["transport", "skew", "circle:0,0,0.4", "--spec", "sphere3",
             "--steps", "16"])
        assert rc == 2
        assert err == "error: connection is not flat\n"

    def test_skew_bundle_on_flat3_has_trivial_holonomy(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["transport", "skew", "circle:0,0,0.4", "--spec", "flat3",
             "--steps", "256", "--loop", "--json", str(path)],
            json_path=path)
        assert rc == 0
        assert report["metrics"]["rank"] == 6
        # Lambda^2 T over a flat chart is flat: every initial value is
        # the value of a parallel section, and it closes up around the loop
        assert report["metrics"]["loop_deviation"] < 1e-10


class TestCurvatureCommand:
    def test_flat_values_vanish(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["curvature", "--spec", "flat2", "--json", str(path)],
            json_path=path)
        assert rc == 0
        values = report["metrics"]["values"]
        assert sorted(values) == ["cotton", "ricci", "riemann", "scalar",
                                  "schouten", "weyl"]
        for name, comps in values.items():
            assert all(v == 0.0 for v in comps), name

    def test_round_sphere_values_at_point(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["curvature", "--spec", "sphere2", "--point", "0.1,0.2",
             "--json", str(path)], json_path=path)
        assert rc == 0
        values = report["metrics"]["values"]
        assert abs(values["scalar"][0] - 2.0) < 1e-9
        # Einstein in two dimensions: Ricci equals the metric,
        # which at this point is 4/(1 + 0.05)^2 on the diagonal
        g00 = 4.0 / 1.05 ** 2
        assert abs(values["ricci"][0] - g00) < 1e-9
        assert abs(values["ricci"][1]) < 1e-9
        assert abs(values["ricci"][3] - g00) < 1e-9
        assert max(abs(v) for v in values["weyl"]) < 1e-12
        assert max(abs(v) for v in values["cotton"]) < 1e-12
        assert report["metrics"]["values_at"] == [0.1, 0.2]

    def test_identity_checks_included(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["curvature", "--spec", "nonEinstein2", "--json", str(path)],
            json_path=path)
        assert rc == 0
        names = {c["name"] for c in report["checks"]}
        assert {"bianchi_first", "bianchi_second",
                "cotton_weyl_relation"} <= names

    def test_point_dimension_checked(self):
        rc, _, err, _ = run_cli(
            ["curvature", "--spec", "flat3", "--point", "0.1,0.2"])
        assert rc == 2
        assert "--point" in err

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("point", ["nan,0.1", "inf,0"])
    def test_nonfinite_point_rejected(self, point, mode):
        rc, out, err, _ = run_cli(
            ["curvature", "--spec", "sphere2", "--mode", mode,
             "--point", point])
        assert rc == 2
        assert "--point" in err and out == ""

    def test_singular_point_rejected(self, tmp_path):
        spec = write_spec(tmp_path, metric=[["1", "0"], ["0", "x0"]])
        rc, out, err, _ = run_cli(
            ["curvature", "--spec", str(spec), "--point", "0,0.5"])
        assert rc == 2
        assert "--point" in err and "singular" in err and out == ""

    def test_mode_override_accepted(self, tmp_path):
        path = tmp_path / "r.json"
        rc, _, _, report = run_cli(
            ["curvature", "--spec", "flat2", "--mode", "float",
             "--json", str(path)], json_path=path)
        assert rc == 0
        assert all(v == 0.0 for v in report["metrics"]["values"]["riemann"])

    def test_value_beyond_float_range_reads_inf(self, tmp_path):
        # exact Ricci_11 is about -10^400 at the first sample point
        spec = write_spec(tmp_path, phi=None,
                          metric=[["1", "0"], ["0", "1 + 10^400*x0^4"]],
                          samples={"count": 2, "seed": 3})
        path = tmp_path / "r.json"
        rc, out, err, report = run_cli(
            ["curvature", "--spec", spec, "--json", str(path)],
            json_path=path)
        assert rc == 0 and err == "", out
        assert report["metrics"]["values"]["ricci"][3] == -math.inf


class TestSampleScreening:
    @pytest.fixture
    def screened(self, monkeypatch):
        """The batches of points invertible_at screens, in order."""
        calls = []
        real = ChartGeometry.invertible_at

        def counted(self, points):
            calls.append([tuple(p) for p in points])
            return real(self, points)
        monkeypatch.setattr(ChartGeometry, "invertible_at", counted)
        return calls

    def test_once_per_seed_and_count(self, screened):
        # every check run screens its own points in one batch: the same
        # spec and seed again, another seed, a spec with another count
        spec = load_geometry_spec("nonEinstein3")
        three = replace(spec, sample_count=3)
        runs = ((spec, spec.sample_seed, "bianchi"),
                (spec, spec.sample_seed, "einstein"), (spec, 5, "duality"),
                (three, 5, "invariance"))
        for sized, seed, suite in runs:
            screened.clear()
            run_suite(sized, suite, Report("check", ""), seed, 0)
            assert screened == [[tuple(p) for p in sample_points(sized,
                                                                 seed)]]

    def test_check_all_screens_each_batch_once(self, screened):
        # the spec's points, once for every suite: one batch
        run_cli(["check", "--suite", "all", "--steps", "20", "--spec",
                 "sphere2"])
        spec = load_geometry_spec("sphere2")
        assert sorted(map(len, screened)) == [spec.sample_count]

    def test_seed_flag_stands_for_the_spec_seed(self, tmp_path):
        # every suite's points and the holonomy loops move with --seed
        # exactly as with the spec's samples seed
        plain = write_spec(tmp_path)
        moved = write_spec(tmp_path, "moved.json",
                           samples={"count": 8, "seed": 5})
        reports = []
        for extra, spec in (([], plain), (["--seed", "5"], plain),
                            ([], moved)):
            path = tmp_path / ("r%d.json" % len(reports))
            rc, _, _, report = run_cli(
                ["check", "--suite", "all", "--steps", "50", "--spec", spec,
                 "--json", str(path), *extra], json_path=path)
            reports.append((rc, report["checks"], report["metrics"]))
        assert reports[1] == reports[2]
        assert reports[1] != reports[0]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_batch_keeps_the_per_point_choice(self, name):
        # the spec's points, and those of the spec with ten samples
        spec = load_geometry_spec(name)
        seed = spec.sample_seed
        for sized in (spec, replace(spec, sample_count=10)):
            assert _eval_points(sized, seed) == oracles.screen_points_reference(
                spec.geom, sample_points(sized, seed))

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_batch_keeps_the_per_point_choice_near_singular(self, tmp_path,
                                                            mode):
        # det g = x0 x1^-1 vanishes on x0 = 0, which the box holds, and
        # has a pole on x1 = 0: exact there it raises EvalDomainError,
        # float it is not finite
        spec = load_geometry_spec(write_spec(
            tmp_path, metric=[["x0", "0"], ["0", "x1^-1"]],
            box=[[-1, 1], [-0.5, 0.5]], mode=mode,
            samples={"count": 300, "seed": 7}))
        pts = sample_points(spec, spec.sample_seed)
        F = Fraction if mode == "rational" else float
        pts += [[F(0), F(0.25)], [F(0.5), F(0)], [F(-0.5), F(0.25)]]
        if mode == "float":
            pts += [[math.nan, 0.25], [0.5, math.inf], [1e-300, 0.25]]
        want = oracles.screen_points_reference(spec.geom, pts)
        assert 0 < len(want) < len(pts) - 3
        assert list(itertools.compress(
            pts, spec.geom.invertible_at(pts))) == want


class TestMatrixIdentities:
    """The duality, obstruction, expansion and holonomy-curvature checks
    read identities of the connection coefficient matrices. The checks
    on seeded random sections they replaced (oracles.suite_*_reference,
    oracles.holonomy_curvatures_reference) give the same verdicts."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_same_verdicts_as_random_sections(self, name):
        spec = load_geometry_spec(name)
        seed = spec.sample_seed
        for suite in ("duality", "einstein", "prolong"):
            new, old = Report("check", ""), Report("check", "")
            run_suite(spec, suite, new, seed, 0)
            getattr(oracles, "suite_%s_reference" % suite)(spec, old, seed, 0)
            assert [(c.name, c.threshold, c.passed) for c in new.checks] \
                == [(c.name, c.threshold, c.passed) for c in old.checks]
        # the curvature only picks each bundle's check; its residual and
        # pass flag then come from the same fixed dimension as before, so
        # the steps can be few
        report = Report("check", "")
        run_suite(spec, "holonomy", report, seed, 4)
        old = oracles.holonomy_curvatures_reference(spec, seed)
        want = ["%s_dim_%s" % (label, "attains_rank" if curv < 1e-10
                               else "below_rank")
                for label, curv in zip(("cotractor", "tractor"), old)]
        assert [c.name for c in report.checks[:2]] == want

    @pytest.mark.parametrize("name,worst", [
        ("nonEinstein2", Fraction(147456, 113569)),
        ("nonEinstein3", Fraction(2228224, 5171907))])
    def test_unsymmetrised_dual_correction_fails_duality_s2(self, name,
                                                            worst):
        def mutant_dual_nabla(geom, s):
            # s2_dual_nabla with f(*rest, b, c) twice in place of its
            # two index orders
            def correction(a):
                return [(i, o, -k / 2, lambda b, c, *rest, f=f:
                         add(f(*rest, b, c), f(*rest, b, c)))
                        for o, i, k, f in _metrisability_correction(geom, a)]
            return _leibniz(geom, s, correction)

        spec = load_geometry_spec(name)
        geom = spec.geom
        duals = (transport.s2_cotractor_bundle(geom),
                 transport.TransportBundle("s2dual", S2CotractorSection,
                                           mutant_dual_nabla, geom))
        good, bad = max_residuals([
            _scalars(spec.dim, _leibniz_defect(
                transport.s2_tractor_bundle(geom), dual,
                s2_cotractor_dual_pairing)) for dual in duals],
            _eval_points(spec, spec.sample_seed))
        assert good == 0
        # exactly nonzero, far above the duality_s2 threshold 1e-10
        assert type(bad) is Fraction and bad == worst


def _bits(value):
    """value with every float as its 64 bits, so that == is bitwise."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


@functools.cache
def _spec(name: str) -> GeometrySpec:
    """A bundled spec, or "random3": a rational random polynomial
    3-metric with a random phi. Loaded once, so that the tests of
    TestOneReduction share its geometry and what it caches."""
    if name != "random3":
        return load_geometry_spec(name)
    rng = rng_for("one-reduction")
    return GeometrySpec(3, random_metric(rng, 3), poly(rng, 3), None,
                        [[-1.0, 1.0]] * 3, 3, 0, "rational", "random3")


# The results of TestOneReduction's once fixture, by step and argument.
_ONCE: dict = {}


class TestOneReduction:
    """A check run screens its points once and reduces the families of
    all its suites in one max_residuals call. Its reports equal, floats
    bitwise, those of the per-suite reduction it replaced
    (oracles.run_suite_reference) suite by suite, but for
    metrisability_residual, and "all" is the in-order merge of the six
    single-suite reports."""

    @pytest.fixture
    def once(self, monkeypatch):
        """The pure steps that both reductions share, each run once per
        argument: compiling a table (its expressions are interned nodes)
        and evaluating it, the coefficient entries of a bundle and its
        Leibniz defects (by section type, connection and geometry), and
        the holonomy transport (by bundles, loop curves and steps). Both
        reductions and every seed ask for them again; what differs is
        which tables they compile and how they fold them."""
        from protract import cli, program

        def bundle_key(b):
            return b.section_cls, b.nabla, b.geom

        def loop_key(lp):
            return tuple(seg.components for seg in transport._as_loop(lp))

        def memo(owner, name, key):
            real, done = getattr(owner, name), _ONCE.setdefault(name, {})

            def wrapped(*args, **kwargs):
                k = key(*args, **kwargs)
                if k not in done:
                    done[k] = real(*args, **kwargs)
                return done[k]
            monkeypatch.setattr(owner, name, wrapped)
            return wrapped

        memo(program, "compile_table", lambda exprs: tuple(exprs))
        memo(kernel, "eval_table", lambda table, points: (
            table, tuple(map(tuple, points))))
        memo(transport.TransportBundle, "coefficient_entries", bundle_key)
        memo(cli, "_leibniz_defect", lambda u, v, pairing: (
            bundle_key(u), bundle_key(v), pairing))
        hol = memo(transport, "holonomy_dimensions",
                   lambda bundles, loops, steps: (
                       tuple(map(bundle_key, bundles)),
                       tuple(map(loop_key, loops)), steps))
        monkeypatch.setattr(cli, "holonomy_dimensions", hol)

    @pytest.mark.parametrize("name", BUNDLED + ("random3",))
    def test_same_reports_as_per_suite_reduction(self, name, once):
        # metrisability_residual is the one exception: the source
        # equation now joins the run's table and is reduced over every
        # screened point, where the per-suite reduction read the first
        # five with tables of its own
        spec = _spec(name)
        solution = pde_residual_field(spec.geom, metric_lift(spec.geom))
        for seed in (0, 3):
            merged = Report("check", spec.digest)
            for suite in _SUITES:
                new, old = (Report("check", spec.digest) for _ in range(2))
                run_suite(spec, suite, new, seed, 50)
                oracles.run_suite_reference(spec, suite, old, seed, 50)
                got, want = new.to_json(), old.to_json()
                if suite == "prolong":
                    got_res, want_res = (r["checks"].pop(1) for r in
                                         (got, want))
                    assert got_res["name"] == "metrisability_residual"
                    assert _bits(got_res["residual"]) == _bits(float(
                        max_residual([solution], _eval_points(spec, seed))))
                    assert got_res["residual"] >= want_res["residual"]
                    for r in (got_res, want_res):
                        del r["residual"]
                    assert got_res == want_res
                assert _bits(got) == _bits(want), suite
                merged.checks += new.checks
                merged.metrics.update(new.metrics)
            report = Report("check", spec.digest)
            run_suite(spec, "all", report, seed, 50)
            assert _bits(report.to_json()) == _bits(merged.to_json())

    def test_check_all_makes_one_residual_table(self, monkeypatch, once):
        from protract import cli, geometry, program, projective

        # the entry counts of the tables compiled inside a max_residuals
        # call of cli, or of verify_bianchi or check_weyl_cotton_invariance
        tables, inside = [], []
        real_compile = program.compile_table

        def counted(reduce):
            def wrapped(families, points):
                inside.append(True)
                try:
                    return reduce(families, points)
                finally:
                    inside.pop()
            return wrapped

        def compile_table(exprs):
            table = real_compile(exprs)
            if inside:
                tables.append(table.n_out)
            return table

        for module in (cli, geometry, projective):
            monkeypatch.setattr(module, "max_residuals",
                                counted(module.max_residuals))
        monkeypatch.setattr(program, "compile_table", compile_table)
        spec = _spec("sphere3")
        single = []
        for suite in _SUITES:
            tables.clear()
            run_suite(spec, suite, Report("check", ""), 0, 50)
            assert len(tables) == 1, suite
            single += tables
        tables.clear()
        cli.cmd_check(spec, "all", 0, 50)
        assert tables == [sum(single)]


@pytest.fixture
def inject_nan(monkeypatch):
    """inject_nan(index): NaN into one point of every table evaluation.

    Every kernel table evaluation gets NaN written into every component
    of row index (the first or the last point of the batch). A table
    can hold several residual families side by side, and each family
    folds its own columns row by row, so every family's fold then
    starts (index 0) or ends (index -1) with a NaN. Screening sample
    points through ChartGeometry.invertible_at (the batch of
    _eval_points) and check_invertible_at stays clean, so the suites
    still find points to evaluate their residuals at, and so does the
    closure check of a loop (transport._check_closed, which rejects a
    gap that is not finite), so the holonomy suite still transports.
    """
    def install(index):
        real_table = kernel.eval_table
        state = {"on": True}

        def eval_table(table, points):
            out = real_table(table, points)
            if state["on"]:
                out[index] = math.nan
            return out

        def clean(screen):
            def wrapped(*args):
                state["on"] = False
                try:
                    return screen(*args)
                finally:
                    state["on"] = True
            return wrapped

        monkeypatch.setattr(kernel, "eval_table", eval_table)
        monkeypatch.setattr(transport, "eval_table", eval_table)
        for name in ("check_invertible_at", "invertible_at"):
            monkeypatch.setattr(ChartGeometry, name,
                                clean(getattr(ChartGeometry, name)))
        monkeypatch.setattr(transport, "_check_closed",
                            clean(transport._check_closed))
    return install


class TestNonFiniteResiduals:
    """A NaN anywhere in a residual fails its check: it never vanishes
    into a max fold or a branch decision."""

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("suite", ["duality", "invariance", "einstein",
                                       "prolong", "holonomy", "bianchi"])
    def test_every_suite_fails(self, tmp_path, inject_nan, suite, index):
        inject_nan(index)
        path = tmp_path / "r.json"
        rc, out, err, report = run_cli(
            ["check", "--spec", "sphere2", "--suite", suite, "--steps", "20",
             "--json", str(path)], json_path=path)
        assert rc == 1, out
        assert err == ""
        assert report["status"] == "fail"
        assert report["checks"]
        for check in report["checks"]:
            assert not check["pass"] and math.isnan(check["residual"]), check

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    def test_transport_fails_with_nan_order_residual(self, tmp_path,
                                                     inject_nan, index):
        inject_nan(index)
        path = tmp_path / "r.json"
        rc, out, _, report = run_cli(
            ["transport", "tractor", "circle:0.2,0.1,0.55", "--spec",
             "sphere2", "--steps", "16", "--json", str(path)],
            json_path=path)
        assert rc == 1, out
        by_name = {c["name"]: c for c in report["checks"]}
        assert math.isnan(by_name["rk4_order"]["residual"])
        assert math.isnan(report["metrics"]["observed_order"])
        assert not by_name["rk4_order"]["pass"]
        assert not by_name["reverse_transport"]["pass"]
