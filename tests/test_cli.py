"""End-to-end exercises of the qck command line.

Every test drives ``main`` directly with an argv list and reads the captured
stdout/stderr, so the exit-code and schema contracts are pinned without
spawning subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qck import ambient, cli, curvature, qch
from qck.cli import CSV_HEADER, main
from qck.config import worker_count


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = out.strip().splitlines()
    rows = [[field for field in line.split(",")] for line in lines[1:]]
    return lines[0], rows


class TestCheckPotential:
    def test_log_family_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["check-potential", "--count", "3",
                                        "--seed", "2"])
        assert code == 0
        rep = json.loads(out)
        assert rep["schema_version"] == 1
        assert rep["command"] == "check-potential"
        assert rep["pass"] is True
        assert len(rep["points"]) == 3
        for p in rep["points"]:
            assert all(p["checks"].values())
            assert p["decomposition"]["class"] == "negative"
            assert p["decomposition"]["a_plus_k2"] < 0

    def test_definite_family_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["check-potential", "--space", "definite",
                                        "--family", "dlog", "--a", "2",
                                        "--rmin", "0.5", "--rmax", "1.8",
                                        "--count", "2", "--seed", "4"])
        assert code == 0
        rep = json.loads(out)
        for p in rep["points"]:
            assert p["decomposition"]["class"] == "positive"
            assert p["decomposition"]["a_plus_k2"] > 0

    def test_flat_rescale_reports_zero_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, ["check-potential", "--family", "series",
                                        "--coeffs", "0,-0.5", "--count", "2",
                                        "--seed", "1"])
        assert code == 1
        rep = json.loads(out)
        assert rep["pass"] is False
        for p in rep["points"]:
            assert p["admissible"] is False
            assert p["min_eigenvalue"] < 0
            assert p["kahler_defect"] < 1e-12
            dec = p["decomposition"]
            assert dec["a"] == 0.0 and dec["b"] == 0.0 and dec["c"] == 0.0
            assert dec["residual"] < 1e-12
            assert p["checks"]["positive"] is False
            assert p["checks"]["residual"] is True


class TestCurvatureAndDecompose:
    def test_curvature_invariants(self, capsys):
        code, out, _ = run_cli(capsys, ["curvature", "--count", "2",
                                        "--seed", "3"])
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "curvature"
        for p in rep["points"]:
            for key in ("tau", "sigma_radial", "kappa_radial", "hsc_radial"):
                assert key in p
            assert p["symmetry_defect"] < 1e-9
            assert p["bianchi_defect"] < 1e-9

    @pytest.mark.parametrize("command",
                             ["decompose", "curvature", "check-potential"])
    def test_boundary_points_get_error_entries(self, capsys, command):
        # r = r0 = 1 is the boundary of the log family's domain
        code, out, _ = run_cli(capsys, [command, "--r0", "1", "--rmin", "1",
                                        "--rmax", "1", "--count", "2"])
        assert code == 1
        rep = json.loads(out)
        assert rep["pass"] is False
        assert [p["index"] for p in rep["points"]] == [0, 1]
        for p in rep["points"]:
            assert p["error"].startswith("DomainError")
            if command == "check-potential":
                # what was known before the failure stays in the entry
                assert p["w"] == pytest.approx(-1.0)
                assert p["in_domain"] is False
                assert p["admissible"] is False

    @pytest.mark.parametrize("command", ["decompose", "curvature"])
    def test_one_bad_point_keeps_the_others(self, capsys, tmp_path, command):
        cfgfile = tmp_path / "pts.json"
        cfgfile.write_text(json.dumps({
            "points": [[0.0, 0.0, 0.0, 1.5], [0.0, 0.0, 0.0, 1.0]]}))
        code, out, _ = run_cli(capsys, [command, "--config", str(cfgfile)])
        assert code == 1
        good, bad = json.loads(out)["points"]
        assert "error" not in good
        assert ("tau" if command == "curvature" else "decomposition") in good
        assert bad["error"].startswith("DomainError")

    @pytest.mark.parametrize("flags", [
        ["--r0", "inf"], ["--a=-inf"],
        ["--space", "definite", "--family", "dlog", "--a", "inf"],
        ["--space", "definite", "--family", "dlog", "--a", "2", "--r0", "inf"]])
    def test_non_finite_family_parameters_are_usage_errors(self, capsys, flags):
        code, out, err = run_cli(capsys, ["decompose", *flags])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flags", [
        ["--rmax", "inf"], ["--rmin", "inf"], ["--rmin", "inf", "--rmax", "inf"],
        ["--rmin", "nan"]])
    def test_non_finite_radial_window_is_a_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, ["decompose", *flags])
        assert code == 2
        assert out == ""
        assert "bad radial window" in err

    def test_decompose_residuals(self, capsys):
        code, out, _ = run_cli(capsys, ["decompose", "--count", "2",
                                        "--seed", "7"])
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        for p in rep["points"]:
            dec = p["decomposition"]
            assert dec["residual"] < 1e-6
            assert "class" in dec and "k" in dec


class TestMeridianCSV:
    def test_bochner_csv_contract(self, capsys):
        code, out, _ = run_cli(capsys, ["meridian", "bochner", "--c1", "1",
                                        "--c2", "0", "--t0", "0.4",
                                        "--t1", "1.2", "--steps", "41"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == CSV_HEADER
        assert len(rows) == 41
        assert all(len(r) == 10 for r in rows)
        vals = [[float(f) for f in r] for r in rows]
        ts = [v[1] for v in vals]
        assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))
        for v in vals:
            assert abs(v[7]) < 1e-9                      # c column vanishes
            assert abs(v[9] - 4.0 / v[1] ** 2) < 1e-10   # a + k^2

    def test_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, ["meridian", "bochner", "--c1", "0.5",
                                     "--c2", "1", "--t0", "0.3", "--t1", "0.9",
                                     "--steps", "33"])
        _, rows = parse_csv(out)
        for row in rows:
            for field in row:
                assert f"{float(field):.17g}" == field

    def test_type_violation_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, ["meridian", "bochner", "--c1", "-1",
                                        "--c2", "0", "--t0", "0.4",
                                        "--t1", "1.2"])
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "TypeConstraintError"
        assert rep["schema_version"] == 1

    def test_nan_coefficient_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, ["meridian", "bochner", "--c1", "nan",
                                        "--c2", "0", "--t0", "0.4",
                                        "--t1", "1.2"])
        assert code == 1
        assert json.loads(out)["error"] == "TypeConstraintError"

    def test_overflowing_window_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, ["meridian", "bochner", "--c1", "1",
                                        "--c2", "0", "--t0", "0.4",
                                        "--t1", "1e300", "--steps", "3"])
        assert code == 1
        assert json.loads(out)["error"] in ("DomainError",
                                            "TypeConstraintError")

    @pytest.mark.parametrize("steps", ["0", "1", "-3"])
    @pytest.mark.parametrize("profile", [
        ["bochner", "--c1", "1", "--c2", "0", "--t0", "0.4", "--t1", "1.2"],
        ["const-hsc", "--a", "-1", "--t0", "0.5", "--t1", "3"],
    ])
    def test_too_few_steps_exit_two(self, capsys, profile, steps):
        code, out, err = run_cli(capsys, ["meridian", *profile,
                                          "--steps", steps])
        assert code == 2
        assert out == ""
        assert err == "error: --steps must be at least 2\n"

    def test_const_hsc_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, ["meridian", "const-hsc", "--type", "III",
                                        "--a", "-1", "--t0", "1.0",
                                        "--t1", "2.0"])
        assert code == 1
        assert json.loads(out)["error"] == "DomainError"

    def test_const_hsc_type_three_table(self, capsys):
        code, out, _ = run_cli(capsys, ["meridian", "const-hsc", "--type", "III",
                                        "--a", "-1", "--t0", "3.0",
                                        "--t1", "5.0", "--steps", "33"])
        assert code == 0
        _, rows = parse_csv(out)
        vals = [[float(f) for f in r] for r in rows]
        ss = [v[0] for v in vals]
        assert all(s1 < s0 for s0, s1 in zip(ss, ss[1:]))
        for v in vals:
            assert v[8] < 0                               # k < 0
            assert abs(v[9] + 4.0 / v[1] ** 2) < 1e-10


class TestSasaki:
    def test_sphere_report(self, capsys):
        code, out, _ = run_cli(capsys, ["sasaki", "--r", "2"])
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "sasaki"
        assert abs(rep["alpha"] - 0.25) < 1e-10
        assert rep["type"] == "III"
        assert abs(rep["c_plus_3a2"] + 0.75) < 1e-8

    def test_small_radius_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, ["sasaki", "--r", "0.5"])
        assert code == 1
        assert json.loads(out)["error"] == "DomainError"

    def test_intrinsic_family(self, capsys):
        code, out, _ = run_cli(capsys, ["sasaki", "--family-h1", "--q", "2"])
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["alpha"] - 1.0) < 1e-8
        assert abs(rep["c"] + 4.0) < 1e-8

    def test_family_q_defaults_to_one(self, capsys):
        code, out, _ = run_cli(capsys, ["sasaki", "--family-h1"])
        assert code == 0
        assert json.loads(out)["q"] == 1.0
        _, explicit, _ = run_cli(capsys, ["sasaki", "--family-h1", "--q", "1"])
        assert out == explicit

    def test_sphere_orientation_defaults_to_auto(self, capsys):
        code, out, _ = run_cli(capsys, ["sasaki", "--r", "2"])
        assert code == 0
        _, explicit, _ = run_cli(capsys, ["sasaki", "--r", "2",
                                          "--orientation", "auto"])
        assert out == explicit

    def test_missing_radius_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["sasaki"])
        assert code == 2
        assert "--r" in err

    @pytest.mark.parametrize("r", ["-2", "0", "nan", "inf", "-inf"])
    def test_bad_radius_is_usage_error(self, capsys, r):
        code, out, err = run_cli(capsys, ["sasaki", f"--r={r}"])
        assert code == 2
        assert out == ""
        assert "--r must be a positive finite radius" in err

    @pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
    def test_non_finite_family_parameter_is_usage_error(self, capsys, q):
        code, out, err = run_cli(capsys, ["sasaki", "--family-h1", f"--q={q}"])
        assert code == 2
        assert out == ""
        assert "--q must be finite" in err

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_family_dimension_below_two_is_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, ["sasaki", "--family-h1", "--n", n])
        assert code == 2
        assert out == ""
        assert "complex dimension at least 2" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--family-h1", "--space", "definite", "--q", "2"], "--space"),
        (["--family-h1", "--r", "3"], "--r"),
        (["--family-h1", "--orientation", "inward"], "--orientation"),
        (["--r", "2", "--q", "5"], "--q"),
        (["--r", "2", "--count", "5"], "--count"),
    ], ids=["h1-space", "h1-r", "h1-orientation", "sphere-q", "sphere-count"])
    def test_flag_the_mode_does_not_read_is_usage_error(self, capsys, argv,
                                                        flag):
        code, out, err = run_cli(capsys, ["sasaki", *argv])
        assert code == 2
        assert out == ""
        assert "error:" in err and flag in err

    def test_non_positive_family_parameter_is_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, ["sasaki", "--family-h1", "--q", "-1"])
        assert code == 1
        assert json.loads(out)["error"] == "DomainError"


class TestVerifyCommand:
    def test_bochner_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "bochner",
                                        "--json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert [r["number"] for r in rep["results"]] == [6, 9]
        assert all(r["passed"] for r in rep["results"])

    def test_bochner_suite_text(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "bochner"])
        assert code == 0
        assert "criterion  6" in out
        assert "2/2 criteria passed" in out


class TestUsageAndConfig:
    def test_unknown_command_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["meridian", "bochner", "--c1", "1"])
        assert code == 2

    def test_bad_config_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli(capsys, ["check-potential", "--config",
                                        str(bad)])
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("argv", [
        ["decompose", "--seed", "-1"],
        ["sasaki", "--r", "2", "--seed", "-1"],
        ["sasaki", "--family-h1", "--seed", "-1"],
        ["decompose", "--config", "{config}"],
    ], ids=["decompose", "sasaki-sphere", "sasaki-family", "config-file"])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, argv):
        cfgfile = tmp_path / "seed.json"
        cfgfile.write_text(json.dumps({"points": {"seed": -1}}))
        argv = [a.format(config=cfgfile) for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "seed must be a non-negative integer, got -1" in err

    def test_unknown_config_field(self, capsys, tmp_path):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"widget": 3}))
        code, _, err = run_cli(capsys, ["check-potential", "--config",
                                        str(odd)])
        assert code == 2
        assert "widget" in err

    def test_output_is_no_config_field(self, capsys, tmp_path):
        # no command read it; a file that still sets it is a config error,
        # and the config echo does not carry it
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"output": "json"}))
        code, _, err = run_cli(capsys, ["check-potential", "--config",
                                        str(old)])
        assert code == 2
        assert "output" in err
        code, out, _ = run_cli(capsys, ["check-potential", "--count", "1"])
        assert code == 0
        assert sorted(json.loads(out)["config"]) == [
            "n", "points", "potential", "space", "tolerances"]

    def test_partial_potential_in_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "partial.json"
        cfgfile.write_text(json.dumps({"potential": {"kind": "log"}}))
        code, _, err = run_cli(capsys, ["check-potential", "--config",
                                        str(cfgfile)])
        assert code == 2
        assert "'a'" in err

    def test_flags_override_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "potential": {"kind": "log", "a": -2.0, "r0": 1.0},
            "points": {"count": 2, "seed": 5},
        }))
        code, out, _ = run_cli(capsys, ["check-potential", "--config",
                                        str(cfgfile), "--a", "-1.5"])
        assert code == 0
        rep = json.loads(out)
        assert rep["config"]["potential"]["a"] == -1.5
        assert rep["config"]["potential"]["r0"] == 1.0
        assert len(rep["points"]) == 2

    def test_explicit_points_in_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "pts.json"
        cfgfile.write_text(json.dumps({
            "points": [[0.0, 0.0, 0.0, 1.5], [0.1, 0.0, 0.0, 1.6]],
        }))
        code, out, _ = run_cli(capsys, ["check-potential", "--config",
                                        str(cfgfile)])
        assert code == 0
        rep = json.loads(out)
        assert [p["point"] for p in rep["points"]] == [
            [0.0, 0.0, 0.0, 1.5], [0.1, 0.0, 0.0, 1.6]]

    def test_class_band_tolerance_is_unknown(self, capsys, tmp_path):
        cfgfile = tmp_path / "band.json"
        cfgfile.write_text(json.dumps({"tolerances": {"class_band": 1e-3}}))
        code, _, err = run_cli(capsys, ["decompose", "--config", str(cfgfile)])
        assert code == 2
        assert "class_band" in err

    def test_config_residual_tolerance_gates_decompose(self, capsys, tmp_path):
        argv = ["decompose", "--count", "2", "--seed", "1"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and json.loads(out)["pass"] is True
        cfgfile = tmp_path / "strict.json"
        cfgfile.write_text(json.dumps({"tolerances": {"residual": 0.0}}))
        code, out, _ = run_cli(capsys, argv + ["--config", str(cfgfile)])
        rep = json.loads(out)
        assert code == 1 and rep["pass"] is False
        assert rep["config"]["tolerances"] == {"residual": 0.0}
        assert all("error" not in p for p in rep["points"])

    def test_thread_env_changes_no_command(self, capsys, monkeypatch):
        # the batched pipeline decides the fan-out; QCK_THREADS is not read
        argv = ["check-potential", "--count", "2"]
        monkeypatch.delenv("QCK_THREADS", raising=False)
        base = run_cli(capsys, argv)
        monkeypatch.setenv("QCK_THREADS", "lots")
        assert run_cli(capsys, argv) == base
        assert base[0] == 0


class TestDeterminism:
    def test_repeat_runs_are_identical(self, capsys):
        argv = ["check-potential", "--count", "3", "--seed", "9"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_thread_cap_does_not_change_output(self, capsys, monkeypatch):
        argv = ["decompose", "--count", "4", "--seed", "6"]
        monkeypatch.setenv("QCK_THREADS", "1")
        _, base, _ = run_cli(capsys, argv)
        monkeypatch.setenv("QCK_THREADS", "2")
        _, pooled, _ = run_cli(capsys, argv)
        assert pooled == base

    def test_serial_by_default(self, monkeypatch):
        monkeypatch.delenv("QCK_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("QCK_THREADS", "3")
        assert worker_count() == 3


class TestMetricEvaluations:
    @pytest.mark.parametrize("command", ["decompose", "check-potential"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_one_jet_pass_per_pass(self, capsys, monkeypatch, command, n):
        # the closed-form jets of the points of a pass come from one batched
        # call, whatever the dimension, and the metric field itself is
        # never evaluated: the radial unit field and its partials are read
        # off the jets.  17 points are one pass at n = 2 (256 rows) and
        # two at n = 4 (16 rows), the edges of the memory bound.
        passes, evaluations = [], []
        jets = ambient._closed_form_jets

        def counted_jets(space, X, *values):
            passes.append(len(X))
            return jets(space, X, *values)

        init = ambient.MetricField.__init__

        def counted_init(field, *args, **kwargs):
            init(field, *args, **kwargs)
            evaluate = field.fn
            field.fn = lambda x: evaluations.append(1) or evaluate(x)

        monkeypatch.setattr(ambient, "_closed_form_jets", counted_jets)
        monkeypatch.setattr(ambient.MetricField, "__init__", counted_init)
        count = 17
        code, out, _ = run_cli(capsys, [command, "--n", str(n), "--count",
                                        str(count), "--seed", "1"])
        assert code == 0
        assert len(json.loads(out)["points"]) == count
        assert passes == {2: [17], 4: [16, 1]}[n]
        assert qch.pass_rows(2 * n) == {2: 256, 4: 16}[n]
        assert evaluations == []

    @pytest.mark.parametrize("command", ["decompose", "check-potential"])
    def test_one_connection_per_chunk(self, capsys, monkeypatch, command):
        # the jets carry their Christoffel symbols; the curvature tensors
        # and the shape data both read them
        calls = []
        connection = curvature._connection

        def counted(G, dG):
            calls.append(len(G))
            return connection(G, dG)

        monkeypatch.setattr(curvature, "_connection", counted)
        code, out, _ = run_cli(capsys, [command, "--count", "3", "--seed", "1"])
        assert code == 0
        assert len(json.loads(out)["points"]) == 3
        assert calls == [3]


class TestErrorEntries:
    """An inadmissible point keeps the error entry text it had when the
    metric jet was taken by duals; the field's own float evaluation raises
    it.  The golden log-boundary cases pin the texts of points outside the
    family domain."""

    def test_inadmissible(self, capsys):
        code, out, _ = run_cli(capsys, [
            "decompose", "--family", "series", "--coeffs", "0,1,1",
            "--rmin", "0.3", "--rmax", "0.9", "--count", "5", "--seed", "3"])
        assert code == 1
        errors = [p.get("error") for p in json.loads(out)["points"]]
        assert errors == [
            "AdmissibilityError: inadmissible at w=-0.123475: f'=0.753051, "
            "f'+wf''=0.506102",
            "AdmissibilityError: inadmissible at w=-0.127076: f'=0.745848, "
            "f'+wf''=0.491696",
            "AdmissibilityError: inadmissible at w=-0.548705: f'=-0.0974101, "
            "f'+wf''=-1.19482",
            None,
            "AdmissibilityError: inadmissible at w=-0.22139: f'=0.557221, "
            "f'+wf''=0.114441"]

    def test_point_without_radius_is_an_entry(self, capsys, tmp_path):
        # a space-like and a null point of the Lorentz background lie in the
        # dlog domain; each gets an error entry and the report goes on to
        # the time-like point
        cfgfile = tmp_path / "pts.json"
        cfgfile.write_text(json.dumps({
            "space": "lorentz",
            "potential": {"kind": "dlog", "a": 2.0, "r0": 1.0},
            "points": [[0.5, 0.1, 0.2, 0.1], [1.0, 0.0, 1.0, 0.0],
                       [0.0, 0.0, 0.0, 0.5]]}))
        code, out, _ = run_cli(capsys, ["check-potential", "--config",
                                        str(cfgfile)])
        assert code == 1
        points = json.loads(out)["points"]
        assert [p.get("error") for p in points[:2]] == [
            "DomainError: square norm 0.21 has no radius on the lorentz "
            "background",
            "DomainError: square norm 0 has no radius on the lorentz "
            "background"]
        assert len(points) == 3 and points[2]["in_domain"] is True


class TestParser:
    def test_built_once_per_process(self, capsys):
        # the cached parser prints what a fresh parser prints
        runs = (["decompose", "--count", "2", "--seed", "3"],
                ["curvature", "--n", "3", "--count", "2"])
        fresh = []
        for argv in runs:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, argv))
        cli.build_parser.cache_clear()
        cached = [run_cli(capsys, argv) for argv in runs]
        assert cli.build_parser.cache_info().misses == 1
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 0]

    def test_import_loads_no_scipy(self):
        # not on import, and not in the commands that integrate meridians
        code = (
            "import contextlib, io, sys, qck.cli\n"
            "for argv in (['verify'],\n"
            "             ['meridian', 'bochner', '--c1', '1', '--c2', '0',\n"
            "              '--t0', '0.4', '--t1', '1.2', '--steps', '5'],\n"
            "             ['meridian', 'const-hsc', '--a', '-1', '--t0', '0.5',\n"
            "              '--t1', '3', '--steps', '5']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert qck.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src},
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
