"""Smoke runs of the scripts under ``scripts/`` on tiny inputs."""

import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from qck.ambient import AmbientSpace, family_from_json
from qck.qch import decompose_points
from qck.sampling import point_at_radius

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = SCRIPTS.parent / "tests" / "golden"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_sweep_potentials(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "sweep_potentials.py",
                     "--family", "log", "--params=-1", "--radii", "0.5,1.5,2.0")
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line[:1] == " " and line.split()[0][0].isdigit()}
    # inside r0 the radius is reported as rejected, not computed
    assert rows["0.500"][0] == "--"
    for r in ("1.500", "2.000"):
        a, b, c, k, apk, klass = rows[r]
        # the disc model: a = -1 and b = c = 0 at every radius
        assert abs(float(a) + 1.0) < 1e-9
        assert abs(float(b)) < 1e-9 and abs(float(c)) < 1e-9
        assert klass == "negative"


def test_meridian_tables(monkeypatch, capsys, tmp_path):
    out = run_script(monkeypatch, capsys, "meridian_tables.py",
                     "--out-dir", str(tmp_path), "--steps", "9",
                     "--embed-count", "1")
    tables = sorted(tmp_path.glob("*.csv"))
    assert len(tables) == 5
    for path in tables:
        lines = path.read_text().splitlines()
        assert lines[0] == "s,t,q,tp,tpp,a,b,c,k,a_plus_k2"
        assert len(lines) == 1 + 9
        assert all(len(line.split(",")) == 10 for line in lines[1:])
    embeds = [line for line in out.splitlines() if "embedding" in line]
    assert len(embeds) == 2
    for line in embeds:
        delta = float(line.split("coefficient delta ")[1].split(",")[0])
        assert delta < 1e-4


@pytest.mark.parametrize("steps", ["0", "1", "-3"])
def test_meridian_tables_rejects_too_few_steps(monkeypatch, capsys, tmp_path,
                                               steps):
    out_dir = tmp_path / "tables"
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "meridian_tables.py",
                   "--out-dir", str(out_dir), "--steps", steps, "--skip-embed")
    assert exc.value.code == 2
    assert "--steps must be at least 2" in capsys.readouterr().err
    assert not out_dir.exists()


def test_regen_golden_rewrites_only_the_named_file(monkeypatch, capsys,
                                                   tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "regen_golden.py", "curvature",
                   "--out-dir", str(tmp_path))
    assert exc.value.code == 0
    assert capsys.readouterr().out.count("wrote ") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["curvature.json"]
    written = json.loads((tmp_path / "curvature.json").read_text())
    stored = json.loads((GOLDEN / "curvature.json").read_text())
    assert [c["argv"] for c in written] == [c["argv"] for c in stored]
    assert [c["exit"] for c in written] == [c["exit"] for c in stored]


def test_regen_golden_rejects_an_unknown_name(monkeypatch, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "regen_golden.py", "curvature",
                   "nonesuch", "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert "no golden file named nonesuch" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sweep_potentials_samples_definite_rows_at_their_radius(monkeypatch,
                                                                capsys):
    # each definite row is evaluated at the radius it is labelled with
    out = run_script(monkeypatch, capsys, "sweep_potentials.py",
                     "--family", "dlog", "--space", "definite",
                     "--params", "2", "--radii", "0.5,1.2")
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line[:1] == " " and line.split()[0][0].isdigit()}
    space = AmbientSpace(2, "definite")
    radii = [0.5, 1.2]
    X = np.array([point_at_radius(space, r, seed=0) for r in radii])
    family = family_from_json({"kind": "dlog", "a": 2.0, "r0": 1.0})
    rec = decompose_points(space, family, X)
    for i, r in enumerate(radii):
        assert rows[f"{r:.3f}"][3] == f"{rec.decomposition(i).k:.6e}"


@pytest.mark.parametrize("signature,families,radii", [
    ("lorentz", [{"kind": "log", "a": a, "r0": 1.0} for a in (-0.5, -1, -2)]
     + [{"kind": "inverse"}, {"kind": "series", "coeffs": [0.0, 1.0]}],
     [0.5, 1.2, 1.5, 2.0, 3.0]),
    ("definite", [{"kind": "dlog", "a": a, "r0": 1.0} for a in (1, 2)]
     + [{"kind": "series", "coeffs": [0.0, v]} for v in (1.0, -1.0)],
     [0.5, 0.8, 1.2, 1.6])])
@pytest.mark.parametrize("n", [2, 3])
def test_sweep_rows_of_all_families_equal_the_per_family_loop(
        signature, families, radii, n):
    # every family's radii in one call print what one call per family
    # prints, rejected radii included
    sweep_rows = runpy.run_path(str(SCRIPTS / "sweep_potentials.py"))[
        "sweep_rows"]
    space = AmbientSpace(n, signature)
    families = [family_from_json(obj) for obj in families]
    looped = [sweep_rows(space, [family], radii, seed=3)[0]
              for family in families]
    tables = sweep_rows(space, families, radii, seed=3)
    assert tables == looped
    assert any("--" in row for rows in tables for row in rows)
    assert any("--" not in row for rows in tables for row in rows)


STAGES = ["sampler", "rule", "gated_jets", "curvature_tensors",
          "curvature_gate", "unit field", "adapted_frames", "shape_arrays",
          "frame_fit", "kahler_defect", "argparse", "report writer",
          "decompose_points (one pass)", "decompose command",
          "check-potential command", "bochner op: G",
          "bochner op: radial frame", "bochner op: basis",
          "bochner op: combination", "bochner op: fit", "bochner op: Bochner",
          "bochner op (whole)", "pullback jet"]


def test_stage_costs(monkeypatch, capsys):
    # one repeat at one n: a row of positive microseconds per stage, the
    # sweep op's, the Bochner op's and the pullback jet's
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "stage_costs.py", "--repeats", "1",
                   "--n", "2")
    assert exc.value.code == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "n=2"
    assert [line[:30].strip() for line in lines] == STAGES
    for line in lines:
        assert all(float(v) > 0.0 for v in line[30:].split())


@pytest.mark.parametrize("args", [["--repeats", "0"], ["--n", "1"]])
def test_stage_costs_rejects_bad_args(monkeypatch, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "stage_costs.py", *args)
    assert exc.value.code == 2
