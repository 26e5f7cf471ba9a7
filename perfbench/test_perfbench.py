"""Tests of the benchmark itself: its output checks can fail, its self times
add up, and every workload prints every declared metric.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def disc_model_op(coeffs):
    argv = ("decompose", "--n", "2", "--space", "lorentz", "--family", "log",
            "--a", "-1", "--r0", "1", "--count", str(workloads.SWEEP_POINTS),
            "--seed", "4", "--rmin", "1.1", "--rmax", "3")
    return workloads.SweepOp(argv, "negative", coeffs)


def test_sweep_check_fires_on_wrong_disc_model_curvature():
    result = disc_model_op((-1.0, 0.0, 0.0)).call()
    assert disc_model_op((-1.0, 0.0, 0.0)).check(result).problems == ()
    problems = disc_model_op((-2.0, 0.0, 0.0)).check(result).problems
    assert len(problems) == workloads.SWEEP_POINTS
    assert all("a = " in p for p in problems)


def test_bochner_check_fires_on_wrong_c():
    op = workloads.bochner_round(np.random.default_rng(0))[1]
    assert op.coeffs[2] != 0.0
    result = op.call()
    assert op.check(result).problems == ()
    wrong = dataclasses.replace(op, coeffs=op.coeffs[:2] + (0.0,))
    problems = wrong.check(result).problems
    assert any("Bochner tensor" in p for p in problems)
    assert any("bochner_flat" in p for p in problems)


def test_verify_check_fires_on_a_failed_criterion():
    results = [{"name": f"c{i}", "passed": i != 3, "elapsed": 0.1}
               for i in range(workloads.VERIFY_CRITERIA)]
    text = json.dumps({"pass": False, "results": results})
    problems = workloads.VerifyOp().check((1, text)).problems
    assert problems == ("exit code 1",)
    problems = workloads.VerifyOp().check((0, text)).problems
    assert problems == ("report does not pass", "criterion c3 failed")


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    outer = ["outer", 0.0, 10.0, None, 1, 0]
    tracer.spans = [outer,
                    ["inner", 1.0, 4.0, outer, 1, 0],
                    ["inner", 3.0, 5.0, outer, 1, 1],   # overlaps, other thread
                    ["inner", 9.0, 12.0, outer, 1, 1]]  # runs past its parent
    own = tracer.self_seconds()
    assert own["outer"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["inner"] == pytest.approx(3.0 + 2.0 + 3.0)


def test_tracer_restores_everything_it_patched():
    from qck import cli, curvature, duals
    before = (cli.curvature_bundle, curvature.metric_second_jet,
              duals.MultiDual.__mul__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.curvature_bundle is not before[0]
        with tracer.op(1):
            workloads.run_cli(disc_model_op(None).argv)
    finally:
        tracer.uninstall()
    assert (cli.curvature_bundle, curvature.metric_second_jet,
            duals.MultiDual.__mul__) == before
    assert tracer.calls()["curvature.curvature_bundle"] == workloads.SWEEP_POINTS
    assert tracer.counts["ambient.metric_evals"] > 0


def declared():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


@pytest.mark.parametrize("workload", declared()[2])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_declared_metric_is_printed(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    meta = json.loads(meta_line)["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["failed_fraction"]["value"] == 0
    want = declared()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
