"""The benchmark's tracer (``perfbench/spans.py``) on the current package.

A traced benchmark run patches every public function of the traced ``qck``
modules, counts ``MultiDual`` products through ``MultiDual.__mul__`` and
metric evaluations through ``MetricField.__init__`` and the ``fn`` it
wraps, and restores all of it.  These tests guard those patch points and
the span names the benchmark reports, without writing under
``perfbench/``.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from qck import rotational, sasakian
from qck.ambient import MetricField
from qck.duals import MultiDual

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


spans = _load("spans")
run = _load("run")

# spans that the dual fields and their reports run through
FIELD_SPANS = ("duals.eval_with_partials", "rotational.embed_and_verify",
               "sasakian.family_h1_report")


def public_functions():
    """Every attribute the tracer may patch: (module, name) -> object."""
    out = {}
    for layer in spans.LAYERS:
        module = importlib.import_module(f"qck.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and not attr.startswith("_"):
                out[(module, attr)] = obj
    return out


def test_patch_points_exist():
    assert "__mul__" in MultiDual.__dict__ and "__rmul__" in MultiDual.__dict__
    assert "__init__" in MetricField.__dict__
    field = MetricField(lambda x: [[1.0]], 1)
    field.fn = lambda x: [[2.0]]  # the tracer wraps each field's evaluator
    assert field([0.0]) == [[2.0]]


@pytest.mark.parametrize("name", FIELD_SPANS)
def test_reported_spans_name_package_functions(name):
    assert name in run.SELF_SPANS
    layer, attr = name.split(".")
    assert inspect.isfunction(getattr(importlib.import_module(f"qck.{layer}"),
                                      attr))


def test_install_traces_the_dual_fields_and_uninstall_restores():
    before = public_functions()
    mul, rmul = MultiDual.__dict__["__mul__"], MultiDual.__dict__["__rmul__"]
    init = MetricField.__dict__["__init__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert MultiDual.__dict__["__mul__"] is not mul
        assert MetricField.__dict__["__init__"] is not init
        with tracer.op(1):
            sasakian.family_h1_report(2, 1.0, seed=1)
            profile = rotational.const_hsc_profile("II", -1.0, 0.7, 2.8)
            rotational.embed_and_verify(profile, n=2, count=2, seed=11)
    finally:
        tracer.uninstall()
    assert public_functions() == before
    assert MultiDual.__dict__["__mul__"] is mul
    assert MultiDual.__dict__["__rmul__"] is rmul
    assert MetricField.__dict__["__init__"] is init
    calls = tracer.calls()
    assert all(calls[name] > 0 for name in FIELD_SPANS), calls
    assert tracer.counts["duals.mul_calls"] > 0
    assert tracer.counts["ambient.metric_evals"] > 0
