"""The benchmark's workloads (``perfbench/workloads.py``) on the current
package: one operation of each workload, run and checked by that workload's
own ``check``, so that a change that breaks an operation fails here and not
only in a benchmark run.  The module is loaded without writing under
``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name as they are built
    sys.modules[spec.name] = module
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_operation_passes_its_check(name):
    op = workloads.build(name, seed=1)[0][0]
    checked = op.check(op.call())
    assert checked.problems == (), checked.problems
    assert checked.points > 0
