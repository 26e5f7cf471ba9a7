"""Reports of a fixed grid of invocations against the stored golden files.

``scripts/regen_golden.py`` wrote ``tests/golden/*.json``; each case reruns
here in process through ``cli.main``.  Keys, value types, strings (classes,
error texts, CSV headers), booleans (``pass`` flags) and exit codes must
match exactly; the cells of a CSV table are stored as floats.
Numbers must agree within ``REL_BOUND`` of max(1, |golden|): the largest
difference seen between equivalent derivative paths was 1.4e-13 relative,
in a + k^2 where a = -342 and k^2 = 330 cancel near an admissibility edge.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REL_BOUND = 1.4e-13

_spec = importlib.util.spec_from_file_location(
    "regen_golden", ROOT / "scripts" / "regen_golden.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def mismatches(new, old, path="$"):
    """Paths at which ``new`` differs from ``old`` beyond the bound."""
    if isinstance(old, bool) or isinstance(new, bool) or type(new) is not type(old):
        return [] if new == old and type(new) is type(old) else [
            f"{path}: {new!r} != {old!r}"]
    if isinstance(old, dict):
        if set(new) != set(old):
            return [f"{path}: keys {sorted(new)} != {sorted(old)}"]
        return [m for k in old for m in mismatches(new[k], old[k], f"{path}.{k}")]
    if isinstance(old, list):
        if len(new) != len(old):
            return [f"{path}: length {len(new)} != {len(old)}"]
        return [m for i, (a, b) in enumerate(zip(new, old))
                for m in mismatches(a, b, f"{path}[{i}]")]
    if isinstance(old, float):
        if math.isnan(old) or math.isinf(old):
            same = (math.isnan(new) and math.isnan(old)) or new == old
        else:
            same = abs(new - old) <= REL_BOUND * max(1.0, abs(old))
        return [] if same else [f"{path}: {new!r} vs {old!r}"]
    return [] if new == old else [f"{path}: {new!r} != {old!r}"]


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_reports_match_golden(name):
    golden = json.loads((ROOT / "tests" / "golden" / f"{name}.json").read_text())
    assert [case["argv"] for case in golden] == regen.CASES[name]
    for case in golden:
        bad = mismatches(regen.run_case(case["argv"]), case)
        assert not bad, f"{' '.join(case['argv'])}: {bad[:5]}"


class TestComparison:
    """The comparison itself fires on each kind of difference."""

    def test_csv_cells_compare_as_numbers(self):
        table = regen._parse_stdout("s,t\n0,0.5\n1e-3,0.75\n")
        assert table == {"header": "s,t", "rows": [[0.0, 0.5], [1e-3, 0.75]]}
        near = regen._parse_stdout("s,t\n1e-14,0.5\n1e-3,0.75\n")
        far = regen._parse_stdout("s,t\n1e-12,0.5\n1e-3,0.75\n")
        assert mismatches(near, table) == []
        assert mismatches(far, table) == ["$.rows[0][0]: 1e-12 vs 0.0"]

    def test_numbers_within_bound_match(self):
        assert mismatches({"a": 1.0 + 1e-14}, {"a": 1.0}) == []
        assert mismatches({"a": 1e3 * (1 + 1e-13)}, {"a": 1e3}) == []

    @pytest.mark.parametrize("new,old", [
        ({"a": 1.0 + 1e-12}, {"a": 1.0}),
        ({"a": 1.0}, {"b": 1.0}),
        ({"pass": True}, {"pass": False}),
        ({"pass": 1}, {"pass": True}),
        ({"error": "DomainError: x"}, {"error": "FrameError: x"}),
        ({"exit": 1}, {"exit": 0}),
        ([1.0], [1.0, 2.0]),
        ({"a": float("nan")}, {"a": 0.0}),
    ])
    def test_differences_fire(self, new, old):
        assert mismatches(new, old)
