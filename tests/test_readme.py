"""The README's Python quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    dec = scope["dec"]
    # the disc model: constant holomorphic curvature -1, nothing else
    assert abs(dec.a + 1.0) < 1e-9
    assert abs(dec.b) < 1e-9 and abs(dec.c) < 1e-9
    assert dec.residual < 1e-12
