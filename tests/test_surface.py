"""The public surface of ``src/qck`` is what a command reaches.

A module-level public ``def`` or ``class`` of the package, and a public
method or property of a class of the package, must be used by the package
itself, by ``scripts/`` or by the benchmark under ``perfbench/`` (its own
tests excluded), or be a console script of ``pyproject.toml``.  A use is a
name or attribute reference outside the definition's own body; an import
alone does not count.  Code that only the tests reach belongs in the tests.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "qck"


def _consumer_files():
    yield from sorted(PACKAGE.glob("*.py"))
    yield from sorted((REPO / "scripts").glob("*.py"))
    yield from (p for p in sorted((REPO / "perfbench").glob("*.py"))
                if not p.name.startswith("test_"))


def _console_scripts():
    text = (REPO / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    return set(re.findall(r"=\s*\"[\w.]+:(\w+)\"", section.group(1)))


def _uses(tree, skip):
    """Names referenced in ``tree`` outside the nodes in ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreached_names():
    trees = {path: ast.parse(path.read_text()) for path in _consumer_files()}
    defs = {}
    classes = {}  # the class whose body holds a method
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node] = path.stem
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("_")):
                        defs[method] = f"{path.stem}.{node.name}"
                        classes[method] = node
    # Uses outside any definition body are shared; uses inside a body count
    # for every name but that body's own, and a method's own class body.
    bodies = set(defs)
    shared = set().union(*(_uses(tree, bodies) for tree in trees.values()))
    inside = {node: _uses(node, set()) for node in defs}
    reached = shared | _console_scripts()
    out = []
    for node, owner in defs.items():
        if node.name in reached:
            continue
        if any(node.name in names for other, names in inside.items()
               if other is not node and other is not classes.get(node)):
            continue
        out.append(f"{owner}.{node.name}")
    return sorted(out)


def test_every_public_definition_is_reached():
    names = unreached_names()
    assert not names, f"only the tests reach {names}"
