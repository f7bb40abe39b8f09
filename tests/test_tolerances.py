"""Every tolerance is a named module-level constant listed once, in the
README's Tolerances table, and no small float literal sits elsewhere in
the source."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quatframes"
# a float literal this small outside a named constant is an unlisted tolerance
SMALL_LITERAL = 1e-3
ROW = re.compile(r"^\| `([A-Z][A-Z0-9_]*)` \| `(\w+)` \| ([^|]+) \|")


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _constant_nodes(tree):
    """(name, Constant node) of each module-level UPPER_CASE float below 1."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if (isinstance(target, ast.Name) and target.id.isupper()
                and isinstance(value, ast.Constant) and type(value.value) is float
                and value.value < 1.0):
            yield target.id, value


def _readme_rows():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [ROW.match(line) for line in section.splitlines()]
    return [(m[1], m[2], float(m[3])) for m in rows if m]


def test_readme_lists_every_tolerance_once():
    constants = sorted((name, module, node.value)
                       for module, tree in _modules().items()
                       for name, node in _constant_nodes(tree))
    rows = _readme_rows()
    assert len({name for name, _, _ in rows}) == len(rows)
    assert sorted(rows) == constants


def test_no_small_float_literal_outside_a_named_constant():
    stray = []
    for module, tree in _modules().items():
        named = {id(node) for _, node in _constant_nodes(tree)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < SMALL_LITERAL and id(node) not in named):
                stray.append(f"{module}.py:{node.lineno}: {node.value!r}")
    assert not stray, stray
