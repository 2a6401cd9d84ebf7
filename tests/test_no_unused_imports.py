"""Every top-level import of a package module is used.  The re-exports of
`__init__.py` and `from __future__` imports are exempt."""

import ast
from pathlib import Path

import wildmckay

SOURCES = sorted(p for p in Path(wildmckay.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _names_used(tree) -> set[str]:
    """Names read anywhere in the module, also inside quoted annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    trees = [tree] + [
        ast.parse(a.value, mode="eval")
        for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names_used(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom typing import Any\n"
    source += "def f(x: 'Any'):\n    return sys.argv\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_no_unused_imports():
    assert SOURCES
    found = {path.name: unused_imports(path.read_text()) for path in SOURCES}
    assert not any(found.values()), f"unused imports: {found}"
