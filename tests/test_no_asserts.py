"""No `assert` may decide a result: `python -O` strips them.  Repeated
squaring lives in gf alone."""

import ast
from pathlib import Path

import wildmckay

SOURCES = sorted(Path(wildmckay.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _squares_in_place(node) -> bool:
    """node assigns x = x * x, also inside a tuple assignment, or x *= x."""
    if isinstance(node, ast.AugAssign):
        pairs = [(node.target, ast.BinOp(node.target, node.op, node.value))]
    elif isinstance(node, ast.Assign):
        pairs = []
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs += zip(target.elts, node.value.elts)
            else:
                pairs.append((target, node.value))
    else:
        return False
    return any(
        isinstance(target, ast.Name)
        and isinstance(value, ast.BinOp)
        and isinstance(value.op, ast.Mult)
        and all(isinstance(side, ast.Name) and side.id == target.id for side in (value.left, value.right))
        for target, value in pairs
    )


def test_one_power_loop():
    """Powers of ring elements go through gf.binary_power: no module but gf
    squares a variable in place."""
    found = {
        path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text())) if _squares_in_place(node)]
        for path in SOURCES
    }
    assert found.pop("gf.py"), "the check no longer sees the loop in gf.binary_power"
    assert not any(found.values()), f"square-and-multiply loops outside gf: {found}"
