"""No `assert` may decide a result: `python -O` strips them.  No float may
either.  Repeated squaring lives in gf alone."""

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


def _floats(node, scope=""):
    """(enclosing qualname, line) of each float literal, float(...) call and
    .inf or .nan attribute under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if (
            isinstance(child, ast.Constant) and isinstance(child.value, float)
            or isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "float"
            or isinstance(child, ast.Attribute) and child.attr in ("inf", "nan")
        ):
            yield inner, child.lineno
        yield from _floats(child, inner)


def test_no_floats():
    """Only MotivicValue.dimension may use a float: it documents -inf as the
    dimension of the zero value, and no result depends on it."""
    found = [(path.name, scope, line) for path in SOURCES for scope, line in _floats(ast.parse(path.read_text()))]
    allowed = [use for use in found if use[:2] == ("motivic.py", "MotivicValue.dimension")]
    assert len(allowed) == 1, "the check no longer sees the -inf of MotivicValue.dimension"
    assert not set(found) - set(allowed), f"floats in the package: {sorted(set(found) - set(allowed))}"


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
