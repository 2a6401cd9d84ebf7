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
    """node assigns x = x * x or x = f(x, x, ...), also inside a tuple
    assignment, or x *= x.  The call may sit inside the value, as in
    x = g(f(x, x), m), so a loop on a product function counts too."""
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

    def is_target(side, target):
        return isinstance(side, ast.Name) and side.id == target.id

    return any(
        isinstance(target, ast.Name)
        and (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Mult)
            and is_target(value.left, target) and is_target(value.right, target)
            or any(
                isinstance(call, ast.Call) and len(call.args) >= 2
                and is_target(call.args[0], target) and is_target(call.args[1], target)
                for call in ast.walk(value)
            )
        )
        for target, value in pairs
    )


def _power_loops(node, scope=""):
    """The enclosing qualname of each in-place square under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if _squares_in_place(child):
            yield scope
        yield from _power_loops(child, inner)


def test_one_power_loop():
    """Powers go through gf.binary_power: no function but it squares a
    variable in place, by * or by a product function."""
    found = {path.name: set(_power_loops(ast.parse(path.read_text()))) for path in SOURCES}
    assert found.pop("gf.py") == {"binary_power"}, "the check no longer sees the one loop, in gf.binary_power"
    assert not any(found.values()), f"square-and-multiply loops outside gf.binary_power: {found}"
