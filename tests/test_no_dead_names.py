"""Every top-level function and class of a package module, and every public
method, is read somewhere in the package outside its own body.  A function
or class counts as read through a name or an attribute; a method only
through an attribute, so a local variable of the same name does not keep it.
The names of `wildmckay.__all__` and the API the README documents are
exempt."""

import ast
from pathlib import Path

import wildmckay

SOURCES = sorted(Path(wildmckay.__file__).parent.glob("*.py"))
# README-documented API that the package itself does not call
DOCUMENTED = {"schema_path", "poincare_polynomial", "dimension"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree) -> list[tuple[str, bool, ast.AST]]:
    """(name, read as an attribute, node) for every read in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, False, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, True, node))
    return out


def dead_names(sources: list[str], exempt=frozenset()) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    reads = [read for tree in trees for read in _reads(tree)]
    defined = []  # (name, definition, only attribute reads count)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, DEFS):
                defined.append((node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (item.name, item, True)
                    for item in node.body
                    if isinstance(item, DEFS) and not item.name.startswith("_")
                ]
    dead = []
    for name, definition, attribute_only in defined:
        own = {id(node) for node in ast.walk(definition)}
        if name not in exempt and not any(
            read == name and (is_attribute or not attribute_only) and id(node) not in own
            for read, is_attribute, node in reads
        ):
            dead.append(name)
    return dead


def test_the_check_sees_names_only_tests_read():
    source = (
        "def used(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else used()\n"
        "class Series:\n"
        "    def shift(self): return self.trim()\n"
        "    def trim(self): return self\n"
        "    def dual(self): return self.scale\n"
        "def exported(): pass\n"
    )
    elsewhere = "def caller(s):\n    shift = 2\n    return s.dual(shift), Series\n"
    assert dead_names([source, elsewhere], exempt={"exported"}) == ["recursive", "shift", "caller"]


def test_no_dead_names():
    assert SOURCES
    dead = dead_names([path.read_text() for path in SOURCES], set(wildmckay.__all__) | DOCUMENTED)
    assert not dead, f"names read only outside the package: {dead}"
