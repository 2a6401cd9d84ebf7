"""What each entry point imports.  `import wildmckay` loads no submodule and
resolves its exports on first use (PEP 562); `import wildmckay.cli` loads
only `cli` and `gf`, and each command imports the modules it uses."""

import os
import subprocess
import sys

import pytest

import wildmckay
import wildmckay.cli
from wildmckay import covers, gf

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SLOW_STDLIB = {"fractions", "decimal", "random"}


def loaded(code: str) -> set[str]:
    """sys.modules of a fresh interpreter after it runs `code`.  -S keeps
    site's own imports out of the set and -B writes no __pycache__; the set
    goes to stderr, so a command's report on stdout stays apart."""
    script = f"import sys; sys.path.insert(0, {SRC!r})\n{code}\nsys.stderr.write(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-S", "-B", "-c", script], capture_output=True, text=True, check=True)
    return set(done.stderr.split())


def package_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.partition(".")[0] == "wildmckay"}


def test_the_package_loads_no_submodule():
    assert package_modules(loaded("import wildmckay")) == {"wildmckay"}


def test_the_cli_and_its_parser_load_only_gf():
    modules = loaded("import wildmckay.cli\nwildmckay.cli.build_parser()")
    assert package_modules(modules) == {"wildmckay", "wildmckay.cli", "wildmckay.gf"}
    assert not SLOW_STDLIB & modules


# a covers row names every module, so the covers commands load exactly gf and
# covers: the jump oracle and the Laurent kernel it runs on are the battery's
@pytest.mark.parametrize("argv, needed, unused", [
    (["stringy", "invariant", "--p", "5", "--dims", "5"], {"stringy", "motivic"},
     {"covers", "laurent", "acceptance", "oracles", "invariant_rings"}),
    (["covers", "census", "--p", "2", "--q", "2", "--max-exp", "5"], {"cli", "gf", "covers"},
     {"laurent", "motivic", "stringy", "acceptance", "oracles", "invariant_rings"}),
    (["verify", "v3", "--p", "5"], {"invariant_rings"},
     {"covers", "laurent", "stringy", "acceptance"}),
    (["covers", "reduce", "--p", "3", "--q", "9", "--series=-9:1,-2:2,0:1"], {"cli", "gf", "covers"},
     {"laurent", "motivic", "stringy", "acceptance", "oracles", "invariant_rings"}),
])
def test_a_command_loads_only_what_it_uses(argv, needed, unused):
    modules = loaded(f"import wildmckay.cli\nassert wildmckay.cli.main({argv!r}) == 0")
    names = {name.removeprefix("wildmckay.") for name in package_modules(modules)}
    assert needed <= names
    assert not unused & names


def test_exports_resolve_to_their_home_objects(monkeypatch):
    for name in wildmckay.__all__:
        value = getattr(wildmckay, name)
        assert value is getattr(sys.modules[value.__module__], name)
        assert name in dir(wildmckay)
    # a read is not cached in the package, so it follows a swapped attribute
    assert "reduce" not in vars(wildmckay)
    monkeypatch.setattr(covers, "reduce", None)
    assert wildmckay.reduce is None
    monkeypatch.undo()
    assert wildmckay.reduce is covers.reduce


def test_unknown_names_raise_attribute_error():
    assert not hasattr(wildmckay, "nope")
    assert not hasattr(wildmckay.cli, "nope")
    with pytest.raises(AttributeError):
        wildmckay.nope  # noqa: B018


def test_cli_acceptance_still_resolves():
    assert [name for name, _ in wildmckay.cli.acceptance.CRITERIA][0] == "worked-examples"


def test_covers_reexports_the_gf_guards():
    assert covers.InvalidJump is gf.InvalidJump
    assert covers.MAX_COUNT_BITS == gf.MAX_COUNT_BITS
