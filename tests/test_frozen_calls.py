"""Every frozen CLI call keeps its exit code and stdout, byte for byte.

perfbench/expected.json maps each call's argv, joined by spaces, to
[exit code, SHA-256 of stdout].  It is read here as plain data, and the
calls are replayed in-process through wildmckay.cli.main.  Of the `suite`
seeds, which take most of a full replay, two are replayed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from wildmckay.cli import main

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())
SUITE_SEEDS = {"suite --seed 0", "suite --seed 1"}
COMMANDS = sorted({key.split()[0] for key in EXPECTED})


def replay(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(key.split(" "))
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 1
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_the_table_is_read():
    assert len(EXPECTED) == 1620 and COMMANDS == ["covers", "stringy", "suite", "verify"]
    assert SUITE_SEEDS <= set(EXPECTED)


@pytest.mark.parametrize("command", COMMANDS)
def test_frozen_calls_replay(command):
    keys = [key for key in EXPECTED if key.split()[0] == command and (command != "suite" or key in SUITE_SEEDS)]
    assert keys
    changed = [key for key in keys if replay(key) != EXPECTED[key]]
    assert not changed, f"{len(changed)} of {len(keys)} calls changed exit code or stdout, e.g. {changed[:3]}"
