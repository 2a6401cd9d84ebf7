"""The benchmark's own smoke tests, run from the root of the checkout: the
harness hooks the package's constructors and reads what they store (for
one, MotivicValue's num.terms and den.terms under --trace 1), so a change
that breaks it fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
