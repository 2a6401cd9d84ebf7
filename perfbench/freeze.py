"""Freeze the expected exit code and stdout SHA-256 of every pooled call.

    python3 perfbench/freeze.py

Run from the root of a checkout whose outputs are known to be right; it
rewrites perfbench/expected.json.  The outputs must never need refreezing:
stdout of every CLI call is meant to stay byte-identical across versions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    program = run.Program(Path.cwd())
    table = {}
    for workload in workloads.WORKLOADS:
        for argv in dict.fromkeys(workloads.pool(workload)):
            out = program.call(argv)
            table[run.key(argv)] = [out.code, out.digest]
        print(f"{workload}: {len(table)} calls frozen so far", file=sys.stderr)
    with open(run.EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
