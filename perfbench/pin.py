"""Regenerate the pinned parts of ``expected.json``.

    PYTHONPATH=src python3 perfbench/pin.py

Runs every corpus program and every store cell once in plain mode,
sequentially, and records each program's covered blocks and each store
cell's path count and path-test count.  The golden
path counts are copied from ``tests/test_corpus_symbolic.py`` by hand
and only verified here.  Re-pin only for a change that is meant to
alter exploration; the pinned data is what every measured pass is
checked against.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads as wl


def main() -> int:
    from repro.env.runner import run_symbolic_module
    from repro.programs.registry import get_program

    expected = wl.load_expected()
    plain = wl.WORKLOADS["plain-corpus"]
    coverage = {}
    for cell in plain.cells:
        result = run_symbolic_module(
            get_program(cell.program).compile(), wl.spec_for(cell),
            wl.engine_config(plain), cell.program,
        )
        golden = expected["golden_paths"][cell.program]
        if result.paths != golden:
            print(f"{cell.program}: {result.paths} paths, golden {golden}", file=sys.stderr)
            return 1
        coverage[cell.program] = sorted(checks.block_key(b) for b in result.engine.coverage.covered)
    store_cells = {}
    for cell in wl.STORE_CELLS:
        result = run_symbolic_module(
            get_program(cell.program).compile(), wl.spec_for(cell),
            wl.engine_config(plain), cell.program,
        )
        store_cells[cell.key] = {
            "paths": result.paths,
            "tests": sum(1 for c in result.tests.cases if c.kind == "path"),
        }
    expected["plain_coverage"] = coverage
    expected["store_cells"] = store_cells
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
