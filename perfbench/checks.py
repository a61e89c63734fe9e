"""Correctness checks run on every cell of every measured pass.

A check returns a list of failure strings; an empty list passes.  The
expected data (``expected.json``) holds the golden plain-mode path
counts of ``tests/test_corpus_symbolic.py``, each program's plain-mode
covered blocks, and the sequential path and test counts of the store
cells — see ``pin.py``, which regenerates the pinned parts.
"""

from __future__ import annotations

import hashlib
import os

from repro.store.corpus import replay_coverage


def block_key(block: tuple[str, str]) -> str:
    return f"{block[0]}:{block[1]}"


def tests_digest(cases) -> str:
    """Order-free digest of a test multiset (kind, argv, stdin, model)."""
    rows = sorted(repr((c.kind, c.argv, c.stdin, c.model)) for c in cases)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def replay_union(module, cases) -> tuple[set, int]:
    """Union of the concrete replay coverage of every path test, and the
    number of tests that failed to replay on the interpreter."""
    union: set = set()
    broken = 0
    for case in cases:
        if case.kind != "path":
            continue
        cov = replay_coverage(module, case)
        if cov is None:
            broken += 1
        else:
            union |= cov
    return union, broken


def check_cell(workload, cell, result, module, expected: dict,
               cold_digest: str | None = None) -> list[str]:
    """``cold_digest``: the test-multiset digest of the cold pass that
    filled the warm store (warm-corpus measured runs only)."""
    failures = []
    stats = result.stats
    if stats.timed_out:
        failures.append("timed out")
    if stats.errors_found:
        failures.append(f"errors_found={stats.errors_found}")
    union, broken = replay_union(module, result.tests.cases)
    if broken:
        failures.append(f"{broken} path tests do not replay")
    covered = {block_key(b) for b in _covered(result)}
    tests = [c for c in result.tests.cases if c.kind == "path"]
    if workload.kind == "sequential":
        pinned = set(expected["plain_coverage"][cell.program])
        if covered != pinned:
            failures.append(f"covered {len(covered)} blocks != plain set {len(pinned)}")
        if workload.mode["merging"] == "none":
            golden = expected["golden_paths"][cell.program]
            if result.paths != golden or len(tests) != golden:
                failures.append(f"paths/tests {result.paths}/{len(tests)} != golden {golden}")
            if {block_key(b) for b in union} != covered:
                failures.append("replay coverage union != engine coverage")
    else:
        pinned = expected["store_cells"][cell.key]
        if result.paths != pinned["paths"] or len(tests) != pinned["tests"]:
            failures.append(
                f"paths/tests {result.paths}/{len(tests)} != pinned "
                f"{pinned['paths']}/{pinned['tests']}"
            )
        if cold_digest is not None and tests_digest(result.tests.cases) != cold_digest:
            failures.append("test multiset differs from the cold pass")
        if workload.kind == "campaign":
            try:
                result.check_ledger()
            except AssertionError as exc:
                failures.append(str(exc))
    return failures


def _covered(result) -> set:
    covered = getattr(result, "covered", None)
    if covered is not None:
        return covered
    return result.engine.coverage.covered


def hygiene(work: str) -> list[str]:
    """No campaign worker process or temporary store directory survives."""
    failures = []
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
        failures.append(
            f"child process {pid} exited unreaped" if pid else "a child process still runs"
        )
    except ChildProcessError:
        pass
    leftovers = sorted(os.listdir(work))
    if leftovers:
        failures.append(f"left behind in the work directory: {leftovers}")
    return failures
