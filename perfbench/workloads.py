"""The benchmark's workloads: which cells each runs, in which mode.

A *cell* is one program at one symbolic input size.  Every input is
built here from the program registry — argv count, argv length and the
symbolic stdin length (``ArgvSpec.stdin_len``) — so the programs receive
only generated inputs.  Why each workload was chosen is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The paper's plain (KLEE-style) and DSM+QCE modes, as in
# repro.experiments.harness.MODES["plain"] / ["dsm-qce"].
PLAIN = {"merging": "none", "similarity": "never", "strategy": "dfs"}
DSM_QCE = {"merging": "dynamic", "similarity": "qce", "strategy": "coverage"}


@dataclass(frozen=True)
class Cell:
    program: str
    n_args: int | None = None  # None = the registry default
    arg_len: int | None = None

    @property
    def key(self) -> str:
        if self.n_args is None and self.arg_len is None:
            return self.program
        return f"{self.program}-{self.n_args}x{self.arg_len}"


@dataclass(frozen=True)
class Workload:
    name: str
    # 'sequential' (run_symbolic_module), 'campaign' (socket Coordinator)
    # or 'warm' (sequential against a read-only, pre-filled store).
    kind: str
    mode: dict
    cells: tuple[Cell, ...]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


_EXPECTED = load_expected()
CORPUS = tuple(Cell(p) for p in sorted(_EXPECTED["golden_paths"]))
# Sized so that a run holds many passes on a 2-vCPU machine, and no cell
# dominates a pass: with wc at 3x2 it took ~75% of a warm pass and had
# only 3-4 samples a run; with uniq, head and split at 3x3 a campaign
# pass took ~14 s.
STORE_CELLS = (Cell("uniq", 3, 2), Cell("wc", 2, 2), Cell("head", 3, 2), Cell("split", 3, 2))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("plain-corpus", "sequential", PLAIN, CORPUS),
        Workload("merge-corpus", "sequential", DSM_QCE, CORPUS),
        Workload("campaign-2w", "campaign", PLAIN, STORE_CELLS),
        Workload("warm-corpus", "warm", PLAIN, STORE_CELLS),
    )
}


def cell_order(workload: Workload, seed: int) -> list[Cell]:
    """The workload's cells in the order ``seed`` picks."""
    cells = list(workload.cells)
    random.Random(seed).shuffle(cells)
    return cells


def spec_for(cell: Cell):
    """The cell's symbolic input, every dimension from the registry.

    ``repro.experiments.harness.settings_to_spec_config`` leaves out
    ``stdin_len``, which would explore wc-stdin and tac-stdin with an
    empty stdin (1 path each instead of 40 and 4); this builds the spec
    the way ``repro.env.runner.run_symbolic`` does.
    """
    from repro.env.argv import ArgvSpec
    from repro.programs.registry import get_program

    info = get_program(cell.program)
    return ArgvSpec(
        n_args=info.default_n if cell.n_args is None else cell.n_args,
        arg_len=info.default_l if cell.arg_len is None else cell.arg_len,
        stdin_len=info.default_stdin,
    )


# EngineConfig.seed is part of the workload, not of the run seed: it
# drives DSM+QCE's coverage-strategy tie-breaks, and across seeds 0-4 it
# moved single merge cells' solver cost units by up to 2.6x (nice: 325
# to 858), which would swamp any change in code speed.
ENGINE_SEED = 0


def engine_config(workload: Workload, **extra):
    from repro.engine.executor import EngineConfig

    return EngineConfig(**workload.mode, seed=ENGINE_SEED, **extra)
