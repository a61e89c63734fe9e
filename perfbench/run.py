"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload merge-corpus --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout.  The cells run in a fresh interpreter
(``child.py``, with ``PYTHONPATH=src``) that sets up once and forks every
cell from its set-up state: one whole pass, then more cells round-robin
until ``--seconds`` would be exceeded.  ``setup_s`` is the median over
at least ``MIN_SETUPS`` fresh interpreters, spread before and after the
cell pass so that they sample the same stretch of time as the cells.
Names, units and bounds of the metrics come from ``BENCHMARK.json``.
``--seed`` orders the cells
(``EngineConfig.seed`` is pinned; see ``workloads.ENGINE_SEED``).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 84, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: a timing is each
cell's median over its runs, summed over the cells.  With ``--trace 1``
one untraced and one traced pass run, and the metrics are the per-layer
ones from the traced pass plus the tracing overhead.  Failure details go
to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads as wl  # noqa: E402

# setup_s samples: at least MIN_SETUPS fresh interpreters, more (up to
# MAX_SETUPS) while their set-up times sum to under SETUP_BUDGET_S.
# SETUPS_BEFORE of them run before the cell pass, the rest after it.
# Within one run on a 2-vCPU VM, plain-corpus set-ups ranged 0.32-0.54 s
# and merge-corpus ones 2.4-2.9 s, so three samples left the median noisy.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S, SETUPS_BEFORE = 7, 15, 4.0, 3
# Every run must end within 180 s; children get what is left of this.
RUN_DEADLINE_S = 170.0
WORK_DIR = ".perfbench_work"


class Runner:
    def __init__(self, root: str, workload: wl.Workload, work: str, cells: list[str]):
        self.root = root
        self.workload = workload
        self.work = work
        self.order = cells
        self.metrics = layers.load_benchmark()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.store = os.path.join(work, "warm.db") if workload.kind == "warm" else None
        # Test-multiset digests of the cold pass that fills the warm store.
        self.cold: dict[str, str] = {}
        src = os.path.join(root, "src")
        self.env = dict(os.environ, TMPDIR=work)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def child(self, role: str, trace: bool = False, seconds: float = 0.0) -> dict | None:
        """Run one child interpreter; None (its cells failed) if it broke."""
        job = {
            "workload": self.workload.name, "order": self.order, "trace": trace,
            "role": role, "work": self.work, "store": self.store, "cold": self.cold,
            "seconds": seconds, "one_pass": not seconds,
        }
        job["t_spawn"] = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            out, err = "", f"{role} interpreter timed out"
        if proc.returncode != 0 or not out.strip():
            self.attempted += len(self.order)
            self.failed += len(self.order)
            print(err.strip()[-2000:], file=sys.stderr)
            return None
        result = json.loads(out.strip().splitlines()[-1])
        for cell in result["cells"]:
            self.attempted += 1
            if cell["failures"]:
                self.failed += 1
                print(f"{role} {cell['cell']}: {'; '.join(cell['failures'])}", file=sys.stderr)
        return result

    def prepare(self) -> None:
        """Fill the warm-corpus store with one cold pass (untimed)."""
        if self.store:
            prep = self.child("prep")
            self.cold = {c["cell"]: c.get("digest") for c in prep["cells"]} if prep else {}

    def setups(self, setups: list[float], enough) -> list[float]:
        """Add ``setup_s`` samples from set-up-only interpreters until
        ``enough(setups)``."""
        while not enough(setups):
            extra = self.child("setup")
            if extra is None:
                break
            setups.append(extra["setup_s"])
        return setups

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics: per-cell medians over the cells' samples,
        summed over the cells of one pass."""
        self.prepare()
        setups = self.setups([], lambda s: len(s) >= SETUPS_BEFORE)
        main = self.child("pass", seconds=seconds)
        samples: dict[str, list[dict]] = {}
        for cell in main["cells"] if main else []:
            samples.setdefault(cell["cell"], []).append(cell)
        if main:
            setups.append(main["setup_s"])
        self.setups(setups, lambda s: len(s) >= MIN_SETUPS and (
            len(s) >= MAX_SETUPS or sum(s) >= SETUP_BUDGET_S
        ))

        def per_pass(key: str) -> float:
            return sum(_median([c[key] for c in cells]) for cells in samples.values())

        wall = per_pass("wall_s")
        values = {
            "wall_s": wall,
            "setup_s": _median(setups),
            "tests_per_s": per_pass("tests") / wall if wall else 0.0,
            "peak_rss_mb": max((c["peak_rss_mb"] for v in samples.values() for c in v), default=0.0),
            "blocks_covered": per_pass("blocks"),
            "passed_frac": 1.0 - self.failed / max(1, self.attempted),
        }
        counts = sorted(len(v) for v in samples.values())
        print(f"{self.workload.name}: {sum(counts)} cell runs ({counts[0] if counts else 0}-"
              f"{counts[-1] if counts else 0} per cell), setups {[round(s, 3) for s in setups]}",
              file=sys.stderr)
        return _report(self.metrics["end_to_end"], values)

    def trace(self) -> dict:
        self.prepare()
        plain = self.child("pass")
        traced = self.child("pass", trace=True)
        values = dict(traced["layers"]) if traced else {}
        if plain and traced:
            base = sum(c["wall_s"] for c in plain["cells"])
            wall = sum(c["wall_s"] for c in traced["cells"])
            values["trace.overhead_frac"] = (wall - base) / base if base else 0.0
        return _report(self.metrics["per_layer"], values)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _report(metrics: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once, so every pass imports warm .pyc files.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", os.path.relpath(HERE, root)],
        cwd=root, check=True, stdout=subprocess.DEVNULL,
    )
    workload = wl.WORKLOADS[args.workload]
    cells = [c.key for c in wl.cell_order(workload, args.seed)]
    work_root = os.path.join(root, WORK_DIR)
    work = os.path.join(work_root, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(root, workload, work, cells)
        metrics = runner.trace() if args.trace else runner.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
