"""The measured part of a run, in a fresh interpreter.

``run.py`` starts this script with a JSON job as its only argument and
reads one JSON object from the last line of its output.

The interpreter sets up once — imports, compiles every program and, in
merge mode, runs the QCE analysis — and then runs the cells round-robin,
forking one process per cell from that set-up state.  Every cell thus
starts from the same heap, as in a fresh process that has just set up,
whatever ran before it: process-wide memos (expression interning, the
serialize and simplify memos) and the cyclic collector's heap do not
carry over from other cells.  Run in one process, the cell order alone
moved a merge-corpus pass between 9 and 13 s.

Roles:

* ``pass``  — set up, then run and check every cell, round-robin;
* ``setup`` — set up only (extra ``setup_s`` samples);
* ``prep``  — fill the warm-corpus store with one cold pass (untimed).
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import checks
import workloads as wl
from layers import Totals

tracer = None


def setup(workload: wl.Workload, cells) -> dict:
    """Import the entry points, compile every program (and run QCE in merge
    mode).  The engine hits the same per-process memos later."""
    import repro.env.runner  # noqa: F401
    import repro.parallel  # noqa: F401
    from repro.programs.registry import get_program
    from repro.qce.qce import QceParams, analyze_module

    modules = {}
    for program in sorted({cell.program for cell in cells}):
        modules[program] = get_program(program).compile()
        if workload.mode["similarity"] == "qce":
            analyze_module(modules[program], QceParams())
    return modules


def timed(fn, *args):
    """``fn(*args)`` and its wall time; a ``cell`` span when tracing."""
    start = time.perf_counter()
    result = tracer.call("cell", fn, *args) if tracer else fn(*args)
    return result, time.perf_counter() - start


def run_campaign(workload, cell, work: str):
    """One 2-worker socket campaign on a fresh store and an ephemeral port."""
    from repro.parallel import Coordinator, ParallelConfig

    store_dir = tempfile.mkdtemp(prefix="campaign-", dir=work)
    try:
        config = wl.engine_config(
            workload, store_path=os.path.join(store_dir, "store.db")
        )
        parallel = ParallelConfig(
            workers=2, backend="socket", socket_port=0,
            campaign_id=f"bench-{cell.key}", checkpoint_every=1,
        )
        coordinator = Coordinator(cell.program, wl.spec_for(cell), config, parallel)
        return timed(coordinator.run)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def run_cell(job: dict, workload, cell, module, expected: dict) -> dict:
    """Run and check one cell (in its own forked process)."""
    from repro.env.runner import run_symbolic_module

    work = job["work"]
    totals = Totals()
    failures = []
    if workload.kind == "campaign":
        result, wall = run_campaign(workload, cell, work)
        totals.add_parallel(result, wall)
        failures += checks.hygiene(work)
    else:
        extra = {}
        if job["role"] == "prep":
            extra = {"store_path": job["store"]}
        elif workload.kind == "warm":
            extra = {"store_path": job["store"], "store_readonly": True}
        config = wl.engine_config(workload, **extra)
        result, wall = timed(run_symbolic_module, module, wl.spec_for(cell), config, cell.program)
        totals.add_run(result.stats, result.solver_stats)
    out = {
        "cell": cell.key,
        "wall_s": wall,
        "tests": sum(1 for c in result.tests.cases if c.kind == "path"),
        "blocks": result.coverage_blocks,
        "totals": totals.values,
        "peak_rss_mb": peak_rss_mb(),
        "digest": checks.tests_digest(result.tests.cases),
    }
    if tracer is not None:
        tracer.active = False
        out["spans"] = {name: vars(s) for name, s in tracer.summarize().items()}
        out["branch_s"] = tracer.durations("solver.check_branch")
    cold = job["cold"].get(cell.key) if job["cold"] else None
    out["failures"] = failures + checks.check_cell(
        workload, cell, result, module, expected, cold
    )
    return out


def forked(fn) -> dict:
    """Run ``fn()`` in a forked copy of this process; its JSON result."""
    # Every cell forks from the same collector state: a full collection
    # zeroes the generation counters the parent's own allocations moved.
    gc.collect()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            if tracer is not None:
                tracer.reset()
                tracer.active = True
            payload = json.dumps(fn())
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    try:
        return json.loads(data)
    except ValueError:
        return {"error": f"cell process died ({data[-500:]!r})"}


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def run_cells(job: dict, workload, cells, modules: dict, expected: dict) -> dict:
    """Run the cells round-robin, each in a process forked from the set-up
    state: one whole pass, then more cells while ``job['seconds']`` allows
    (``job['one_pass']`` stops after the first)."""
    totals = Totals()
    spans: dict[str, dict] = {}
    branch_s: list[float] = []
    if tracer is not None:
        spans = {name: vars(s) for name, s in tracer.summarize().items()}
    out = {"cells": []}
    took: dict[str, float] = {}
    begin = time.perf_counter()
    for i in itertools.count():
        cell = cells[i % len(cells)]
        if i >= len(cells) and (
            job["one_pass"] or time.perf_counter() - begin + took[cell.key] > job["seconds"]
        ):
            break
        started = time.perf_counter()
        res = forked(lambda: run_cell(job, workload, cell, modules[cell.program], expected))
        took[cell.key] = time.perf_counter() - started
        if "error" in res:
            res = {"cell": cell.key, "wall_s": 0.0, "tests": 0, "blocks": 0,
                   "peak_rss_mb": 0.0,
                   "failures": [f"raised: {res['error'].strip().splitlines()[-1]}"]}
        else:
            totals.merge(res.pop("totals"))
            for name, agg in res.pop("spans", {}).items():
                mine = spans.setdefault(name, dict.fromkeys(agg, 0))
                for key, value in agg.items():
                    mine[key] += value
            branch_s += res.pop("branch_s", [])
        out["cells"].append(res)
    if tracer is not None:
        from layers import layer_values
        from spans import SpanStats

        out["layers"] = layer_values(
            {name: SpanStats(**agg) for name, agg in spans.items()}, branch_s, totals,
            sum(c["wall_s"] for c in out["cells"]), sum(s["calls"] for s in spans.values()),
        )
    return out


def main(job: dict) -> dict:
    global tracer
    workload = wl.WORKLOADS[job["workload"]]
    by_key = {cell.key: cell for cell in workload.cells}
    cells = [by_key[key] for key in job["order"]]
    if job["role"] == "prep":
        # Each cold run reads what earlier ones wrote, so the warm store's
        # contents must not depend on the seeded order.
        cells = [cell for cell in workload.cells if cell.key in job["order"]]
    if job["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    modules = setup(workload, cells)
    setup_s = time.perf_counter() - job["t_spawn"]
    if job["role"] == "setup":
        return {"setup_s": setup_s, "cells": []}
    if tracer is not None:
        tracer.active = False
    out = run_cells(job, workload, cells, modules, wl.load_expected())
    out["setup_s"] = setup_s
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
