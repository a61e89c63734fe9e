"""The per-layer breakdown: what each layer metric should move, and how
the traced pass's spans and stats ledgers become metric values.

``BENCHMARK.json`` at the checkout root holds every metric's name, unit,
direction and bound.  :data:`MOVES` adds, for each per-layer metric, the
end-to-end metric it should move and the workloads on which it should
move it (the prediction a change that claims a gain on that layer is
held to); ``python3 perfbench/layers.py`` prints it as a table.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

ALL = ("plain-corpus", "merge-corpus", "campaign-2w", "warm-corpus")
PLAIN, MERGE, CAMPAIGN, WARM = ALL


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH) as fh:
        return json.load(fh)


def _moves(*rows) -> dict[str, tuple[str, tuple[str, ...]]]:
    return {name: (moves, on) for name, moves, *on in rows}


# per-layer metric -> (end-to-end metric it should move, workloads)
MOVES = _moves(
    ("lang.compile_s", "setup_s", *ALL),
    ("qce.analyze_s", "setup_s", MERGE),
    ("engine.init.self_s", "wall_s", MERGE, WARM),
    ("engine.explore.self_s", "wall_s", PLAIN, MERGE),
    ("engine.step.calls", "wall_s", PLAIN),
    ("engine.step.self_s", "wall_s", PLAIN),
    ("engine.instructions", "wall_s", PLAIN),
    ("engine.compiled_steps", "wall_s", PLAIN),
    ("engine.testgen.calls", "tests_per_s", PLAIN, MERGE),
    ("engine.testgen.incl_s", "tests_per_s", PLAIN, MERGE),
    ("engine.testgen.share", "wall_s", PLAIN, MERGE),
    ("engine.testgen.cost_units", "tests_per_s", PLAIN, MERGE),
    ("engine.merge.calls", "wall_s", MERGE),
    ("engine.merge.self_s", "wall_s", MERGE),
    ("engine.merge.useful_ratio", "wall_s", MERGE),
    ("engine.similarity.calls", "wall_s", MERGE),
    ("engine.similarity.self_s", "wall_s", MERGE),
    ("engine.similarity.accept_ratio", "wall_s", MERGE),
    ("engine.similarity.hash_self_s", "wall_s", MERGE),
    ("engine.max_worklist", "peak_rss_mb", MERGE),
    ("engine.max_multiplicity", "peak_rss_mb", MERGE),
    ("search.pick.calls", "wall_s", MERGE),
    ("search.pick.self_s", "wall_s", MERGE),
    ("search.on_add.self_s", "wall_s", MERGE),
    ("sched.rescores", "wall_s", MERGE),
    ("solver.check_branch.calls", "wall_s", MERGE, PLAIN),
    ("solver.check_branch.incl_s", "wall_s", MERGE, PLAIN),
    ("solver.check_branch.p50_ms", "wall_s", MERGE, PLAIN),
    ("solver.check_branch.p99_ms", "wall_s", MERGE, PLAIN),
    ("solver.check.calls", "wall_s", MERGE, PLAIN),
    ("solver.check.incl_s", "wall_s", MERGE, PLAIN),
    ("solver.queries", "wall_s", PLAIN, MERGE),
    ("solver.sat_solver_runs", "wall_s", PLAIN, MERGE),
    ("solver.cost_units", "wall_s", PLAIN, MERGE),
    ("solver.cache.self_s", "wall_s", MERGE, PLAIN),
    ("solver.cache.hit_ratio", "wall_s", MERGE, PLAIN),
    ("solver.presolve.self_s", "wall_s", MERGE, PLAIN),
    ("solver.presolve.hit_ratio", "wall_s", MERGE, PLAIN),
    ("solver.rewrite.self_s", "wall_s", MERGE, PLAIN),
    ("solver.bitblast.self_s", "wall_s", PLAIN, MERGE),
    ("solver.sat.calls", "wall_s", PLAIN, MERGE),
    ("solver.sat.self_s", "wall_s", PLAIN, MERGE),
    ("expr.canon.calls", "wall_s", WARM, CAMPAIGN),
    ("expr.canon.self_s", "wall_s", WARM, CAMPAIGN),
    ("expr.named_key.self_s", "wall_s", PLAIN),
    ("expr.serialize.encode_s", "wall_s", CAMPAIGN),
    ("expr.serialize.decode_s", "wall_s", CAMPAIGN),
    ("store.lookup.calls", "wall_s", WARM),
    ("store.lookup.self_s", "wall_s", WARM),
    ("store.hit_ratio", "wall_s", WARM),
    ("store.seed_s", "wall_s", WARM),
    ("store.commit_s", "wall_s", CAMPAIGN),
    ("store.replay_s", "wall_s", CAMPAIGN),
    ("parallel.split_s", "wall_s", CAMPAIGN),
    ("parallel.partitions", "wall_s", CAMPAIGN),
    ("parallel.steals", "wall_s", CAMPAIGN),
    ("parallel.imbalance", "wall_s", CAMPAIGN),
    ("parallel.worker_busy_s", "wall_s", CAMPAIGN),
    ("parallel.efficiency", "wall_s", CAMPAIGN),
    ("parallel.overhead_s", "wall_s", CAMPAIGN),
    ("remote.frames_sent", "wall_s", CAMPAIGN),
    ("remote.send_s", "wall_s", CAMPAIGN),
    ("campaign.checkpoints", "wall_s", CAMPAIGN),
    ("campaign.checkpoint_s", "wall_s", CAMPAIGN),
    ("trace.spans", "wall_s", *ALL),
    ("trace.untimed_s", "wall_s", *ALL),
    ("trace.overhead_frac", "wall_s", *ALL),
)


class Totals:
    """Stats-ledger counters summed (or maxed) over the cells of a pass."""

    ADD = (
        "instructions_executed", "compiled_steps", "merges", "sched_rescores",
        "testgen_cost_units",
    )
    SOLVER_ADD = ("queries", "sat_solver_runs", "cost_units", "store_hits", "store_misses")
    MAX = ("max_worklist", "max_multiplicity")

    def __init__(self):
        self.values = {name: 0 for name in self.ADD + self.SOLVER_ADD + self.MAX}
        self.values.update(
            partitions=0, steals=0, imbalance=0.0, worker_busy_s=0.0, split_s=0.0,
            overhead_s=0.0, worker_capacity_s=0.0,
        )

    def add_run(self, stats, solver_stats) -> None:
        for name in self.ADD:
            self.values[name] += getattr(stats, name)
        for name in self.SOLVER_ADD:
            self.values[name] += getattr(solver_stats, name)
        for name in self.MAX:
            self.values[name] = max(self.values[name], getattr(stats, name))

    def merge(self, values: dict) -> None:
        """Fold another pass-part's ``values`` into these."""
        for name, value in values.items():
            if name in self.MAX or name == "imbalance":
                self.values[name] = max(self.values[name], value)
            else:
                self.values[name] += value

    def add_parallel(self, result, wall: float) -> None:
        """Ledger-derived coordinator/worker figures of one campaign."""
        self.add_run(result.stats, result.solver_stats)
        split = result.ledger[0][1].wall_time
        busy = [entry[1].wall_time for entry in result.ledger[1:]]
        v = self.values
        v["partitions"] += result.partitions
        v["steals"] += result.steals
        v["imbalance"] = max(v["imbalance"], result.imbalance)
        v["split_s"] += split
        v["worker_busy_s"] += sum(busy)
        v["worker_capacity_s"] += result.workers * wall
        v["overhead_s"] += wall - split - max(busy, default=0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(summary: dict, branch_durations: list[float], totals: Totals,
                 wall: float, spans: int) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_frac`` (needs an untraced pass)."""
    from spans import SpanStats

    def g(name: str) -> SpanStats:
        return summary.get(name) or SpanStats()

    t = totals.values
    bitblast = g("solver.bitblast")
    branch_ms = sorted(d * 1000.0 for d in branch_durations)

    def pct(q: float) -> float:
        if not branch_ms:
            return 0.0
        return branch_ms[min(len(branch_ms) - 1, int(q * len(branch_ms)))]

    out = {
        "lang.compile_s": g("lang.compile").incl_s,
        "qce.analyze_s": g("qce.analyze").incl_s,
        "engine.init.self_s": g("engine.init").self_s,
        "engine.explore.self_s": g("engine.explore").self_s,
        "engine.step.calls": g("engine.step").calls,
        "engine.step.self_s": g("engine.step").self_s,
        "engine.instructions": t["instructions_executed"],
        "engine.compiled_steps": t["compiled_steps"],
        "engine.testgen.calls": g("engine.testgen").calls,
        "engine.testgen.incl_s": g("engine.testgen").incl_s,
        "engine.testgen.share": _ratio(g("engine.testgen").incl_s, wall),
        "engine.testgen.cost_units": t["testgen_cost_units"],
        "engine.merge.calls": g("engine.merge").calls,
        "engine.merge.self_s": g("engine.merge").self_s,
        "engine.merge.useful_ratio": _ratio(t["merges"], g("engine.merge").calls),
        "engine.similarity.calls": g("engine.similarity").calls,
        "engine.similarity.self_s": g("engine.similarity").self_s,
        "engine.similarity.accept_ratio": _ratio(
            g("engine.similarity").hits, g("engine.similarity").calls
        ),
        "engine.similarity.hash_self_s": g("engine.similarity.hash").self_s,
        "engine.max_worklist": t["max_worklist"],
        "engine.max_multiplicity": t["max_multiplicity"],
        "search.pick.calls": g("search.pick").calls,
        "search.pick.self_s": g("search.pick").self_s,
        "search.on_add.self_s": g("search.on_add").self_s,
        "sched.rescores": t["sched_rescores"],
        "solver.check_branch.calls": g("solver.check_branch").calls,
        "solver.check_branch.incl_s": g("solver.check_branch").incl_s,
        "solver.check_branch.p50_ms": pct(0.50),
        "solver.check_branch.p99_ms": pct(0.99),
        "solver.check.calls": g("solver.check").calls,
        "solver.check.incl_s": g("solver.check").incl_s,
        "solver.queries": t["queries"],
        "solver.sat_solver_runs": t["sat_solver_runs"],
        "solver.cost_units": t["cost_units"],
        "solver.cache.self_s": g("solver.cache").self_s,
        "solver.cache.hit_ratio": _ratio(g("solver.cache").hits, g("solver.cache").calls),
        "solver.presolve.self_s": g("solver.presolve").self_s,
        "solver.presolve.hit_ratio": _ratio(
            g("solver.presolve").hits, g("solver.presolve").calls
        ),
        "solver.rewrite.self_s": g("solver.rewrite").self_s,
        "solver.bitblast.self_s": bitblast.self_s,
        "solver.sat.calls": g("solver.sat").calls,
        "solver.sat.self_s": g("solver.sat").self_s,
        "expr.canon.calls": g("expr.canon").calls,
        "expr.canon.self_s": g("expr.canon").self_s,
        "expr.named_key.self_s": g("expr.named_key").self_s,
        "expr.serialize.encode_s": g("expr.serialize.encode").incl_s,
        "expr.serialize.decode_s": g("expr.serialize.decode").incl_s,
        "store.lookup.calls": g("store.lookup").calls,
        "store.lookup.self_s": g("store.lookup").self_s,
        "store.hit_ratio": _ratio(t["store_hits"], t["store_hits"] + t["store_misses"]),
        "store.seed_s": g("store.seed").incl_s,
        "store.commit_s": g("store.commit").incl_s,
        "store.replay_s": g("store.replay").incl_s,
        "parallel.split_s": t["split_s"],
        "parallel.partitions": t["partitions"],
        "parallel.steals": t["steals"],
        "parallel.imbalance": t["imbalance"],
        "parallel.worker_busy_s": t["worker_busy_s"],
        "parallel.efficiency": _ratio(t["worker_busy_s"], t["worker_capacity_s"]),
        "parallel.overhead_s": t["overhead_s"],
        "remote.frames_sent": g("remote.send").calls,
        "remote.send_s": g("remote.send").incl_s,
        "campaign.checkpoints": g("campaign.checkpoint").calls,
        "campaign.checkpoint_s": g("campaign.checkpoint").incl_s,
        "trace.spans": spans,
        "trace.untimed_s": g("cell").self_s,
    }
    return out


if __name__ == "__main__":
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    width = max(map(len, MOVES))
    for name, (moves, on) in MOVES.items():
        print(f"{name:<{width}}  {units[name]:<6} -> {moves} on {', '.join(on)}")
