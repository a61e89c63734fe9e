"""One-cell smoke runs of every workload, and the command line's refusal
to run outside a checkout."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(HERE)
DOC = layers.load_benchmark()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_one_cell_run(workload, trace, tmp_path):
    first = wl.cell_order(wl.WORKLOADS[workload], 0)[0].key
    runner = run.Runner(ROOT, wl.WORKLOADS[workload], str(tmp_path), [first])
    metrics = runner.trace() if trace else runner.measure(1.0)
    assert runner.failed == 0 and runner.attempted >= 1
    expected = DOC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(metrics)
    for metric in expected:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in metrics.values())
    assert set(os.listdir(tmp_path)) <= {"warm.db", "warm.db-shm", "warm.db-wal"}


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "plain-corpus",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
