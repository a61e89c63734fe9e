"""BENCHMARK.json follows the metric-name grammar, every per-layer metric
says what it should move, and the traced pass's values cover every
per-layer metric."""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DOC = layers.load_benchmark()


class ReadRecorder(dict):
    """A span summary that records which span names are read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_names_follow_the_grammar():
    metrics = DOC["end_to_end"] + DOC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in DOC["workloads"]] == list(wl.WORKLOADS)


def test_every_layer_names_what_it_moves_and_where():
    e2e = {m["name"] for m in DOC["end_to_end"]}
    assert list(layers.MOVES) == [m["name"] for m in DOC["per_layer"]]
    for name, (moves, on) in layers.MOVES.items():
        assert moves in e2e, name
        assert on and set(on) <= set(wl.WORKLOADS), name


def test_layer_values_cover_every_per_layer_metric():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def send():
        now[0] += 1.0

    traced_send = tracer.wrap("remote.send", send)

    def coordinator_run():
        # A cell's root call that is not itself a span: its own time
        # (select loop, waiting on workers) is untimed.
        now[0] += 2.0
        traced_send()
        now[0] += 0.5

    tracer.call("cell", coordinator_run)
    values = layers.layer_values(tracer.summarize(), [0.001, 0.003], layers.Totals(), 3.5, 2)
    expected = {m["name"] for m in DOC["per_layer"]} - {"trace.overhead_frac"}
    assert set(values) == expected
    assert values["trace.untimed_s"] == 2.5
    assert values["remote.send_s"] == 1.0
    assert values["solver.check_branch.p99_ms"] == 3.0


def test_every_installed_span_is_read_by_a_metric():
    """An unread span would move its time out of ``trace.untimed_s``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(ROOT, "src"), HERE)))
    names = json.loads(subprocess.run(
        [sys.executable, "-c",
         "import json, spans; t = spans.Tracer(); spans.install(t); print(json.dumps(t.names))"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout)
    summary = ReadRecorder()
    layers.layer_values(summary, [], layers.Totals(), 1.0, 0)
    assert set(names) <= summary.read


def test_cells_cover_the_golden_corpus():
    expected = wl.load_expected()
    assert len(wl.CORPUS) == 28
    assert set(expected["plain_coverage"]) == set(expected["golden_paths"])
    assert set(expected["store_cells"]) == {c.key for c in wl.STORE_CELLS}
    order = [c.key for c in wl.cell_order(wl.WORKLOADS["plain-corpus"], 5)]
    assert sorted(order) == sorted(c.key for c in wl.CORPUS)
    assert order == [c.key for c in wl.cell_order(wl.WORKLOADS["plain-corpus"], 5)]
