"""Span arithmetic of the benchmark's tracer, on fake call trees."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Tracer  # noqa: E402


def fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_time_is_span_minus_direct_children():
    now, clock = fake_clock()
    tracer = Tracer(clock=clock)

    def leaf():
        now[0] += 1.0

    def mid():
        now[0] += 2.0
        traced_leaf()
        now[0] += 0.5

    def top():
        now[0] += 3.0
        traced_mid()
        traced_leaf()
        traced_mid()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_mid = tracer.wrap("mid", mid)
    tracer.wrap("top", top)()
    summary = tracer.summarize()

    assert (summary["leaf"].calls, summary["leaf"].incl_s, summary["leaf"].self_s) == (3, 3.0, 3.0)
    assert (summary["mid"].calls, summary["mid"].incl_s, summary["mid"].self_s) == (2, 7.0, 5.0)
    assert (summary["top"].calls, summary["top"].incl_s, summary["top"].self_s) == (1, 11.0, 3.0)
    # Self times partition the root span exactly.
    assert sum(s.self_s for s in summary.values()) == summary["top"].incl_s
    assert tracer.durations("mid") == [3.5, 3.5]


def test_reentrant_calls_fold_into_the_outer_span():
    now, clock = fake_clock()
    tracer = Tracer(clock=clock)

    def countdown(n):
        now[0] += 1.0
        if n:
            traced(n - 1)

    traced = tracer.wrap("rec", countdown)
    traced(3)
    summary = tracer.summarize()
    assert (summary["rec"].calls, summary["rec"].incl_s, summary["rec"].self_s) == (1, 4.0, 4.0)


def test_hits_count_useful_outcomes():
    tracer = Tracer()
    lookup = tracer.wrap("cache", lambda key: key if key % 2 else None, hit=lambda r: r is not None)
    for key in range(10):
        lookup(key)
    summary = tracer.summarize()["cache"]
    assert (summary.calls, summary.hits) == (10, 5)


def test_a_raising_call_still_closes_its_span():
    now, clock = fake_clock()
    tracer = Tracer(clock=clock)

    def boom():
        now[0] += 2.0
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: tracer.wrap("boom", boom)())
    with pytest.raises(ValueError):
        outer()
    summary = tracer.summarize()
    assert summary["boom"].incl_s == 2.0
    assert summary["outer"].self_s == 0.0
    assert tracer._stack == []


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    traced = tracer.wrap("f", lambda: 7)
    tracer.active = False
    assert traced() == 7
    assert tracer.span_count == 0
