"""Outside-in span tracer: times calls into each layer's entry points.

Nothing under ``src/`` is instrumented.  :func:`install` replaces layer
entry points (module functions and class methods of the ``repro``
package) with thin wrappers that append one span per call to flat
in-memory arrays: name id, parent span, start and end.  Self time is a
span's duration minus the durations of its direct child spans, computed
once at the end by :meth:`Tracer.summarize`.

Cost rules: nothing called per clause or per expression node is wrapped
(``CDCLSolver.add_clause`` runs hundreds of thousands of times a pass);
counts of that granularity come from the program's own stats ledgers.  A call
that re-enters a span of the same name (``DsmStrategy.pick`` delegating
to its base strategy's ``pick``) is folded into the outer span.  Forked
children (campaign workers) inherit the wrappers with tracing switched
off, so spans stay in the coordinator process.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from dataclasses import dataclass


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    # Calls whose result satisfied the wrapper's ``hit`` predicate.
    hits: int = 0


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._hits: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    def reset(self) -> None:
        """Drop every recorded span (the wrappers keep these arrays)."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._stack.clear()
        self._hits[:] = [0] * len(self._hits)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._hits.append(0)
        return nid

    def wrap(self, name: str, fn, hit=None):
        """``fn`` recording one ``name`` span per (non-reentrant) call.

        ``hit(result)`` — when given — counts the calls whose result is a
        useful outcome (a cache hit, an accepted merge), for the ratios.
        """
        nid = self.name_id(name)
        clock = self.clock
        stack = self._stack
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        hits = self._hits

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (stack and names[stack[-1]] == nid):
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hit is not None and hit(result):
                hits[nid] += 1
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under one ``name`` span (the benchmark's cell roots)."""
        return self.wrap(name, fn)(*args, **kwargs)

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            end - start
            for n, start, end in zip(self.span_name, self.span_start, self.span_end)
            if n == nid
        ]

    def summarize(self) -> dict[str, SpanStats]:
        """Per-name calls, inclusive time and self time of closed spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        dur = [end - start for start, end in zip(starts, ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: SpanStats(hits=self._hits[nid]) for nid, name in enumerate(self.names)}
        for i, nid in enumerate(self.span_name):
            agg = out[self.names[nid]]
            agg.calls += 1
            agg.incl_s += dur[i]
            agg.self_s += dur[i] - child[i]
        return out


# -- layer entry points ------------------------------------------------------------


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        cur = todo.pop()
        out.append(cur)
        todo.extend(cur.__subclasses__())
    return out


def _wrap_method(tracer: Tracer, name: str, cls, attr: str, hit=None) -> None:
    """Wrap ``attr`` on ``cls`` and every subclass that overrides it."""
    for owner in _subclasses(cls):
        fn = owner.__dict__.get(attr)
        if fn is not None:
            setattr(owner, attr, tracer.wrap(name, fn, hit))


def _wrap_function(tracer: Tracer, name: str, module, attr: str, hit=None) -> None:
    """Wrap a module function under every name a ``repro`` module binds it."""
    original = getattr(module, attr)
    traced = tracer.wrap(name, original, hit)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _not_none(result) -> bool:
    return result is not None


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports.

    Wrap only spans that a metric reads: a span takes its time out of
    its parent's self time, so an unread span would hide that time from
    ``trace.untimed_s`` (the ``cell`` span's self time).
    """
    import repro.campaign
    import repro.engine.merge as merge
    import repro.engine.testgen as testgen
    import repro.expr.canon as canon
    import repro.expr.serialize as serialize
    import repro.programs.registry as registry
    import repro.qce.qce as qce
    import repro.remote.client  # noqa: F401  (binds send_frame too)
    import repro.remote.transport as transport
    import repro.search.dsm  # noqa: F401  (registers DsmStrategy)
    import repro.store.corpus as corpus
    from repro.engine.executor import Engine
    from repro.engine.similarity import SimilarityRelation
    from repro.parallel import Coordinator
    from repro.search.strategies import Strategy
    from repro.solver.bitblast import BitBlaster
    from repro.solver.cache import QueryCache
    from repro.solver.portfolio import SolverChain
    import repro.solver.presolve as presolve
    from repro.solver.sat import CDCLSolver, LegacyCDCLSolver
    from repro.store.tier import PersistentTier

    presolved = (presolve.SAT, presolve.UNSAT)

    _wrap_function(tracer, "lang.compile", registry, "compile_program")
    _wrap_function(tracer, "qce.analyze", qce, "analyze_module")

    _wrap_method(tracer, "engine.init", Engine, "__init__")
    _wrap_method(tracer, "engine.explore", Engine, "explore")
    _wrap_method(tracer, "engine.step", Engine, "step")
    _wrap_function(tracer, "engine.testgen", testgen, "make_test_case")
    _wrap_function(tracer, "engine.merge", merge, "merge_states", hit=_not_none)
    _wrap_method(tracer, "engine.similarity", SimilarityRelation, "mergeable", hit=bool)
    _wrap_method(tracer, "engine.similarity.hash", SimilarityRelation, "state_hash")

    _wrap_method(tracer, "search.pick", Strategy, "pick")
    _wrap_method(tracer, "search.on_add", Strategy, "on_add")

    _wrap_method(tracer, "solver.check_branch", SolverChain, "check_branch")
    _wrap_method(tracer, "solver.check", SolverChain, "check")
    _wrap_method(tracer, "solver.cache", QueryCache, "lookup", hit=_not_none)
    _wrap_method(
        tracer, "solver.presolve", presolve.PresolveManager, "check_group",
        hit=lambda verdict: verdict[0] in presolved,
    )
    _wrap_function(tracer, "solver.rewrite", presolve, "simplify_group")
    _wrap_method(tracer, "solver.bitblast", BitBlaster, "assert_expr")
    _wrap_method(tracer, "solver.bitblast", BitBlaster, "guard_literal")
    _wrap_method(tracer, "solver.sat", CDCLSolver, "solve")
    _wrap_method(tracer, "solver.sat", LegacyCDCLSolver, "solve")

    _wrap_function(tracer, "expr.canon", canon, "canonicalize")
    _wrap_function(tracer, "expr.named_key", canon, "named_key")
    _wrap_function(tracer, "expr.serialize.encode", serialize, "encode_exprs")
    _wrap_function(tracer, "expr.serialize.decode", serialize, "decode_exprs")

    _wrap_method(tracer, "store.lookup", PersistentTier, "lookup", hit=_not_none)
    _wrap_function(tracer, "store.seed", corpus, "seed_query_cache")
    _wrap_method(tracer, "store.commit", Engine, "commit_to_store")
    _wrap_method(tracer, "store.commit", Coordinator, "_commit_store")
    _wrap_function(tracer, "store.replay", corpus, "replay_coverage")

    _wrap_function(tracer, "remote.send", transport, "send_frame")
    _wrap_method(tracer, "campaign.checkpoint", repro.campaign.CampaignCheckpointer, "save")
