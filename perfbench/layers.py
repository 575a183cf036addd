"""Per-layer tracing for the suite benchmark.

A traced pass wraps the public functions of each layer at the names the
layer above calls them by, and records one span per call: name, start,
end, parent span and the benchmark the call belongs to.  Spans stay in
memory until the pass ends.  Each benchmark's run is one root ``run``
span.  A layer's self time is its spans' duration minus the part covered
by their child spans, so the self times of all spans sum to the pass's
duration; the root spans' self time is the part no layer claims.

Instrumentation hooks are only *counted*, never timed, and only where a
subclass already overrides them at class level
(``ParallelExecutor.on_block_entry`` and the profiler's block and call
hooks).  Instance attributes and base ``Interpreter`` methods are never
touched: the interpreter reads those as overrides when it picks an
execution tier, so wrapping them would change the program measured.  A
hook that no longer exists counts zero.
"""

from __future__ import annotations

import functools
import gc
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.evaluation import figures, parallel_runner
from repro.evaluation import runner as eval_runner
from repro.evaluation.cache import EvaluationCache
from repro.evaluation.runner import EvaluationRunner, PipelineRun
from repro.obs import timeline
from repro.runtime import parallel, profiler
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.trace import CompactInvocationTrace

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER: Dict[str, str] = {
    "frontend.compile_s": "s",
    "ir.parse_s": "s",
    "core.selection_s": "s",
    "core.transform_s": "s",
    "core.loops_chosen": "count",
    "analysis.hit_ratio": "ratio",
    "runtime.profiler.s": "s",
    "runtime.profiler.minstr_per_s": "Minstr/s",
    "runtime.profiler.hook_calls": "count",
    "runtime.interpreter.s": "s",
    "runtime.interpreter.minstr_per_s": "Minstr/s",
    "runtime.parallel.execute_s": "s",
    "runtime.parallel.minstr_per_s": "Minstr/s",
    "runtime.parallel.hook_calls": "count",
    "runtime.parallel.invocations": "count",
    "runtime.parallel.restore_s": "s",
    "runtime.parallel.replay_s": "s",
    "runtime.trace.decode_s": "s",
    "runtime.codegen.functions": "count",
    "runtime.codegen.cache_hit_ratio": "ratio",
    "runtime.sched.replay_s": "s",
    "runtime.sched.schedules": "count",
    "runtime.sched.us_per_schedule": "us",
    "evaluation.cache.load_s": "s",
    "evaluation.cache.load_mb": "MB",
    "evaluation.cache.store_s": "s",
    "evaluation.cache.store_mb": "MB",
    "evaluation.cache.hit_ratio": "ratio",
    "evaluation.runner.self_s": "s",
    "obs.timeline.s": "s",
    "evaluation.figures.self_s": "s",
    "evaluation.parallel_runner.self_s": "s",
    "evaluation.parallel_runner.cpu_s": "s",
    "evaluation.parallel_runner.wait_s": "s",
    "python.gc_s": "s",
    "python.gc_full_collections": "count",
    "trace.unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}

#: Span name -> per-layer metric that reports the span's self time.
SELF_TIME_METRIC: Dict[str, str] = {
    "frontend.compile": "frontend.compile_s",
    "ir.parse": "ir.parse_s",
    "core.selection": "core.selection_s",
    "core.transform": "core.transform_s",
    "runtime.profiler": "runtime.profiler.s",
    "runtime.interpreter": "runtime.interpreter.s",
    "runtime.parallel.execute": "runtime.parallel.execute_s",
    "runtime.parallel.restore": "runtime.parallel.restore_s",
    "runtime.parallel.replay": "runtime.parallel.replay_s",
    "runtime.trace.decode": "runtime.trace.decode_s",
    "runtime.sched": "runtime.sched.replay_s",
    "evaluation.cache.load": "evaluation.cache.load_s",
    "evaluation.cache.store": "evaluation.cache.store_s",
    "evaluation.runner": "evaluation.runner.self_s",
    "obs.timeline": "obs.timeline.s",
    "evaluation.figures": "evaluation.figures.self_s",
    "evaluation.parallel_runner": "evaluation.parallel_runner.self_s",
    "run": "trace.unattributed_s",
}

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    bench: Optional[str]
    start: float
    end: float
    parent: int


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs every wrapper, leaving
    restores the original attributes.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Hook name -> one-element call counter.
        self.hook_calls: Dict[str, List[int]] = {}
        #: Work counts gathered from wrapped calls' results.
        self.instructions: Dict[str, int] = {}
        self.schedules = 0
        self.invocations = 0
        self.load_bytes = 0
        self.store_bytes = 0
        #: bench -> loops chosen by its helix run.
        self.chosen: Dict[str, int] = {}
        #: id(executor) -> bench, so timeline spans find their benchmark.
        self._bench_of: Dict[int, str] = {}
        #: Cyclic garbage collection inside the traced region: seconds,
        #: full (generation 2) collections, start of the running one.
        self.gc_seconds = 0.0
        self.gc_full = 0
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, bench: Optional[str] = None) -> int:
        parent = self._open[-1] if self._open else -1
        if bench is None and parent >= 0:
            bench = self.spans[parent].bench
        self.spans.append(Span(name, bench, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    # -- wrappers ------------------------------------------------------------

    def _replace(self, owner: Any, attr: str, make: Callable) -> None:
        """Swap ``owner.attr`` for ``make(original)``; a missing owner or
        attribute (a hook that no longer exists) is skipped."""
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            return
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        bench: Optional[Callable[..., Optional[str]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``; ``bench``
        names the call's benchmark from its arguments, ``after`` sees the
        arguments and the result once the span is closed."""

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = self.open(name, bench(*args) if bench else None)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.close(index)
                if after is not None:
                    after(result, *args)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of a class-level hook override."""
        cell = self.hook_calls.setdefault(name, [0])

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args: Any) -> Any:
                cell[0] += 1
                return func(*args)

            return wrapper

        self._replace(owner, attr, make)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_seconds += time.perf_counter() - self._gc_start
        self.gc_full += info["generation"] == 2

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)

        def add_instructions(layer: str, count: int) -> None:
            self.instructions[layer] = self.instructions.get(layer, 0) + count

        def on_helix_run(run: PipelineRun, _runner: Any, bench: str) -> None:
            self.chosen[bench] = len(run.chosen)
            self._bench_of[id(run.executor)] = bench

        def on_execute(result: Any, _executor: Any) -> None:
            add_instructions("parallel", result.result.instructions)
            self.invocations += len(result.traces)

        def on_schedule_many(_columns: Any, traces: Any, _loops: Any, machines: Any) -> None:
            self.schedules += len(traces) * len(machines)

        def on_schedule_compact(*_args: Any) -> None:
            self.schedules += 1

        def on_load(payload: Any, cache: EvaluationCache, kind: str, key: str) -> None:
            if payload is not None:
                self.load_bytes += os.path.getsize(cache._path(kind, key))

        def on_store(_result: Any, cache: EvaluationCache, kind: str, key: str, _payload: Any) -> None:
            self.store_bytes += os.path.getsize(cache._path(kind, key))

        self.span(EvaluationRunner, "helix_run", "evaluation.runner",
                  bench=lambda _runner, bench: bench, after=on_helix_run)
        self.span(eval_runner, "compile_benchmark", "frontend.compile")
        self.span(eval_runner, "parse_module", "ir.parse")
        self.span(eval_runner, "choose_loops", "core.selection")
        self.span(eval_runner, "parallelize_module", "core.transform")
        self.span(eval_runner, "profile_module", "runtime.profiler",
                  after=lambda data, *_: add_instructions("profiler", data.result.instructions))
        self.span(eval_runner, "run_module", "runtime.interpreter",
                  after=lambda result, *_: add_instructions("interpreter", result.instructions))
        self.span(ParallelExecutor, "execute", "runtime.parallel.execute", after=on_execute)
        self.span(ParallelExecutor, "restore_run", "runtime.parallel.restore")
        self.span(PipelineRun, "speedups_at", "runtime.parallel.replay",
                  bench=lambda run, *_: run.bench)
        self.span(CompactInvocationTrace, "from_dict", "runtime.trace.decode")
        self.span(parallel, "schedule_compact", "runtime.sched", after=on_schedule_compact)
        self.span(parallel, "schedule_many", "runtime.sched", after=on_schedule_many)
        self.span(EvaluationCache, "load", "evaluation.cache.load", after=on_load)
        self.span(EvaluationCache, "store", "evaluation.cache.store", after=on_store)
        self.span(timeline, "timeline_block", "obs.timeline",
                  bench=lambda executor, *_: self._bench_of.get(id(executor)))
        for name in ("figure9", "model_validation", "prefetching_study", "latency_sweep"):
            self.span(figures, name, "evaluation.figures")
        self.span(parallel_runner, "run_suite", "evaluation.parallel_runner")
        self.count(ParallelExecutor, "on_block_entry", "parallel")
        profiling = getattr(profiler, "_ProfilingInterpreter", None)
        self.count(profiling, "on_block_entry", "profiler")
        self.count(profiling, "call_function", "profiler")
        return self

    def __exit__(self, *_exc: Any) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own

    def by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals

    def bench_rows(self) -> Dict[str, Dict[str, float]]:
        """bench -> span name -> self seconds; suite-level spans (no
        benchmark) are filed under ``"(suite)"``."""
        rows: Dict[str, Dict[str, float]] = {}
        for span, seconds in zip(self.spans, self.self_times()):
            row = rows.setdefault(span.bench or "(suite)", {})
            row[span.name] = row.get(span.name, 0.0) + seconds
        return rows

    def hooks(self, name: str) -> int:
        return self.hook_calls.get(name, [0])[0]

    def metrics(
        self,
        counters: Dict[str, float],
        cpu_s: float,
        traced_s: float,
        overhead: float,
    ) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric of the traced pass.

        ``counters`` is the registry delta over the traced pass,
        ``cpu_s`` its process CPU time, ``traced_s`` its host seconds and
        ``overhead`` its time over the median untraced pass's, minus one.
        """
        layer = self.by_layer()
        values = {
            metric: layer.get(span, 0.0) for span, metric in SELF_TIME_METRIC.items()
        }

        def total(prefix: str) -> float:
            return sum(v for k, v in counters.items() if k.startswith(prefix))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def rate(kind: str, seconds: float) -> float:
            return ratio(self.instructions.get(kind, 0) / 1e6, seconds)

        analysis_hits = sum(
            v for k, v in counters.items() if k.startswith("analysis.") and k.endswith(".hits")
        )
        analysis_misses = sum(
            v for k, v in counters.items() if k.startswith("analysis.") and k.endswith(".misses")
        )
        codegen_hits = counters.get("interp.codegen.cache.hit", 0)
        codegen_misses = counters.get("interp.codegen.cache.miss", 0)
        cache_hits = total("evalcache.hits.")
        values.update({
            "core.loops_chosen": float(sum(self.chosen.values())),
            "analysis.hit_ratio": ratio(analysis_hits, analysis_hits + analysis_misses),
            "runtime.profiler.minstr_per_s": rate("profiler", values["runtime.profiler.s"]),
            "runtime.profiler.hook_calls": float(self.hooks("profiler")),
            "runtime.interpreter.minstr_per_s": rate(
                "interpreter", values["runtime.interpreter.s"]
            ),
            "runtime.parallel.minstr_per_s": rate(
                "parallel", values["runtime.parallel.execute_s"]
            ),
            "runtime.parallel.hook_calls": float(self.hooks("parallel")),
            "runtime.parallel.invocations": float(self.invocations),
            "runtime.codegen.functions": float(counters.get("interp.codegen.functions", 0)),
            "runtime.codegen.cache_hit_ratio": ratio(codegen_hits, codegen_hits + codegen_misses),
            "runtime.sched.schedules": float(self.schedules),
            "runtime.sched.us_per_schedule": ratio(
                1e6 * values["runtime.sched.replay_s"], self.schedules
            ),
            "evaluation.cache.load_mb": self.load_bytes / MB,
            "evaluation.cache.store_mb": self.store_bytes / MB,
            "evaluation.cache.hit_ratio": ratio(
                cache_hits, cache_hits + total("evalcache.misses.")
            ),
            "python.gc_s": self.gc_seconds,
            "python.gc_full_collections": float(self.gc_full),
            "evaluation.parallel_runner.cpu_s": cpu_s,
            "evaluation.parallel_runner.wait_s": traced_s - cpu_s,
            "trace_overhead_frac": overhead,
        })
        return {name: values[name] for name in PER_LAYER}

    def export(self) -> List[list]:
        """Spans as ``[name, bench, start, end, parent]`` rows, times in
        seconds from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, s.bench, s.start - origin, s.end - origin, s.parent]
            for s in self.spans
        ]
