"""Differential tests: timing after the run vs timing each invocation.

``ParallelExecutor`` records invocations in sequential time and times
them in one batched pass when the run ends, then shifts every stamp to
parallel time.  The reference executor below keeps the per-invocation
rule instead: it records through the legacy per-iteration objects,
packs each invocation as it ends, schedules it with
``schedule_compact`` and replaces its sequential span by the schedule
on the spot.  Both must leave identical traces (every column, and every
compiled program), cycles, loop statistics (including key order), load
counts and baseline schedule columns -- on all 13 benchmarks, and after
an instruction-limit fault in the middle of a run.
"""

import dataclasses

import pytest

from repro.bench import benchmark_names
from repro.core.communication import is_producer_mark, xfer_words
from repro.ir import Opcode
from repro.obs.timeline import timeline_block
from repro.runtime.interpreter import ExecutionLimitExceeded
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import LoopRunStats, ParallelExecutor
from repro.runtime.sched import schedule_compact
from repro.runtime.trace import (
    CompactInvocationTrace,
    InvocationTrace,
    IterationTrace,
)
from tests.test_backend_differential import _parallel_setup, _trace_bytes
from tests.test_timeline import _segment_block

MACHINE = MachineConfig(cores=6)


class EagerExecutor(ParallelExecutor):
    """The per-invocation rule: pack, schedule and re-time each
    invocation as it ends."""

    def run(self, entry="main", args=()):
        self._legacy_iter = None
        return super().run(entry, args)

    def exec_sync(self, frame, instr):
        if self._legacy_iter is None or frame is not self._inv_frame:
            return
        if instr.opcode is Opcode.WAIT:
            event = ("w", instr.dep_id, self.cycles)
        elif instr.opcode is Opcode.SIGNAL:
            event = ("s", instr.dep_id, self.cycles)
        else:
            event = ("n", -1, self.cycles)
        self._legacy_iter.events.append(event)

    def exec_xfer(self, frame, instr):
        if self._legacy_iter is None or frame is not self._inv_frame:
            return
        dep = instr.dep_id
        if is_producer_mark(instr):
            self._legacy_iter.events.append(("p", dep, self.cycles))
        else:
            self._legacy_iter.events.append(("x", dep, self.cycles))
            self._legacy_iter.words[dep] = xfer_words(instr)

    def _begin_invocation(self, info, frame):
        self._inv = InvocationTrace(
            loop_id=info.loop_id, start_cycles=self.cycles
        )
        self._inv_info = info
        self._inv_frame = frame
        self._legacy_iter = None
        self._loads_at_start = self.load_count

    def _begin_iteration(self):
        if self._legacy_iter is not None:
            self._legacy_iter.end_cycles = self.cycles
        self._legacy_iter = IterationTrace(start_cycles=self.cycles)
        self._inv.iterations.append(self._legacy_iter)

    def _end_invocation(self):
        trace, info = self._inv, self._inv_info
        if self._legacy_iter is not None:
            self._legacy_iter.end_cycles = self.cycles
        trace.end_cycles = self.cycles
        trace.loads = self.load_count - self._loads_at_start
        self._inv = self._inv_info = self._inv_frame = None
        self._legacy_iter = None
        compact = CompactInvocationTrace.from_trace(trace)
        schedule = schedule_compact(compact, info, self.machine)
        self.cycles = trace.start_cycles + schedule.parallel_cycles
        stats = self.loop_stats.setdefault(
            info.loop_id, LoopRunStats(loop_id=info.loop_id)
        )
        stats.invocations += 1
        stats.iterations += compact.iteration_count
        stats.sequential_cycles += schedule.sequential_cycles
        stats.parallel_cycles += schedule.parallel_cycles
        stats.signals += schedule.signals
        stats.waits += schedule.waits
        stats.wait_stall_cycles += schedule.wait_stall_cycles
        stats.transfer_words += schedule.transfer_words
        stats.loads += compact.loads
        stats.segment_cycles += schedule.segment_cycles
        if self.record_traces:
            self.traces.append(compact)
            self._schedules.setdefault(
                self.machine.fingerprint(), []
            ).append(schedule)

    def _finish_run(self):
        pass  # every invocation was timed as it ended


def _program_fields(trace):
    program = trace.program
    return [
        getattr(program, field.name)
        for field in dataclasses.fields(program)
    ]


def _assert_same_state(reference, deferred):
    assert deferred.cycles == reference.cycles
    assert deferred.instructions == reference.instructions
    assert deferred.output == reference.output
    assert deferred.load_count == reference.load_count
    assert [
        (key, stats.to_dict()) for key, stats in deferred.loop_stats.items()
    ] == [
        (key, stats.to_dict()) for key, stats in reference.loop_stats.items()
    ]
    assert len(deferred.traces) == len(reference.traces)
    for ref, new in zip(reference.traces, deferred.traces):
        assert _trace_bytes(new) == _trace_bytes(ref)
        assert new.to_dict() == ref.to_dict()
        # Programs compiled before the shift were shifted with it.
        assert _program_fields(new) == _program_fields(ref)
    fingerprint = reference.machine.fingerprint()
    assert (
        deferred._schedules[fingerprint] == reference._schedules[fingerprint]
    )


_runs = {}


def _run_pair(bench):
    pair = _runs.get(bench)
    if pair is None:
        transformed, infos = _parallel_setup(bench, MACHINE)
        reference = EagerExecutor(transformed, infos, MACHINE)
        reference.execute()
        deferred = ParallelExecutor(transformed, infos, MACHINE)
        deferred.execute()
        pair = _runs[bench] = (reference, deferred)
    return pair


@pytest.mark.parametrize("bench", benchmark_names())
def test_deferred_timing_matches_per_invocation_timing(bench):
    reference, deferred = _run_pair(bench)
    assert reference.traces, "benchmark recorded no invocation"
    _assert_same_state(reference, deferred)


def test_deferred_timing_matches_after_instruction_limit():
    """A fault mid-run leaves the same timed state: the completed
    invocations are scheduled and shifted, the partial one dropped."""
    transformed, infos = _parallel_setup("twolf", MACHINE)
    full = ParallelExecutor(transformed, infos, MACHINE)
    full.execute()
    limit = full.instructions // 2
    executors = []
    for cls in (EagerExecutor, ParallelExecutor):
        executor = cls(transformed, infos, MACHINE, max_instructions=limit)
        with pytest.raises(ExecutionLimitExceeded):
            executor.execute()
        executors.append(executor)
    reference, deferred = executors
    assert 0 < len(deferred.traces) < len(full.traces)
    _assert_same_state(reference, deferred)


@pytest.mark.parametrize("bench", benchmark_names())
def test_timeline_block_matches_segments_on_benchmarks(bench):
    _, deferred = _run_pair(bench)
    # Filled by the pass that ended the run: no further scheduling.
    assert MACHINE.fingerprint() in deferred._accounts
    assert timeline_block(deferred) == _segment_block(deferred, MACHINE)
