"""Simulated-time per-core schedule timelines.

Where :mod:`repro.obs.tracer` records *wall-clock* spans of the pipeline
itself, this module reports the *simulated* schedule of a parallel run:
where every cycle of every core of the modelled CMP went -- compute,
wait stalls, iteration-start signal latency, data-transfer slots,
thread configuration, wind-down collection and sequential execution
outside parallelized loops.  This makes the paper's per-segment
overhead attribution (HELIX Table 2 / Figures 8-9) directly visible per
machine configuration.  It has two forms:

* :func:`timeline_block`, the report's JSON ``timeline`` block, is read
  from the executor's per-core accounting
  (:meth:`~repro.runtime.parallel.ParallelExecutor.core_account`),
  which the batched scheduler fills in the same pass that schedules the
  machine's column.  Only the ``sequential`` bucket -- main-thread time
  between invocations -- is added here, in closed form.
* :func:`run_timeline` places every segment in absolute simulated time
  (:func:`~repro.runtime.sched.invocation_segments` per invocation) for
  the Perfetto export (:func:`timeline_events`, ``--sim-timeline``).
  Its per-core totals equal the block's exactly;
  ``tests/test_timeline.py`` asserts this, the match with the
  :class:`~repro.runtime.sched.ScheduleResult` aggregates on the full
  sched-differential machine grid, per-core non-overlap and the
  ``parallel_cycles * cores`` accounting.

Timestamps are simulated cycles exported as trace microseconds, so
Perfetto's time axis reads directly in kilocycles/megacycles.

This module depends on the runtime layer and is deliberately *not*
re-exported from :mod:`repro.obs` (which the runtime itself imports);
import it explicitly as ``repro.obs.timeline``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.sched import (
    CATEGORIES,
    Segment,
    account_segments,
    core_table,
    invocation_segments,
)

__all__ = [
    "CATEGORIES",
    "Segment",
    "core_totals",
    "invocation_segments",
    "run_timeline",
    "timeline_block",
    "timeline_events",
]


def run_timeline(
    executor: ParallelExecutor,
    machine: Optional[MachineConfig] = None,
) -> List[Segment]:
    """The whole run's per-core segments, in absolute simulated cycles.

    ``machine`` replays the recorded traces under a different
    configuration (like :meth:`ParallelExecutor.replay`); gaps between
    invocations are the main thread's sequential execution, whose length
    is machine-independent, so they are carried over from the recorded
    (executed-machine) timeline.
    """
    if machine is None:
        machine = executor.machine
    exec_col = executor.schedules()
    replay_col = executor.schedules(machine)
    info_by_id = {info.loop_id: info for info in executor.infos}

    segments: List[Segment] = []
    cursor = 0
    exec_end = 0  # end of the previous invocation in *executed* time
    for trace, exec_sched, replay_sched in zip(
        executor.traces, exec_col, replay_col
    ):
        gap = trace.start_cycles - exec_end
        if gap:
            segments.append(Segment(0, "sequential", cursor, cursor + gap))
        base = cursor + gap
        if trace.iteration_count == 0:
            # The loop body never ran; the invocation is its sequential
            # span on the main core.
            if replay_sched.parallel_cycles:
                segments.append(
                    Segment(
                        0,
                        "sequential",
                        base,
                        base + replay_sched.parallel_cycles,
                    )
                )
        else:
            for seg in invocation_segments(
                trace, info_by_id[trace.loop_id], machine
            ):
                segments.append(
                    Segment(
                        seg.core,
                        seg.category,
                        base + seg.start,
                        base + seg.end,
                    )
                )
        cursor = base + replay_sched.parallel_cycles
        exec_end = trace.start_cycles + exec_sched.parallel_cycles

    tail = executor.cycles - exec_end
    if tail:
        segments.append(Segment(0, "sequential", cursor, cursor + tail))
    return segments


def core_totals(
    segments: List[Segment], cores: int
) -> List[Dict[str, int]]:
    """Per-core cycle totals by category (every category always keyed)."""
    totals = core_table(cores)
    account_segments(totals, segments)
    return totals


def timeline_block(
    executor: ParallelExecutor,
    machine: Optional[MachineConfig] = None,
) -> Dict[str, object]:
    """The JSON ``timeline`` block: per-core and total cycle buckets.

    Equal to the totals of :func:`core_totals` over :func:`run_timeline`,
    without placing a single segment: the invocations' buckets come from
    the executor's per-core accounting, and the main thread's sequential
    time is the run's cycles minus the executed invocations, plus the
    zero-iteration invocations (which run sequentially under any
    machine).  ``total_cycles`` is the run's cycle count when
    ``machine`` is the executing machine (compared by fingerprint).
    """
    if machine is None:
        machine = executor.machine
    executing = machine.fingerprint() == executor.machine.fingerprint()
    per_core = [dict(row) for row in executor.core_account(machine)]
    exec_col = executor.schedules()
    replay_col = executor.schedules(machine)
    sequential = executor.cycles - sum(s.parallel_cycles for s in exec_col)
    sequential += sum(
        replayed.parallel_cycles
        for trace, replayed in zip(executor.traces, replay_col)
        if trace.iteration_count == 0
    )
    per_core[0]["sequential"] += sequential
    return {
        "cores": machine.cores,
        "total_cycles": executor.cycles if executing else None,
        "per_core": [
            {"core": i, **per_core[i]} for i in range(machine.cores)
        ],
        "totals": {
            category: sum(c[category] for c in per_core)
            for category in CATEGORIES
        },
    }


def timeline_events(
    segments: List[Segment],
    machine: MachineConfig,
    pid: int = 0,
) -> List[dict]:
    """Chrome trace events for the simulated timeline.

    One thread track per core under a dedicated process; cycles map 1:1
    to trace microseconds.  Feed the result to
    :func:`repro.obs.export.chrome_trace` as ``extra_events`` (or export
    it alone).
    """
    label = (
        f"simulated CMP: {machine.cores} cores, "
        f"{machine.effective_prefetch_mode.name.lower()} prefetch"
    )
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for core in range(machine.cores):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": core,
                "args": {"name": f"core {core}"},
            }
        )
    for seg in segments:
        events.append(
            {
                "name": seg.category,
                "cat": "sim",
                "ph": "X",
                "ts": seg.start,
                "dur": seg.end - seg.start,
                "pid": pid,
                "tid": seg.core,
            }
        )
    return events
