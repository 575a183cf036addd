"""Differential tests: simulated-time timeline vs the trace scheduler.

The per-core segments exported by :mod:`repro.obs.timeline` re-derive
the scheduler's placement, so on the full sched-differential grid
(every source shape x every machine) their category totals must equal
the :class:`ScheduleResult` aggregates *exactly*, segments on one core
must never overlap, and the busy+idle accounting must close to
``parallel_cycles * cores``.
"""

import pytest

import repro.runtime.sched as sched_mod
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.timeline import (
    CATEGORIES,
    core_totals,
    invocation_segments,
    run_timeline,
    timeline_block,
    timeline_events,
)
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from tests.test_sched_differential import BASE, MACHINES, SOURCES, _prepare


def _assert_no_overlap(segments):
    per_core = {}
    for seg in segments:
        assert seg.end > seg.start, "zero/negative-length segment emitted"
        per_core.setdefault(seg.core, []).append(seg)
    for segs in per_core.values():
        segs.sort(key=lambda s: (s.start, s.end))
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.start, f"overlap: {a} vs {b}"


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_invocation_segments_match_schedule_breakdown(name):
    _, _, executor, _ = _prepare(name)
    info_by_id = {info.loop_id: info for info in executor.infos}
    for machine in MACHINES:
        schedules = executor.schedules(machine)
        for trace, sched in zip(executor.traces, schedules):
            segments = invocation_segments(
                trace, info_by_id[trace.loop_id], machine
            )
            if trace.iteration_count == 0:
                assert segments == []
                continue
            _assert_no_overlap(segments)
            totals = {category: 0 for category in CATEGORIES}
            for seg in segments:
                totals[seg.category] += seg.cycles
            breakdown = sched.overhead_breakdown()
            # Exact per-bucket equality with the scheduler's aggregates.
            assert totals["compute"] == breakdown["compute"]
            assert totals["stall"] == breakdown["wait_stall"]
            assert totals["signal"] == breakdown["signal"]
            assert totals["transfer"] == breakdown["transfer"]
            assert totals["sequential"] == 0

            last_end = max(seg.end for seg in segments)
            assert last_end == sched.parallel_cycles

            # busy + idle closes to parallel_cycles * cores with
            # nonnegative idle on every core -- equivalently, the
            # breakdown sums to total area minus idle/config/collect.
            cores = machine.cores
            busy = [0] * cores
            for seg in segments:
                busy[seg.core] += seg.cycles
            idle = [sched.parallel_cycles - b for b in busy]
            assert all(i >= 0 for i in idle)
            assert sum(busy) + sum(idle) == sched.parallel_cycles * cores
            assert sum(breakdown.values()) == (
                sched.parallel_cycles * cores
                - sum(idle)
                - totals["config"]
                - totals["collect"]
            )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_run_timeline_covers_the_whole_run(name):
    _, _, executor, _ = _prepare(name)
    segments = run_timeline(executor)
    _assert_no_overlap(segments)
    assert max(seg.end for seg in segments) == executor.cycles
    assert min(seg.start for seg in segments) == 0

    # Bucket totals over the whole run equal the per-invocation schedule
    # sums, on the executing machine and on a replayed one.
    for machine in (executor.machine, MACHINES[0], MACHINES[-1]):
        schedules = executor.schedules(machine)
        totals = {category: 0 for category in CATEGORIES}
        for seg in run_timeline(executor, machine):
            totals[seg.category] += seg.cycles
        assert totals["compute"] == sum(s.compute_cycles for s in schedules)
        assert totals["stall"] == sum(
            s.wait_stall_cycles for s in schedules
        )
        assert totals["signal"] == sum(s.signal_cycles for s in schedules)
        assert totals["transfer"] == sum(
            s.transfer_cycles for s in schedules
        )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_timeline_block_aggregates(name):
    _, _, executor, _ = _prepare(name)
    block = timeline_block(executor)
    assert block["cores"] == executor.machine.cores
    assert block["total_cycles"] == executor.cycles
    assert len(block["per_core"]) == executor.machine.cores
    for category in CATEGORIES:
        assert block["totals"][category] == sum(
            row[category] for row in block["per_core"]
        )
    # Everything ran on core 0's track or a worker core; the run did
    # something, so compute plus sequential is nonzero.
    assert block["totals"]["compute"] + block["totals"]["sequential"] > 0

    replay = timeline_block(executor, MACHINES[0])
    assert replay["cores"] == MACHINES[0].cores
    assert replay["total_cycles"] is None


def test_timeline_events_are_valid_chrome_events():
    _, _, executor, _ = _prepare("reduction")
    segments = run_timeline(executor)
    events = timeline_events(segments, executor.machine, pid=0)
    payload = chrome_trace([], extra_events=events)
    assert validate_chrome_trace(payload) == []
    tracks = {e["tid"] for e in events if e.get("cat") == "sim"}
    assert tracks <= set(range(executor.machine.cores))
    names = {e["name"] for e in events if e["ph"] == "M"}
    assert "process_name" in names and "thread_name" in names


def _segment_block(executor, machine):
    """The timeline block rebuilt from the placed segments (the oracle
    of the accounting that :func:`timeline_block` reads)."""
    per_core = core_totals(run_timeline(executor, machine), machine.cores)
    return {
        "cores": machine.cores,
        "total_cycles": executor.cycles
        if machine.fingerprint() == executor.machine.fingerprint()
        else None,
        "per_core": [
            {"core": i, **per_core[i]} for i in range(machine.cores)
        ],
        "totals": {
            category: sum(row[category] for row in per_core)
            for category in CATEGORIES
        },
    }


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_timeline_block_equals_segment_totals(name):
    _, _, executor, _ = _prepare(name)
    for machine in (executor.machine, *MACHINES):
        assert timeline_block(executor, machine) == _segment_block(
            executor, machine
        )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_cohort_accounting_equals_segment_totals(name, monkeypatch):
    """Every trace forced through the cohort engine's accounting."""
    monkeypatch.setattr(sched_mod, "_MIN_COHORT", 1)
    transformed, infos, _, _ = _prepare(name)
    executor = ParallelExecutor(transformed, infos, BASE)
    executor.execute()
    for machine in (executor.machine, *MACHINES):
        assert timeline_block(executor, machine) == _segment_block(
            executor, machine
        )


def test_accounting_refills_a_column_scheduled_without_it():
    transformed, infos, _, _ = _prepare("repeat_kernel")
    executor = ParallelExecutor(transformed, infos, BASE)
    executor.execute()
    probe = MACHINES[-1]
    executor.replay(probe)
    column = list(executor.schedules(probe))
    assert probe.fingerprint() not in executor._accounts
    assert timeline_block(executor, probe) == _segment_block(executor, probe)
    assert executor.schedules(probe) == column
    # A later sweep pass that refills nothing keeps the table.
    executor.replay_many([probe, MACHINES[0]])
    assert probe.fingerprint() in executor._accounts


def test_restored_run_accounts_on_first_timeline_request():
    """A run adopted from the cache has no accounting until a timeline
    asks; replays before that account nothing."""
    transformed, infos, executor, result = _prepare("repeat_kernel")
    restored = ParallelExecutor(transformed, infos, BASE)
    restored.restore_run(
        result.result,
        executor.traces,
        executor.loop_stats,
        load_count=executor.load_count,
    )
    restored.replay(MACHINES[0])
    assert restored.schedules() == executor.schedules()
    assert restored._accounts == {}
    assert timeline_block(restored) == timeline_block(executor)
    assert timeline_block(restored) == _segment_block(restored, BASE)


def test_timeline_block_total_cycles_by_fingerprint():
    """An equal machine object passed explicitly is the executing
    machine: the block carries the run's cycle count."""
    _, _, executor, _ = _prepare("reduction")
    equal = MachineConfig(cores=executor.machine.cores)
    assert equal is not executor.machine
    assert equal.fingerprint() == executor.machine.fingerprint()
    assert timeline_block(executor, equal)["total_cycles"] == executor.cycles
