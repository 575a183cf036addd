"""The parallel executor: timing of HELIX loops on the simulated CMP.

Functionally, a HELIX-transformed module is interpreted exactly like any
other module -- the inserted ``wait``/``signal``/``next_iter``/``xfer``
pseudo-ops are semantically inert, and HELIX is non-speculative, so the
synchronized parallel execution computes precisely what the sequential
trace computes.  What changes is *time*.

The executor reconstructs the parallel schedule per loop invocation from
the sequential trace.  This is exact (not an approximation) for HELIX's
synchronization structure: iterations start in order, and every
``wait``/``signal`` pair crosses from the thread of iteration *i* to the
thread of iteration *i+1* on a statically fixed ring, so there is no
timing feedback into values and per-iteration replay in iteration order
with per-core clocks reproduces what an event-driven engine would
compute.

Per iteration the replay carries:

* a per-core clock (round-robin assignment, iteration *i* on core
  ``i mod N``);
* a signal timetable from the previous iteration: a ``wait(d)`` at thread
  time ``t`` completes at ``max(t, ts(d)) + L`` in the pull system, where
  ``ts`` is when the predecessor signalled and ``L`` the inter-core
  latency (110 cycles on the modelled i7-980X);
* the helper thread of the core (Step 8): a prefetch agent that executes
  the generated wait sequence one signal at a time; a fully prefetched
  signal costs an L1 hit (4 cycles).  ``MATCHED`` and ``IDEAL`` prefetch
  modes implement the Section 3.3 comparison points;
* data forwarding: when the previous iteration actually produced a value
  a dependence carries (its ``xfer`` producer mark executed), the consumer
  pays the word-transfer cost ``M``.

Timing is computed after the run, not while it executes.  Simulated
time never feeds back into values, so the executor records each
invocation's events straight into the columns of a
:class:`~repro.runtime.trace.CompactInvocationTrace`, stamped with the
interpreter's *sequential* clock, and moves on.  When :meth:`run` ends
(normally or by a fault) one batched pass
(:func:`~repro.runtime.sched.schedule_many`, which vectorizes
shape-identical trace cohorts) schedules every completed invocation
under the executing machine.  A prefix sum of each invocation's
``parallel_cycles - sequential_cycles`` then moves every trace's
absolute stamps, the cycle count and the loop statistics to parallel
time, exactly as if each invocation's sequential span had been replaced
by its schedule the moment it ended.  Every scheduler reads stamps only
as differences within one trace, so shifting a trace leaves its
schedule unchanged.

Traces can be *replayed* against other machine configurations (core
count, prefetch mode, latencies) without re-running the program -- the
functional trace does not depend on the machine.  Multi-machine sweeps
should go through :meth:`ParallelExecutor.replay_many`, which fills all
missing schedules in one pass over the traces and memoizes per-machine
schedule columns (keyed by
:meth:`~repro.runtime.machine.MachineConfig.fingerprint`) so the
baseline machine is never rescheduled per swept point.  The pass that
ends :meth:`run` also fills the executing machine's per-core cycle
accounting (:meth:`ParallelExecutor.core_account`), the source of the
report's simulated-time ``timeline`` block; replays account nothing.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.loopnest import LoopId
from repro.core.communication import is_producer_mark, xfer_words
from repro.core.loopinfo import ParallelizedLoop
from repro.ir import BasicBlock, Instruction, Module, Opcode
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import get_tracer
from repro.runtime.interpreter import (
    ExecutionResult,
    Frame,
    Interpreter,
    RuntimeFault,
)
from repro.runtime.machine import MachineConfig
from repro.runtime.sched import (
    CoreTable,
    ScheduleResult,
    core_table,
    schedule_compact,
    schedule_invocation_reference,
    schedule_many,
)
from repro.runtime.trace import (
    CTRL_DEP,
    KIND_NEXT,
    KIND_PRODUCE,
    KIND_SIGNAL,
    KIND_WAIT,
    KIND_XFER,
    CompactInvocationTrace,
    InvocationTrace,
    IterationTrace,
    as_compact,
)

__all__ = [
    "CTRL_DEP",
    "CompactInvocationTrace",
    "InvocationTrace",
    "IterationTrace",
    "LoopRunStats",
    "ParallelExecutor",
    "ParallelRunResult",
    "ScheduleResult",
    "run_parallel",
    "schedule_invocation",
    "schedule_invocation_reference",
]

#: Minimum traces per shard before sharded replay pays for process
#: startup and trace pickling; below this the batched engine runs
#: inline regardless of ``jobs``.
_SHARD_MIN_TRACES = 128


@dataclass(frozen=True)
class _LoopTiming:
    """Pickle-light stand-in for :class:`ParallelizedLoop`.

    The schedulers read exactly two fields of the loop record
    (``counted`` and ``helper_order``); sharded replay ships this shim
    to worker processes instead of the full record, which drags block
    sets and dependence lists along.
    """

    loop_id: LoopId
    counted: bool
    helper_order: Tuple[int, ...] = ()


def _schedule_shard(
    traces: List[CompactInvocationTrace],
    loops: List[_LoopTiming],
    machines: List[MachineConfig],
) -> Tuple[List[List[ScheduleResult]], List[dict], dict]:
    """Worker entry point of sharded replay: schedule one trace chunk
    under every machine through the batched engine.

    Returns the per-trace schedule columns plus serialized spans and the
    registry-counter delta, shipped home exactly like the suite's bench
    workers (the merged Perfetto trace shows one track per worker pid).
    """
    from repro.obs.metrics import metrics_delta
    from repro.obs.tracer import tracing

    before = REGISTRY.snapshot()
    with tracing() as tracer:
        with tracer.span(
            "sched.shard",
            cat="sched",
            traces=len(traces),
            machines=len(machines),
        ):
            columns = schedule_many(traces, loops, machines)
    spans = [event.as_dict() for event in tracer.finished()]
    return columns, spans, metrics_delta(before, REGISTRY.snapshot())

#: Either trace representation; the executor stores the compact form.
AnyTrace = Union[CompactInvocationTrace, InvocationTrace]


def schedule_invocation(
    trace: AnyTrace,
    loop: ParallelizedLoop,
    machine: MachineConfig,
) -> ScheduleResult:
    """Reconstruct the parallel schedule of one invocation.

    Accepts either trace representation; legacy traces are packed on the
    fly (callers scheduling the same trace repeatedly should pack once
    via :func:`repro.runtime.trace.as_compact` to reuse the compiled
    program).
    """
    return schedule_compact(as_compact(trace), loop, machine)


@dataclass
class LoopRunStats:
    """Aggregated runtime statistics of one parallelized loop."""

    loop_id: LoopId
    invocations: int = 0
    iterations: int = 0
    sequential_cycles: int = 0
    parallel_cycles: int = 0
    signals: int = 0
    waits: int = 0
    wait_stall_cycles: int = 0
    transfer_words: int = 0
    loads: int = 0
    segment_cycles: int = 0

    @property
    def loop_speedup(self) -> float:
        if self.parallel_cycles <= 0:
            return 1.0
        return self.sequential_cycles / self.parallel_cycles

    @property
    def transfer_fraction(self) -> float:
        """Words moved between cores / words consumed by iterations."""
        if self.loads <= 0:
            return 0.0
        return self.transfer_words / self.loads

    def to_dict(self) -> dict:
        return {
            "loop_id": list(self.loop_id),
            "invocations": self.invocations,
            "iterations": self.iterations,
            "sequential_cycles": self.sequential_cycles,
            "parallel_cycles": self.parallel_cycles,
            "signals": self.signals,
            "waits": self.waits,
            "wait_stall_cycles": self.wait_stall_cycles,
            "transfer_words": self.transfer_words,
            "loads": self.loads,
            "segment_cycles": self.segment_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopRunStats":
        data = dict(data)
        data["loop_id"] = tuple(data["loop_id"])
        return cls(**data)


@dataclass
class ParallelRunResult:
    """Outcome of executing a transformed module on the simulated CMP."""

    result: ExecutionResult
    machine: MachineConfig
    loop_stats: Dict[LoopId, LoopRunStats] = field(default_factory=dict)
    traces: List[AnyTrace] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def output(self) -> List[str]:
        return self.result.output


class ParallelExecutor(Interpreter):
    """Interprets a HELIX-transformed module, reconstructing parallel time.

    ``infos`` are the :class:`ParallelizedLoop` records produced by
    :func:`repro.core.parallelize_module` for this module.
    """

    def __init__(
        self,
        module: Module,
        infos: Sequence[ParallelizedLoop],
        machine: Optional[MachineConfig] = None,
        record_traces: bool = True,
        max_instructions: Optional[int] = 500_000_000,
        backend: str = "auto",
        schedule_memo: Optional[Dict[str, List[ScheduleResult]]] = None,
        block_profile: Optional[Dict[Tuple[str, str], int]] = None,
        codegen_cache=None,
    ) -> None:
        super().__init__(
            module, machine, max_instructions=max_instructions,
            backend=backend, block_profile=block_profile,
            codegen_cache=codegen_cache,
        )
        # Memory reads are priced by the data-forwarding model; every
        # backend counts them when this is set.  Under "auto" the
        # *hooked superblock* tier is selected: fused chains observe the
        # probe sites below and sync/xfer ops at the decoded hooked
        # variant's exact points, and compile load counting to static
        # per-segment increments.
        self.count_loads = True
        self.infos = list(infos)
        self.record_traces = record_traces
        self._by_preheader: Dict[Tuple[str, str], ParallelizedLoop] = {}
        sites: Dict[str, Set[str]] = {}
        for info in self.infos:
            self._by_preheader[(info.func_name, info.par_preheader)] = info
            sites.setdefault(info.func_name, set()).update(
                (info.par_preheader, info.par_header, *info.exit_stubs)
            )
        # The only blocks on_block_entry acts on.
        self.probe_sites = {
            name: frozenset(blocks) for name, blocks in sites.items()
        }
        #: The invocation being recorded: its columns are the record
        #: buffers (``words`` is a list until the invocation ends).
        self._inv: Optional[CompactInvocationTrace] = None
        self._inv_info: Optional[ParallelizedLoop] = None
        self._inv_frame: Optional[Frame] = None
        #: Word counts of the current iteration's ``xfer`` events; None
        #: before the invocation's first iteration starts.
        self._iter_words: Optional[Dict[int, int]] = None
        self._loads_at_start = 0
        self.loop_stats: Dict[LoopId, LoopRunStats] = {}
        self.traces: List[CompactInvocationTrace] = []
        #: Memoized per-machine schedule columns, aligned with
        #: :attr:`traces`, keyed by machine fingerprint.  The executing
        #: machine's column is filled by the batched pass that ends
        #: :meth:`run`, so replays never reschedule the baseline.  An
        #: :class:`~repro.artifacts.ArtifactStore` may inject a tracked
        #: namespace here (``schedule_memo``) so column occupancy shows
        #: up in the store's unified accounting; standalone executors
        #: default to a private dict with identical semantics.
        self._schedules: Dict[str, List[ScheduleResult]] = (
            schedule_memo if schedule_memo is not None else {}
        )
        #: Per-core accounting tables (:func:`~repro.runtime.sched.core_table`)
        #: by machine fingerprint.  A table exists only next to a
        #: complete column that the same batched pass filled, and
        #: covers exactly that column's traces; only the pass that ends
        #: :meth:`run` and :meth:`core_account` requests fill one.
        self._accounts: Dict[str, CoreTable] = {}

    # -- interpreter hooks -------------------------------------------------

    def on_block_entry(
        self, frame: Frame, prev: Optional[BasicBlock], block: BasicBlock
    ) -> None:
        if self._inv is None:
            info = self._by_preheader.get((frame.func.name, block.name))
            if info is not None:
                self._begin_invocation(info, frame)
            return
        if frame is not self._inv_frame:
            return
        info = self._inv_info
        if block.name == info.par_header:
            self._begin_iteration()
        elif block.name in info.exit_stubs:
            self._end_invocation()

    def exec_sync(self, frame: Frame, instr: Instruction) -> None:
        if self._iter_words is None or frame is not self._inv_frame:
            return
        inv = self._inv
        if instr.opcode is Opcode.WAIT:
            inv.ev_kind.append(KIND_WAIT)
            inv.ev_dep.append(instr.dep_id)
        elif instr.opcode is Opcode.SIGNAL:
            inv.ev_kind.append(KIND_SIGNAL)
            inv.ev_dep.append(instr.dep_id)
        else:  # NEXT_ITER
            inv.ev_kind.append(KIND_NEXT)
            inv.ev_dep.append(CTRL_DEP)
        inv.ev_at.append(self.cycles)

    def exec_xfer(self, frame: Frame, instr: Instruction) -> None:
        if self._iter_words is None or frame is not self._inv_frame:
            return
        inv = self._inv
        dep = instr.dep_id
        if is_producer_mark(instr):
            inv.ev_kind.append(KIND_PRODUCE)
        else:
            inv.ev_kind.append(KIND_XFER)
            self._iter_words[dep] = xfer_words(instr)
        inv.ev_dep.append(dep)
        inv.ev_at.append(self.cycles)

    # -- invocation lifecycle -------------------------------------------------

    def _begin_invocation(self, info: ParallelizedLoop, frame: Frame) -> None:
        self._inv = CompactInvocationTrace(
            loop_id=info.loop_id,
            start_cycles=self.cycles,
            end_cycles=0,
            loads=0,
            it_start=array("q"),
            it_end=array("q"),
            ev_off=array("q", [0]),
            ev_kind=array("q"),
            ev_dep=array("q"),
            ev_at=array("q"),
            words=[],  # type: ignore[arg-type]  # tuple once it ends
        )
        self._inv_info = info
        self._inv_frame = frame
        self._iter_words = None
        self._loads_at_start = self.load_count

    def _close_iteration(self) -> None:
        inv = self._inv
        inv.it_end.append(self.cycles)
        inv.ev_off.append(len(inv.ev_kind))

    def _begin_iteration(self) -> None:
        if self._iter_words is not None:
            self._close_iteration()
        self._inv.it_start.append(self.cycles)
        self._iter_words = {}
        self._inv.words.append(self._iter_words)

    def _end_invocation(self) -> None:
        trace = self._inv
        if self._iter_words is not None:
            self._close_iteration()
        trace.end_cycles = self.cycles
        trace.loads = self.load_count - self._loads_at_start
        trace.words = tuple(trace.words)
        self._inv = None
        self._inv_info = None
        self._inv_frame = None
        self._iter_words = None
        # Stamped in sequential time; _finish_run schedules it.
        self.traces.append(trace)

    def _finish_run(self) -> None:
        """Time the completed invocations: one batched pass schedules
        them under the executing machine (filling its column and its
        per-core accounting), then a prefix sum of each invocation's
        ``parallel_cycles - sequential_cycles`` moves every trace's
        stamps, the cycle count and the loop statistics from sequential
        to parallel time, in trace order."""
        self._ensure_schedules(
            [self.machine], account=[self.machine] if self.record_traces else ()
        )
        column = self._schedules[self.machine.fingerprint()]
        shift = 0
        for trace, schedule in zip(self.traces, column):
            if shift:
                trace.shift(shift)
            shift += schedule.parallel_cycles - schedule.sequential_cycles
        self.cycles += shift
        self.loop_stats = _loop_stats(self.traces, column)
        if not self.record_traces:
            self.traces = []
            self._schedules.clear()
            self._accounts.clear()

    # -- public API -------------------------------------------------------------

    def run(self, entry: str = "main", args: Sequence = ()) -> ExecutionResult:
        self._inv = None
        self._inv_info = None
        self._inv_frame = None
        self._iter_words = None
        self._loads_at_start = 0
        self.load_count = 0
        self.loop_stats = {}
        self.traces = []
        self._schedules.clear()
        self._accounts.clear()
        try:
            result = super().run(entry, args)
        finally:
            # Also on a fault: the completed invocations are timed, so
            # the executor is left exactly as per-invocation timing
            # would have left it.
            self._finish_run()
        result.cycles = self.cycles
        return result

    def execute(self) -> ParallelRunResult:
        """Run the program and package the results."""
        with get_tracer().span("exec.parallel", cat="exec") as sp:
            result = self.run()
            sp.set(invocations=len(self.traces), cycles=result.cycles)
        return ParallelRunResult(
            result=result,
            machine=self.machine,
            loop_stats=dict(self.loop_stats),
            traces=list(self.traces),
        )

    def restore_run(
        self,
        result: ExecutionResult,
        traces: Sequence[AnyTrace],
        loop_stats: Dict[LoopId, LoopRunStats],
        load_count: Optional[int] = None,
    ) -> ParallelRunResult:
        """Adopt a previously recorded run (e.g. loaded from the
        evaluation disk cache) as if :meth:`execute` had just produced
        it, so :meth:`replay` works without re-interpreting the program.

        ``load_count`` is the executed run's total
        :attr:`~repro.runtime.interpreter.Interpreter.load_count`; when
        absent (legacy cache payloads) it is approximated by the loads
        recorded inside invocations, which misses loads executed outside
        parallelized loops.

        The caller is responsible for passing traces recorded from an
        identical module under an identical cost model.
        """
        self.output = list(result.output)
        self.cycles = result.cycles
        self.instructions = result.instructions
        self.traces = [as_compact(trace) for trace in traces]
        self.loop_stats = dict(loop_stats)
        self._schedules.clear()
        self._accounts.clear()
        if load_count is None:
            load_count = sum(trace.loads for trace in self.traces)
        self.load_count = load_count
        return ParallelRunResult(
            result=result,
            machine=self.machine,
            loop_stats=dict(self.loop_stats),
            traces=list(self.traces),
        )

    def _ensure_schedules(
        self,
        machines: Sequence[MachineConfig],
        batched: bool = True,
        jobs: Optional[int] = None,
        account: Sequence[MachineConfig] = (),
    ) -> None:
        """Fill the schedule memo for every machine missing from it.

        A machine whose cached column merely lags behind
        :attr:`traces` is *extended* from where it stopped instead of
        recomputed from scratch.  With ``batched`` (the default) every
        missing column is filled in one pass over the traces by the
        batched engine (:func:`~repro.runtime.sched.schedule_many`,
        which vectorizes shape-identical trace cohorts and walks each
        remaining trace once for all machines); the per-trace path is
        kept for the benchmark's engine comparison.  ``jobs`` shards
        the trace list across a process pool for big grids.

        A machine listed in ``account`` is (re)filled from scratch
        unless it already has a per-core accounting table
        (:meth:`core_account`), and an inline pass fills that table in
        the same walk.  A pass that fills a column without accounting
        drops the column's table.
        """
        total = len(self.traces)
        wanted = {machine.fingerprint() for machine in account}
        seen: set = set()
        missing: List[Tuple[str, MachineConfig, int]] = []
        for machine in machines:
            fingerprint = machine.fingerprint()
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            # Every requested machine owns a column afterwards, even the
            # empty one of a run whose loops never executed.
            column = self._schedules.setdefault(fingerprint, [])
            done = len(column)
            if fingerprint in wanted and (
                fingerprint not in self._accounts or done < total
            ):
                missing.append((fingerprint, machine, 0))
            elif done < total:
                missing.append((fingerprint, machine, done))
        if not missing:
            return
        info_by_id = {info.loop_id: info for info in self.infos}
        with get_tracer().span(
            "sched.schedule",
            cat="sched",
            machines=len(missing),
            traces=total,
            batched=batched,
            jobs=jobs or 1,
        ):
            if batched:
                # One pass from the earliest lagging offset; machines
                # that already cover a prefix keep it and only append
                # their missing rows.
                start = min(done for _fp, _m, done in missing)
                tail = self.traces[start:]
                loops = [info_by_id[t.loop_id] for t in tail]
                grid = [machine for _fp, machine, _d in missing]
                accounts: Dict[int, CoreTable] = {}
                if not self._sharded(len(tail), jobs):
                    for ki, (fp, machine, _done) in enumerate(missing):
                        if fp in wanted:
                            accounts[ki] = core_table(machine.cores)
                columns = self._schedule_columns(
                    tail, loops, grid, jobs, accounts
                )
                for ki, (fp, _machine, done) in enumerate(missing):
                    col = self._schedules[fp]
                    del col[done:]
                    for ti in range(done - start, len(tail)):
                        col.append(columns[ti][ki])
                    if ki in accounts:
                        self._accounts[fp] = accounts[ki]
                    else:
                        self._accounts.pop(fp, None)
            else:
                by_start: Dict[int, List[Tuple[str, MachineConfig]]] = {}
                for fp, machine, done in missing:
                    by_start.setdefault(done, []).append((fp, machine))
                    self._accounts.pop(fp, None)
                for done, group in by_start.items():
                    cols: Dict[str, List[ScheduleResult]] = {
                        fp: [] for fp, _m in group
                    }
                    for trace in self.traces[done:]:
                        info = info_by_id[trace.loop_id]
                        for fp, machine in group:
                            cols[fp].append(
                                schedule_invocation(trace, info, machine)
                            )
                    for fp, _m in group:
                        column = self._schedules[fp]
                        del column[done:]
                        column.extend(cols[fp])

    @staticmethod
    def _sharded(count: int, jobs: Optional[int]) -> bool:
        """Whether scheduling ``count`` traces goes to a process pool."""
        return (
            jobs is not None
            and jobs > 1
            and count >= max(_SHARD_MIN_TRACES, 2 * jobs)
        )

    def _schedule_columns(
        self,
        traces: Sequence[CompactInvocationTrace],
        loops: Sequence[ParallelizedLoop],
        machines: Sequence[MachineConfig],
        jobs: Optional[int],
        accounts: Dict[int, CoreTable],
    ) -> List[List[ScheduleResult]]:
        """Batched schedule columns for ``traces``, sharded over a
        process pool when ``jobs`` and the trace count warrant it;
        ``accounts`` (inline passes only) is filled as
        :func:`~repro.runtime.sched.schedule_many` documents."""
        if not self._sharded(len(traces), jobs):
            if accounts:
                return schedule_many(
                    traces, loops, machines, accounts=accounts
                )
            return schedule_many(traces, loops, machines)
        timings = [
            _LoopTiming(
                loop_id=loop.loop_id,
                counted=loop.counted,
                helper_order=tuple(loop.helper_order),
            )
            for loop in loops
        ]
        chunk = (len(traces) + jobs - 1) // jobs
        grid = list(machines)
        tracer = get_tracer()
        columns: List[List[ScheduleResult]] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _schedule_shard,
                    list(traces[lo : lo + chunk]),
                    timings[lo : lo + chunk],
                    grid,
                )
                for lo in range(0, len(traces), chunk)
            ]
            for future in futures:
                cols, spans, metrics = future.result()
                columns.extend(cols)
                if spans and getattr(tracer, "enabled", False):
                    tracer.absorb(spans)
                REGISTRY.merge(metrics)
        return columns

    def replay_many(
        self,
        machines: Sequence[MachineConfig],
        jobs: Optional[int] = None,
    ) -> List[ParallelRunResult]:
        """Recompute the timing under each machine in one batched pass.

        Equivalent to ``[self.replay(m) for m in machines]`` but fills
        every missing schedule column in one batched pass over the
        stored traces; the baseline machine's schedules are reused from
        the memo (filled when the run ended) instead of being recomputed
        per swept machine.  ``jobs`` shards the scheduling pass across
        a process pool for big grids.

        The output list and trace list are identical and never mutated
        across the sweep, so all returned results share one instance of
        each rather than copying them once per machine.
        """
        if not self.record_traces:
            raise RuntimeFault("executor was created with record_traces=False")
        with get_tracer().span(
            "exec.replay_many", cat="exec", machines=len(machines)
        ):
            self._ensure_schedules([self.machine, *machines], jobs=jobs)
            baseline = self._schedules[self.machine.fingerprint()]
            shared_output = list(self.output)
            shared_traces: List[AnyTrace] = list(self.traces)
            results: List[ParallelRunResult] = []
            for machine in machines:
                news = self._schedules[machine.fingerprint()]
                adjusted = self.cycles
                for old, new in zip(baseline, news):
                    adjusted += new.parallel_cycles - old.parallel_cycles
                result = ExecutionResult(
                    output=shared_output,
                    cycles=adjusted,
                    instructions=self.instructions,
                )
                results.append(
                    ParallelRunResult(
                        result=result,
                        machine=machine,
                        loop_stats=_loop_stats(self.traces, news),
                        traces=shared_traces,
                    )
                )
        return results

    def schedules(
        self, machine: Optional[MachineConfig] = None
    ) -> List[ScheduleResult]:
        """The per-invocation schedule column for ``machine`` (default:
        the executing machine), aligned with :attr:`traces`.

        Memoized by machine fingerprint like :meth:`replay_many`; the
        executing machine's column was filled when :meth:`run` ended,
        so asking for it never reschedules anything.
        """
        if machine is None:
            machine = self.machine
        self._ensure_schedules([machine])
        return self._schedules[machine.fingerprint()]

    def core_account(self, machine: Optional[MachineConfig] = None) -> CoreTable:
        """Per-core simulated cycles of every invocation under
        ``machine`` (default: the executing machine), by category.

        One row per core, keyed by every
        :data:`~repro.runtime.sched.CATEGORIES` entry: configuration,
        compute, stall, signal, transfer and collection cycles summed
        over all traces (``sequential`` stays zero: main-thread time
        between invocations is not part of any schedule).  The batched
        pass that fills the machine's schedule column fills the table
        too, and it is memoized next to the column.  The pass that
        ends :meth:`run` fills the executing machine's; asking for a
        machine whose column was filled without accounting (any replay,
        including the executing machine's after :meth:`restore_run`)
        refills that column once.
        """
        if machine is None:
            machine = self.machine
        self._ensure_schedules([machine], account=[machine])
        return self._accounts[machine.fingerprint()]

    def replay(self, machine: MachineConfig) -> ParallelRunResult:
        """Recompute the timing under a different machine from the stored
        traces, without re-interpreting the program.

        Valid for changes to core count, prefetch mode and latencies (the
        functional trace is machine-independent); the instruction cost
        model must stay the same.
        """
        return self.replay_many([machine])[0]


def _accumulate(
    stats: LoopRunStats, trace: AnyTrace, schedule: ScheduleResult
) -> None:
    stats.invocations += 1
    stats.iterations += trace.iteration_count
    stats.sequential_cycles += schedule.sequential_cycles
    stats.parallel_cycles += schedule.parallel_cycles
    stats.signals += schedule.signals
    stats.waits += schedule.waits
    stats.wait_stall_cycles += schedule.wait_stall_cycles
    stats.transfer_words += schedule.transfer_words
    stats.loads += trace.loads
    stats.segment_cycles += schedule.segment_cycles


def _loop_stats(
    traces: Sequence[AnyTrace], column: Sequence[ScheduleResult]
) -> Dict[LoopId, LoopRunStats]:
    """Per-loop statistics of ``traces`` timed by ``column``, keyed in
    order of each loop's first invocation."""
    loop_stats: Dict[LoopId, LoopRunStats] = {}
    for trace, schedule in zip(traces, column):
        stats = loop_stats.get(trace.loop_id)
        if stats is None:
            stats = loop_stats[trace.loop_id] = LoopRunStats(
                loop_id=trace.loop_id
            )
        _accumulate(stats, trace, schedule)
    return loop_stats


def run_parallel(
    module: Module,
    infos: Sequence[ParallelizedLoop],
    machine: Optional[MachineConfig] = None,
    record_traces: bool = True,
    backend: str = "auto",
    block_profile: Optional[Dict[Tuple[str, str], int]] = None,
    codegen_cache=None,
) -> ParallelRunResult:
    """Convenience wrapper: execute a transformed module."""
    executor = ParallelExecutor(
        module, infos, machine, record_traces=record_traces, backend=backend,
        block_profile=block_profile, codegen_cache=codegen_cache,
    )
    return executor.execute()
