"""Differential identity: compiled backends vs tree-walker, whole corpus.

The acceptance bar for both compiled backends — the pre-decoded closure
tier and the superblock code-generated tier — is *bit-identical*
observable behavior: output, cycles, instructions and return value must
match the tree-walker on every program in ``examples/`` and the
benchmark suite, with and without profiler instrumentation, and through
the parallel executor.  These tests enforce exactly that.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.bench import benchmark_names, compile_benchmark
from repro.core.parallelizer import parallelize_module
from repro.core.selection import SelectionConfig, choose_loops
from repro.frontend import compile_source
from repro.runtime import Interpreter, run_module
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.profiler import profile_module

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Examples that expose their MiniC program as a module-level SOURCE.
EXAMPLE_FILES = ("quickstart.py", "inspect_transformation.py")

#: Benchmarks given the (expensive) full parallel-pipeline comparison.
EXECUTOR_BENCHES = ("equake", "mcf")

#: The compiled backends, each checked against the tree oracle.
COMPILED_BACKENDS = ("decoded", "superblock")

_modules = {}


def _bench_module(name):
    module = _modules.get(name)
    if module is None:
        module = _modules[name] = compile_benchmark(name, "train")
    return module


def _example_module(filename):
    module = _modules.get(filename)
    if module is None:
        path = EXAMPLES_DIR / filename
        spec = importlib.util.spec_from_file_location(path.stem, path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        module = _modules[filename] = compile_source(example.SOURCE)
    return module


def _assert_sequential_identity(module, backend):
    tree = run_module(module, backend="tree")
    compiled = run_module(module, backend=backend)
    assert tree.to_dict() == compiled.to_dict()


def _assert_profile_identity(module, backend):
    tree = profile_module(module, backend="tree")
    compiled = profile_module(module, backend=backend)
    assert tree.to_dict() == compiled.to_dict()


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_sequential_identity(bench, backend):
    _assert_sequential_identity(_bench_module(bench), backend)


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_profile_identity(bench, backend):
    _assert_profile_identity(_bench_module(bench), backend)


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("filename", EXAMPLE_FILES)
def test_example_sequential_identity(filename, backend):
    _assert_sequential_identity(_example_module(filename), backend)


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("filename", EXAMPLE_FILES)
def test_example_profile_identity(filename, backend):
    _assert_profile_identity(_example_module(filename), backend)


class _HookRecorder(Interpreter):
    """The hooked matrix's instrumented interpreter.

    Counts loads and folds every ``on_block_entry`` call -- order and
    arguments -- into a running digest, so two variants agree on the
    digest iff they made byte-for-byte the same hook call sequence
    without the test holding millions of tuples.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.count_loads = True
        self.blocks_entered = 0
        self.entry_digest = 0

    def on_block_entry(self, frame, prev, block):
        self.blocks_entered += 1
        self.entry_digest = hash(
            (self.entry_digest, prev.name if prev is not None else None,
             block.name)
        )


def _hooked_run(module, backend):
    interp = _HookRecorder(module, backend=backend)
    result = interp.run()
    return (
        result.to_dict(),
        interp.load_count,
        interp.blocks_entered,
        interp.entry_digest,
    )


@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_hooked_instrumentation_identity(bench):
    """Hooked superblock tier vs hooked decoded variant vs tree walker.

    All three must agree on the run result *and* on the instrumentation
    they produced: total loads counted and the exact ``on_block_entry``
    call sequence (prev/block arguments in order).
    """
    module = _bench_module(bench)
    tree = _hooked_run(module, "tree")
    assert _hooked_run(module, "decoded") == tree
    assert _hooked_run(module, "superblock") == tree


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("bench", EXECUTOR_BENCHES)
def test_parallel_executor_identity(bench, backend):
    machine = MachineConfig(cores=6)
    module = _bench_module(bench)
    profile = profile_module(module, machine)
    selection = choose_loops(
        module, profile, SelectionConfig(machine=machine, cores=6)
    )
    transformed, infos = parallelize_module(
        module, selection.chosen, machine
    )
    tree = ParallelExecutor(
        transformed, infos, machine, backend="tree"
    ).execute()
    compiled = ParallelExecutor(
        transformed, infos, machine, backend=backend
    ).execute()
    assert tree.result.to_dict() == compiled.result.to_dict()
    assert tree.cycles == compiled.cycles
    assert {k: s.to_dict() for k, s in tree.loop_stats.items()} == {
        k: s.to_dict() for k, s in compiled.loop_stats.items()
    }
    assert len(tree.traces) == len(compiled.traces)


def _trace_bytes(trace):
    """Every serialized field of one compact trace, columns as bytes."""
    return (
        trace.loop_id,
        trace.start_cycles,
        trace.end_cycles,
        trace.loads,
        trace.it_start.tobytes(),
        trace.it_end.tobytes(),
        trace.ev_off.tobytes(),
        trace.ev_kind.tobytes(),
        trace.ev_dep.tobytes(),
        trace.ev_at.tobytes(),
        trace.words,
    )


_parallelized = {}


def _parallel_setup(bench, machine):
    entry = _parallelized.get(bench)
    if entry is None:
        module = _bench_module(bench)
        profile = profile_module(module, machine)
        selection = choose_loops(
            module, profile, SelectionConfig(machine=machine, cores=6)
        )
        entry = _parallelized[bench] = parallelize_module(
            module, selection.chosen, machine
        )
    return entry


@pytest.mark.parametrize("bench", benchmark_names())
def test_parallel_executor_recorded_traces_identity(bench):
    """Both compiled tiers record byte-identical invocation traces.

    The executor's record path runs on the hooked engines (it observes
    block entries and sync/transfer instructions), so this pins the
    hooked superblock tier to the decoded hooked variant across the
    whole corpus: results, cycles and every column of every recorded
    trace must match exactly.
    """
    machine = MachineConfig(cores=6)
    transformed, infos = _parallel_setup(bench, machine)
    outcomes = {}
    for backend in COMPILED_BACKENDS:
        outcomes[backend] = ParallelExecutor(
            transformed, infos, machine, backend=backend
        ).execute()
    decoded, superblock = outcomes["decoded"], outcomes["superblock"]
    assert decoded.result.to_dict() == superblock.result.to_dict()
    assert decoded.cycles == superblock.cycles
    assert len(decoded.traces) == len(superblock.traces)
    for left, right in zip(decoded.traces, superblock.traces):
        assert _trace_bytes(left) == _trace_bytes(right)


class _ProbeRecorder(Interpreter):
    """Digests ``on_block_entry`` calls into probe sites, with the
    counters each one observes.

    Without declared probe sites it hears every block: it then counts
    every entry itself and digests only the calls into ``sites``, which
    makes it the every-block oracle for a run that declares ``sites``.
    """

    def __init__(self, module, sites, backend, declare):
        super().__init__(module, backend=backend)
        self.count_loads = True
        self.sites = sites
        if declare:
            self.probe_sites = sites
            self.count_blocks = True
        self.entries = {}
        self.digest = 0

    def on_block_entry(self, frame, prev, block):
        fname = frame.func.name
        if self.probe_sites is None:
            key = (fname, block.name)
            self.entries[key] = self.entries.get(key, 0) + 1
        if block.name in self.sites.get(fname, ()):
            self.digest = hash((
                self.digest, fname, prev.name if prev is not None else None,
                block.name, self.cycles, self.instructions, self.load_count,
            ))


def _probed_run(module, sites, backend, declare):
    interp = _ProbeRecorder(module, sites, backend, declare)
    result = interp.run()
    counts = interp.block_counts() if declare else interp.entries
    return result.to_dict(), interp.load_count, interp.digest, counts


@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_probe_sites_filter_tree_hooks(bench):
    """Every tier, declaring the profiler's probe sites, makes exactly
    the every-block tree walker's hook calls into those sites -- same
    order, arguments and counters -- and counts the same block entries.
    """
    from repro.analysis.loopnest import build_static_loop_nest_graph
    from repro.runtime.profiler import loop_probe_sites

    module = _bench_module(bench)
    sites = loop_probe_sites(build_static_loop_nest_graph(module))
    oracle = _probed_run(module, sites, "tree", declare=False)
    assert oracle[2] != 0
    for backend in ("tree",) + COMPILED_BACKENDS:
        assert _probed_run(module, sites, backend, declare=True) == oracle
