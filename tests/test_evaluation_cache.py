"""Tests for the persistent evaluation cache and the parallel runner.

A tiny synthetic benchmark is registered in the suite registry so the
full pipeline (compile, profile, select, transform, execute) runs in
milliseconds rather than the seconds a real suite benchmark takes.
"""

import json
import multiprocessing

import pytest

from repro.bench import benchmark_fingerprint
from repro.bench import suite as bench_suite
from repro.core.loopinfo import HelixOptions
from repro.evaluation.cache import (
    EvaluationCache,
    code_version,
    fingerprint,
    machine_fingerprint,
    options_fingerprint,
    pipeline_fingerprint,
)
from repro.evaluation.parallel_runner import run_suite
from repro.evaluation.reporting import format_stage_stats
from repro.evaluation.runner import EvaluationRunner, StageStats
from repro.frontend import compile_source
from repro.analysis.loops import find_loops
from repro.core import parallelize_module
from repro.runtime.interpreter import ExecutionResult
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import (
    CompactInvocationTrace,
    IterationTrace,
    LoopRunStats,
    ParallelExecutor,
    schedule_invocation,
)
from repro.runtime.profiler import ProfileData, profile_module

TINY = """
int total;
void main() {
    int i;
    for (i = 0; i < 24; i++) {
        int k = 0;
        int f = 0;
        while (k < 12) { f = f + (k ^ i); k++; }
        total = (total + f) % 9973;
    }
    print(total);
}
"""

TINY2 = """
int acc;
void main() {
    int i;
    for (i = 0; i < 30; i++) { acc = (acc + i * i) % 7919; }
    print(acc);
}
"""


def _register(name: str, source: str) -> str:
    bench_suite.BENCHMARKS[name] = bench_suite.BenchmarkSpec(
        name, "synthetic test benchmark", lambda scale: source, 1.0, "test"
    )
    return name


@pytest.fixture()
def tiny_bench():
    name = _register("tinytest", TINY)
    yield name
    del bench_suite.BENCHMARKS[name]


@pytest.fixture()
def tiny_pair():
    names = [_register("tinytest", TINY), _register("tinytest2", TINY2)]
    yield names
    for name in names:
        del bench_suite.BENCHMARKS[name]


def _executed_tiny(cores=4):
    module = compile_source(TINY)
    loop_ids = [
        l.id
        for l in find_loops(module.functions["main"])
        if l.parent is None
    ]
    machine = MachineConfig(cores=cores)
    transformed, infos = parallelize_module(module, loop_ids, machine)
    executor = ParallelExecutor(transformed, infos, machine)
    return executor, executor.execute(), transformed, infos, machine


# ------------------------------------------------------------- serialization


class TestTraceSerialization:
    def test_iteration_trace_roundtrip(self):
        trace = IterationTrace(
            start_cycles=10,
            end_cycles=90,
            events=[("w", 0, 12), ("s", 0, 40), ("n", -1, 44)],
            words={3: 2},
        )
        restored = IterationTrace.from_dict(
            json.loads(json.dumps(trace.to_dict()))
        )
        assert restored == trace

    def test_recorded_traces_roundtrip_to_identical_schedules(self):
        executor, result, _, infos, machine = _executed_tiny()
        info_by_id = {info.loop_id: info for info in infos}
        assert result.traces, "tiny benchmark must record traces"
        for trace in result.traces:
            restored = CompactInvocationTrace.from_dict(
                json.loads(json.dumps(trace.to_dict()))
            )
            assert restored == trace
            # Legacy payload: the same trace in the old per-iteration
            # dict format must still load to an equal compact trace.
            legacy = CompactInvocationTrace.from_dict(
                json.loads(
                    json.dumps(trace.to_invocation_trace().to_dict())
                )
            )
            assert legacy == trace
            for probe in (machine, machine.with_cores(2)):
                assert schedule_invocation(
                    restored, info_by_id[trace.loop_id], probe
                ) == schedule_invocation(
                    trace, info_by_id[trace.loop_id], probe
                )

    def test_restored_executor_replays_identically(self):
        executor, result, transformed, infos, machine = _executed_tiny()
        clone = ParallelExecutor(transformed, infos, machine)
        restored = clone.restore_run(
            ExecutionResult.from_dict(
                json.loads(json.dumps(result.result.to_dict()))
            ),
            [
                CompactInvocationTrace.from_dict(t.to_dict())
                for t in result.traces
            ],
            {
                stats.loop_id: stats
                for stats in (
                    LoopRunStats.from_dict(s.to_dict())
                    for s in result.loop_stats.values()
                )
            },
            load_count=executor.load_count,
        )
        assert restored.cycles == result.cycles
        assert restored.loop_stats == result.loop_stats
        assert clone.load_count == executor.load_count
        for probe in (machine.with_cores(2),
                      machine.with_prefetch(PrefetchMode.NONE)):
            direct = executor.replay(probe)
            replayed = clone.replay(probe)
            assert replayed.cycles == direct.cycles
            assert replayed.loop_stats == direct.loop_stats

    def test_restore_run_defaults_load_count_to_trace_loads(self):
        executor, result, transformed, infos, machine = _executed_tiny()
        clone = ParallelExecutor(transformed, infos, machine)
        clone.restore_run(
            result.result,
            list(result.traces),
            dict(result.loop_stats),
        )
        assert clone.load_count == sum(t.loads for t in result.traces)

    def test_loop_run_stats_roundtrip(self):
        stats = LoopRunStats(
            loop_id=("main", "for.header"),
            invocations=2,
            iterations=10,
            sequential_cycles=1000,
            parallel_cycles=400,
            signals=5,
            waits=5,
            wait_stall_cycles=44,
            transfer_words=3,
            loads=20,
            segment_cycles=120,
        )
        assert LoopRunStats.from_dict(
            json.loads(json.dumps(stats.to_dict()))
        ) == stats

    def test_execution_result_roundtrip(self):
        result = ExecutionResult(
            output=["1", "2.5"], cycles=77, instructions=31, return_value=None
        )
        assert ExecutionResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        ) == result

    def test_profile_roundtrip(self):
        module = compile_source(TINY)
        machine = MachineConfig(cores=4)
        profile = profile_module(module, machine)
        restored = ProfileData.from_dict(
            json.loads(json.dumps(profile.to_dict())), module
        )
        assert restored.loops == profile.loops
        assert restored.block_counts == profile.block_counts
        assert restored.func_inclusive_cycles == profile.func_inclusive_cycles
        assert restored.func_activations == profile.func_activations
        assert restored.result == profile.result
        assert restored.dynamic_nesting.nodes() == profile.dynamic_nesting.nodes()
        assert sorted(restored.dynamic_nesting.graph.edges) == sorted(
            profile.dynamic_nesting.graph.edges
        )
        assert restored.module is module


# ------------------------------------------------------------------ hashing


class TestFingerprints:
    def test_fingerprint_is_stable_and_sensitive(self):
        base = {"a": 1, "b": [1, 2]}
        assert fingerprint(base) == fingerprint({"b": [1, 2], "a": 1})
        assert fingerprint(base) != fingerprint({"a": 1, "b": [2, 1]})

    def test_options_fingerprint_covers_every_field(self):
        base = options_fingerprint(HelixOptions())
        import dataclasses

        for fld in dataclasses.fields(HelixOptions):
            if fld.type == "bool" or isinstance(fld.default, bool):
                changed = HelixOptions(**{fld.name: not fld.default})
            else:
                changed = HelixOptions(**{fld.name: fld.default + 1})
            assert options_fingerprint(changed) != base, fld.name

    def test_machine_fingerprint_sees_cost_model(self):
        base = MachineConfig(cores=4)
        assert machine_fingerprint(base) == machine_fingerprint(
            MachineConfig(cores=4)
        )
        assert machine_fingerprint(base) != machine_fingerprint(
            MachineConfig(cores=4, signal_latency=220)
        )

    def test_pipeline_fingerprint_distinguishes_configs(self):
        fp = pipeline_fingerprint(HelixOptions(), PrefetchMode.HELIX, None,
                                  False, None)
        assert fp != pipeline_fingerprint(
            HelixOptions(), PrefetchMode.NONE, None, False, None
        )
        assert fp != pipeline_fingerprint(
            HelixOptions(enable_segment_scheduling=False),
            PrefetchMode.HELIX, None, False, None,
        )
        assert fp != pipeline_fingerprint(
            HelixOptions(), PrefetchMode.HELIX, 110.0, False, None
        )
        assert fp != pipeline_fingerprint(
            HelixOptions(), PrefetchMode.HELIX, None, False,
            [("main", "for.header")],
        )

    def test_code_version_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_benchmark_fingerprint_differs_by_scale_content(self, tiny_pair):
        a, b = tiny_pair
        assert benchmark_fingerprint(a) != benchmark_fingerprint(b)


# ---------------------------------------------------------------- disk store


class TestEvaluationCache:
    def test_store_load(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        assert cache.load("module", "k1") is None
        cache.store("module", "k1", {"ir": "func"})
        assert cache.load("module", "k1") == {"ir": "func"}
        assert cache.traffic()["module"] == {
            "hits": 1, "misses": 1, "stores": 1
        }

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        cache.store("profile", "k", {"x": 1})
        path = cache._path("profile", "k")
        path.write_text("{not json")
        assert cache.load("profile", "k") is None


# -------------------------------------------------------- runner integration


class TestRunnerCacheIntegration:
    def test_warm_cache_skips_interpretation(self, tiny_bench, tmp_path):
        machine = MachineConfig(cores=4)
        cold = EvaluationRunner(machine, cache=EvaluationCache(tmp_path))
        run_cold = cold.helix_run(tiny_bench)
        for stage in ("compile", "profile", "sequential", "execute"):
            assert cold.stats.stages[stage].computes >= 1, stage

        warm = EvaluationRunner(machine, cache=EvaluationCache(tmp_path))
        run_warm = warm.helix_run(tiny_bench)
        for stage in ("compile", "profile", "sequential", "execute"):
            tally = warm.stats.stages[stage]
            assert tally.computes == 0, stage
            assert tally.disk_hits >= 1, stage

        assert run_warm.speedup == run_cold.speedup
        assert run_warm.parallel.cycles == run_cold.parallel.cycles
        assert run_warm.sequential.cycles == run_cold.sequential.cycles
        assert run_warm.output_matches
        # The restored executor replays other machines identically.
        probe = machine.with_cores(2)
        assert run_warm.speedup_at(probe) == run_cold.speedup_at(probe)

    def test_machine_change_invalidates_entries(self, tiny_bench, tmp_path):
        EvaluationRunner(
            MachineConfig(cores=4), cache=EvaluationCache(tmp_path)
        ).helix_run(tiny_bench)
        other = EvaluationRunner(
            MachineConfig(cores=4, signal_latency=220),
            cache=EvaluationCache(tmp_path),
        )
        other.helix_run(tiny_bench)
        for stage in ("profile", "sequential", "execute"):
            assert other.stats.stages[stage].computes == 1, stage
        # Modules don't depend on the machine: still served from disk.
        assert other.stats.stages["compile"].disk_hits >= 1

    def test_runner_without_cache_unchanged(self, tiny_bench):
        runner = EvaluationRunner(MachineConfig(cores=4))
        first = runner.helix_run(tiny_bench)
        second = runner.helix_run(tiny_bench)
        assert first is second
        assert runner.stats.stages["execute"].memory_hits == 1

    def test_cache_key_does_not_shadow_options(self, tiny_bench):
        # Regression: a string cache_key used to *replace* the config in
        # the memo key, so differing configurations sharing a label
        # returned the first result computed.
        runner = EvaluationRunner(MachineConfig(cores=4))
        helix = runner.pipeline(
            tiny_bench, prefetch=PrefetchMode.HELIX, cache_key="label"
        )
        nopf = runner.pipeline(
            tiny_bench, prefetch=PrefetchMode.NONE, cache_key="label"
        )
        assert nopf is not helix
        assert nopf.parallel.machine.prefetch_mode is PrefetchMode.NONE
        noopt = runner.pipeline(
            tiny_bench,
            options=HelixOptions(enable_signal_optimization=False),
            cache_key="label",
        )
        assert noopt is not helix
        # Identical config + label still memoizes.
        again = runner.pipeline(
            tiny_bench, prefetch=PrefetchMode.HELIX, cache_key="label"
        )
        assert again is helix


# ------------------------------------------------------------ stage counters


class TestStageStats:
    def test_merge_and_render(self):
        stats = StageStats()
        stats.record("execute", "compute", 2.0)
        stats.record("execute", "disk", 0.5)
        stats.record("compile", "memory")
        other = StageStats()
        other.record("execute", "compute", 1.0)
        stats.merge(other.as_dict())
        data = stats.as_dict()
        assert data["execute"]["computes"] == 2
        assert data["execute"]["disk_hits"] == 1
        assert data["execute"]["wall_seconds"] == pytest.approx(3.5)
        # Stages render in pipeline order.
        text = format_stage_stats(data)
        lines = text.splitlines()
        assert lines[0] == "Pipeline stage statistics"
        assert "compile" in lines[3]
        assert "execute" in lines[4]

    def test_merge_folds_invalidations(self):
        stats = StageStats()
        stats.invalidate("analysis:loops")
        other = StageStats()
        other.invalidate("analysis:loops")
        other.invalidate("analysis:loops")
        other.record("analysis:loops", "compute", 0.25)
        stats.merge(other.as_dict())
        tally = stats.tally("analysis:loops")
        assert tally.invalidations == 3
        assert tally.computes == 1
        assert tally.wall_seconds == pytest.approx(0.25)

    def test_merge_tolerates_legacy_partial_snapshots(self):
        # Snapshots from older code versions may lack fields added
        # since; every one defaults to zero instead of raising.
        stats = StageStats()
        stats.record("execute", "compute", 1.0)
        stats.merge({"execute": {"computes": 2}, "profile": {}})
        assert stats.tally("execute").computes == 3
        assert stats.tally("execute").wall_seconds == pytest.approx(1.0)
        assert stats.tally("profile").requests == 0
        assert stats.tally("profile").invalidations == 0


# ------------------------------------------------------------ parallel suite


class TestParallelSuite:
    def test_sequential_suite_report(self, tiny_pair, tmp_path):
        fig9, report, runner = run_suite(
            machine=MachineConfig(cores=4),
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            benches=tiny_pair,
        )
        assert set(report.speedups) == set(tiny_pair)
        assert report.wall_seconds > 0
        assert report.stages["execute"]["computes"] == len(tiny_pair)
        payload = json.loads(report.to_json())
        assert payload["geomeans"]["4"] == pytest.approx(fig9.geomean(4))
        assert payload["code_version"] == code_version()
        # Provenance block: where and on what the suite ran.
        env = payload["environment"]
        assert env["code_version"] == code_version()
        assert env["python"] and env["platform"]
        assert env["cpu_count"] >= 1
        # Simulated-time accounting: one per-core block per benchmark,
        # internally consistent.
        assert set(payload["timeline"]) == set(tiny_pair)
        for block in payload["timeline"].values():
            assert block["cores"] == 4
            assert len(block["per_core"]) == 4
            for category, total in block["totals"].items():
                assert total == sum(
                    row[category] for row in block["per_core"]
                )
            # The run's cycles land somewhere: parallel compute or the
            # main thread's sequential track.
            assert (
                block["totals"]["compute"] + block["totals"]["sequential"]
                > 0
            )
        # Interpreter counter block: sequential references run on the
        # superblock tier, so formation/codegen totals accumulate.
        interp = payload["interp"]
        assert interp["interp.backend.superblock"] >= len(tiny_pair)
        assert interp["interp.superblock.formed"] > 0
        assert interp["interp.codegen.functions"] > 0

    def test_sequential_suite_records_bench_outcomes(self, tiny_pair):
        _, report, _ = run_suite(
            machine=MachineConfig(cores=4), jobs=1, benches=tiny_pair
        )
        assert [b.bench for b in report.benches] == list(tiny_pair)
        assert all(b.output_matches for b in report.benches)
        assert all(b.wall_seconds > 0 for b in report.benches)
        for outcome in report.benches:
            assert outcome.stages["execute"]["computes"] == 1
            assert outcome.stages["profile"]["computes"] == 1
        # The outcomes are slices of the parent runner's tallies, which
        # report.stages already holds: nothing is counted twice.
        assert report.stages["execute"]["computes"] == len(tiny_pair)
        assert report.stages["profile"]["computes"] == len(tiny_pair)

    def test_interrupted_suite_keeps_partial_accounting(
        self, tiny_pair, monkeypatch
    ):
        from repro.evaluation import figures
        from repro.evaluation.parallel_runner import SuiteInterrupted

        def interrupt(_runner):
            raise KeyboardInterrupt

        monkeypatch.setattr(figures, "figure9", interrupt)
        with pytest.raises(SuiteInterrupted) as excinfo:
            run_suite(
                machine=MachineConfig(cores=4), jobs=1, benches=tiny_pair
            )
        report = excinfo.value.report
        assert report.interrupted
        assert [b.bench for b in report.benches] == list(tiny_pair)
        assert report.stages["execute"]["computes"] == len(tiny_pair)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the test benchmark registry via fork",
    )
    def test_parallel_suite_identical_to_sequential(self, tiny_pair):
        machine = MachineConfig(cores=4)
        fig_seq, _, _ = run_suite(machine=machine, jobs=1, benches=tiny_pair)
        fig_par, report, _ = run_suite(
            machine=machine, jobs=2, benches=tiny_pair
        )
        assert fig_par.render() == fig_seq.render()
        assert [b.bench for b in report.benches] == list(tiny_pair)
        assert all(b.output_matches for b in report.benches)
        # The parent merged the workers' artifacts: its own pipelines
        # were all served from the scratch disk cache.
        assert report.stages["execute"]["disk_hits"] >= len(tiny_pair)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the test benchmark registry via fork",
    )
    def test_parallel_trace_merges_to_sequential_span_set(self, tiny_pair):
        from repro.obs import tracing

        machine = MachineConfig(cores=4)
        with tracing() as seq_tracer:
            run_suite(machine=machine, jobs=1, benches=tiny_pair)
        with tracing() as par_tracer:
            run_suite(machine=machine, jobs=2, benches=tiny_pair)
        seq_names = {e.name for e in seq_tracer.finished()}
        par_names = {e.name for e in par_tracer.finished()}
        # Workers ship their spans home, so the merged parallel trace
        # covers exactly the spans a sequential run records.
        assert par_names == seq_names
        # ... under their own process ids (>= 2 distinct: the parent
        # plus at least one worker).
        assert len({e.pid for e in par_tracer.finished()}) >= 2

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the test benchmark registry via fork",
    )
    def test_parallel_suite_reuses_persistent_cache(
        self, tiny_pair, tmp_path
    ):
        machine = MachineConfig(cores=4)
        cache_dir = str(tmp_path / "cache")
        run_suite(
            machine=machine, jobs=2, cache_dir=cache_dir, benches=tiny_pair
        )
        _, warm_report, _ = run_suite(
            machine=machine, jobs=2, cache_dir=cache_dir, benches=tiny_pair
        )
        for stage in ("compile", "profile", "sequential", "execute"):
            assert warm_report.stages[stage]["computes"] == 0, stage
