"""Suite benchmark: the Figure 9 suite, cold, warm and swept.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``cold``  -- each of the 13 benchmarks through ``run_suite`` with a
  fresh runner and an empty cache directory;
* ``warm``  -- the same over a cache filled once per checkout, by the
  first warm or sweep run;
* ``sweep`` -- a fresh runner loads one benchmark's helix run from the
  filled cache and replays it under a machine grid (Figure 9's core
  counts, the four prefetch modes, the six latency points and a seeded
  draw of core counts).

A pass runs every benchmark once, each timed on its own; passes repeat
until ``--seconds`` have elapsed (at least one).  ``pass_s`` sums each
benchmark's median run, scaled by a host-speed probe timed around it to
a fixed reference speed (see ``probe_seconds``).  The seed permutes the benchmark order of every
pass and draws the sweep grid; the programs only ever see the generated
inputs.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds
a traced pass after the untraced ones and prints the per-layer metrics
of :mod:`layers`.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a JSON
record with the per-run times, simulated results and (traced) spans is
written to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark: the filled cache, per-pass cold cache
#: directories and run records.
WORK = ROOT / ".perfbench"
#: The figure tables the repository commits; every pass's rendered rows
#: must match them.
GOLDEN = {
    "figure9": "figure9.txt",
    "sec34": "sec34_model_validation.txt",
    "sec33": "sec33_prefetching.txt",
    "latency": "future_fast_signaling.txt",
}
WORKLOADS = ("cold", "warm", "sweep")
CORES = 6
SETUP_SAMPLES = 5
#: The sweep's seeded core counts: one draw from each band, skipping the
#: Figure 9 counts the grid already holds and the single-core fast path,
#: so every seed's grid schedules as many machines at about the same cost.
DRAW_BANDS = ((3, 16), (17, 32), (33, 48), (49, 64))
FIGURE9_CORES = (2, 4, 6)

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "sim_speedup_geomean": "x",
    "model_error_pct": "%",
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--benches",
        help="comma-separated benchmark subset (default: the whole suite)",
    )
    parser.add_argument("--out", help="run record path (default under .perfbench/)")
    # Internal: the set-up probe and cache fill run in child processes.
    parser.add_argument("--child", choices=("setup", "fill"), help=argparse.SUPPRESS)
    parser.add_argument("--cache", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- set-up ---------------------------------------------------------------------


def time_setup(workload: str, cache_dir: str) -> Tuple[float, float]:
    """One timed set-up: import the entry points and build a runner over
    the workload's cache.  Runs first thing in a fresh interpreter.
    Returns its host seconds and the host-speed probe's seconds around
    it."""
    probe = probe_seconds()
    start = time.perf_counter()
    from repro.evaluation import figures, parallel_runner  # noqa: F401
    from repro.evaluation.cache import EvaluationCache
    from repro.evaluation.runner import EvaluationRunner
    from repro.runtime.machine import MachineConfig

    cache = EvaluationCache(cache_dir)
    if workload != "cold" and not (Path(cache_dir) / "READY").is_file():
        raise RuntimeError(f"cache {cache_dir} was never filled")
    EvaluationRunner(MachineConfig(cores=CORES), cache=cache)
    seconds = time.perf_counter() - start
    return seconds, (probe + probe_seconds()) / 2


def fill_cache(cache_dir: Path, benches: List[str]) -> None:
    """Run the suite once into ``cache_dir`` (atomically: a half-filled
    directory is never visible under the final name)."""
    from repro.evaluation import parallel_runner
    from repro.runtime.machine import MachineConfig

    cache_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix="fill-", dir=cache_dir.parent))
    try:
        parallel_runner.run_suite(
            MachineConfig(cores=CORES),
            jobs=min(2, os.cpu_count() or 1),
            cache_dir=str(staging),
            benches=benches,
        )
        (staging / "READY").write_text("\n".join(benches) + "\n")
        try:
            staging.rename(cache_dir)
        except OSError:
            if not (cache_dir / "READY").is_file():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def child(args: List[str], timeout: float) -> str:
    """Run this script in a child interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup(workload: str, benches: List[str]) -> Tuple[float, Path, Optional[float]]:
    """Fill the shared cache if this checkout has none yet, then time
    :data:`SETUP_SAMPLES` set-ups.  Returns their median seconds on the
    reference host, the cache and the fill's seconds (``None`` when the
    cache was already filled)."""
    from repro.evaluation.cache import code_version

    subset = "all" if benches == _all_benches() else "-".join(benches)
    filled = WORK / "cache" / f"{code_version()}-{subset}"
    fill_s = None
    if workload != "cold" and not (filled / "READY").is_file():
        start = time.perf_counter()
        child(["--workload", workload, "--child", "fill", "--cache", str(filled),
               "--benches", ",".join(benches)], timeout=900)
        fill_s = time.perf_counter() - start
    probe_cache = filled if workload != "cold" else WORK / "tmp" / "probe"
    samples = []
    for _ in range(SETUP_SAMPLES):
        seconds, probe = map(float, child(["--workload", workload, "--child", "setup",
                                           "--cache", str(probe_cache)], timeout=120).split())
        samples.append(seconds / probe * REFERENCE_S)
    return statistics.median(samples), filled, fill_s


def _all_benches() -> List[str]:
    from repro.bench import benchmark_names

    return benchmark_names()


# -- host speed -----------------------------------------------------------------
#
# Other tenants of a shared host slow this process by up to a factor of
# two, for stretches of seconds to minutes, and each CPU on its own.  A
# fixed probe, timed on the same CPU just before and just after each
# benchmark run, slows by about as much as the run does; dividing by it
# leaves what the program's own code costs.  The probe has two parts: an
# interpreter loop over a small dictionary, which a busy host slows less
# than the program, and JSON decoding into fresh objects, which it slows
# more.  The geometric mean of the two tracks every workload.

PROBE_TABLE = {i: (i * 7) % 1000 for i in range(1000)}
PROBE_JSON = json.dumps([{"n": i, "s": str(i), "l": [i, i * 0.5]} for i in range(2000)])
#: Seconds the probe takes on the reference host; ``pass_s`` is the pass
#: time on a host where the probe takes exactly this long.
REFERENCE_S = 0.002


def _probe_loop() -> None:
    total, table = 0, PROBE_TABLE
    for i in range(12000):
        total += table[i % 1000] & 7


def _probe_decode() -> None:
    total = 0.0
    for item in json.loads(PROBE_JSON):
        total += len(item["s"]) + item["l"][1]


def probe_seconds() -> float:
    """Geometric mean of the probe parts' times, each the fastest of
    three runs, with the cyclic garbage collector off so the program's
    heap does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        product = 1.0
        for part in (_probe_loop, _probe_decode):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - start)
            product *= best
        return math.sqrt(product)
    finally:
        if enabled:
            gc.enable()


# -- passes ---------------------------------------------------------------------
#
# A pass runs every benchmark of the suite once, one after another in the
# pass's order.  Each benchmark run is timed on its own and builds its
# own runner, so its time does not depend on which benchmarks ran
# before it in the pass.


def _ordered_runner(order: List[str], cache_dir: Path):
    from repro.evaluation.cache import EvaluationCache
    from repro.evaluation.runner import EvaluationRunner
    from repro.runtime.machine import MachineConfig

    class OrderedRunner(EvaluationRunner):
        def benches(self) -> List[str]:
            return list(order)

    return OrderedRunner(MachineConfig(cores=CORES), cache=EvaluationCache(cache_dir))


def suite_run(bench: str, cache_dir: Path):
    """``cold`` and ``warm``: one benchmark's suite run plus its section
    3.4 row."""
    from repro.evaluation import figures, parallel_runner
    from repro.runtime.machine import MachineConfig

    fig9, _report, runner = parallel_runner.run_suite(
        MachineConfig(cores=CORES), jobs=1, cache_dir=str(cache_dir), benches=[bench]
    )
    tables = {"figure9": fig9, "sec34": figures.model_validation(runner)}
    return runner, tables, ()


def sweep_run(bench: str, cache_dir: Path, grid: List[int]):
    """``sweep``: load one benchmark's helix run into a fresh runner, then
    replay the machine grid."""
    from repro.evaluation import figures

    runner = _ordered_runner([bench], cache_dir)
    tables = {
        "figure9": figures.figure9(runner),
        "sec33": figures.prefetching_study(runner),
        "latency": figures.latency_sweep(runner),
    }
    machines = [runner.machine.with_cores(cores) for cores in grid]
    drawn = runner.helix_run(bench).speedups_at(machines)
    tables["sec34"] = figures.model_validation(runner)
    return runner, tables, drawn


def table_rows(text: str, benches: Sequence[str]) -> Dict[str, str]:
    """bench -> its row in a rendered figure table, whitespace collapsed."""
    rows = {}
    for line in text.splitlines():
        words = line.split()
        if words and words[0] in benches:
            rows[words[0]] = " ".join(words)
    return rows


class BenchRun:
    """One benchmark's timed run in a pass: its time, counters, simulated
    results and verdict."""

    def __init__(
        self, bench: str, seconds: float, probe: float, cpu: float, counters: Dict[str, float]
    ) -> None:
        self.bench = bench
        self.seconds = seconds
        #: The host-speed probe's seconds around the run (mean of before
        #: and after).
        self.probe = probe
        self.cpu = cpu
        self.counters = counters
        #: Simulated results that must not depend on the order, the seed
        #: or tracing.
        self.sim: dict = {}
        self.failed: Optional[str] = None
        self.guard: List[str] = []

    @property
    def scaled(self) -> float:
        """The run's seconds on the reference host."""
        return self.seconds / self.probe * REFERENCE_S

    @property
    def backends(self) -> Dict[str, float]:
        return {
            k: v for k, v in self.counters.items() if k.startswith("interp.backend.") and v
        }


#: bench -> its run; a pass's benchmarks in the order they ran.
Pass = Dict[str, BenchRun]


def run_bench(workload: str, filled: Path, grid: List[int], bench: str, tracer=None) -> BenchRun:
    """Time one benchmark's run, then check it.  ``filled`` is the warm
    and sweep cache, ``grid`` the sweep's seeded core counts.  With
    ``tracer`` the layer wrappers are installed for the timed region
    only, under one ``run`` span."""
    from repro.obs import REGISTRY, metrics_delta

    cache_dir = filled
    if workload == "cold":
        (WORK / "tmp").mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=WORK / "tmp"))
    gc.collect()
    probe = probe_seconds()
    try:
        before = REGISTRY.snapshot()
        with tracer if tracer is not None else contextlib.nullcontext():
            span = tracer.open("run", bench) if tracer is not None else None
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                if workload == "sweep":
                    runner, tables, drawn = sweep_run(bench, cache_dir, grid)
                else:
                    runner, tables, drawn = suite_run(bench, cache_dir)
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            cpu = time.process_time() - cpu
            if span is not None:
                tracer.close(span)
        counters = metrics_delta(before, REGISTRY.snapshot())["counters"]
    finally:
        if cache_dir != filled:
            shutil.rmtree(cache_dir, ignore_errors=True)
    probe = (probe + probe_seconds()) / 2
    result = BenchRun(bench, seconds, probe, cpu, counters)
    if error is not None:
        result.failed = error
        return result
    result.guard = guard(workload, counters)
    check_run(result, runner, tables, drawn)
    return result


def guard(workload: str, counters: Dict[str, float]) -> List[str]:
    """Violations of the workload's character: a ``cold`` run hits no
    cache; ``warm`` and ``sweep`` runs interpret nothing and miss no
    cache entry."""

    def total(prefix: str) -> float:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    problems = []
    if workload == "cold":
        if total("evalcache.hits."):
            problems.append(f"cold run hit the evaluation cache {total('evalcache.hits.'):g} times")
        if counters.get("interp.codegen.cache.hit"):
            problems.append("cold run hit the codegen cache")
    else:
        for stage in ("compile", "profile", "sequential", "execute"):
            if counters.get(f"stage.{stage}.computes"):
                problems.append(f"{workload} run computed the {stage} stage")
        if total("interp.backend."):
            problems.append(f"{workload} run interpreted a program")
        if total("evalcache.misses."):
            problems.append(f"{workload} run missed the cache")
        if total("evalcache.stores."):
            problems.append(f"{workload} run wrote to the shared cache")
    return problems


def check_run(result: BenchRun, runner, tables: dict, drawn: Sequence) -> None:
    """Record the benchmark's simulated results and fail it on any
    divergence: parallel output differing from sequential output, or a
    figure row differing from the committed table."""
    bench = result.bench
    rendered = {name: table_rows(table.render(), [bench]).get(bench) for name, table in tables.items()}
    run = runner.helix_run(bench)
    result.sim = {
        "sequential": [run.sequential.cycles, run.sequential.instructions],
        "parallel": [run.parallel.cycles, run.parallel.result.instructions],
        "rows": rendered,
        "drawn": [repr(v) for v in drawn],
        "speedup": tables["figure9"].speedups[bench][CORES],
        "model_error_pct": tables["sec34"].error_pct(bench),
    }
    if not run.output_matches:
        result.failed = "parallel output differs from sequential output"
    for name, path in GOLDEN.items():
        if name not in tables:
            continue
        committed = table_rows((ROOT / "benchmarks" / "results" / path).read_text(), [bench])
        if rendered[name] != committed.get(bench):
            result.failed = f"{name} row {rendered[name]!r} != committed {committed.get(bench)!r}"


def suite_figures(runs: Pass) -> Dict[str, float]:
    """The pass's Figure 9 geomean and mean section 3.4 model error,
    aggregated in suite order: a float sum in pass order would differ in
    the last bits from one benchmark order to the next."""
    from repro.evaluation.reporting import geomean

    suite = [bench for bench in _all_benches() if runs.get(bench) and runs[bench].sim]
    if not suite:
        return {}
    return {
        "sim_speedup_geomean": geomean([runs[b].sim["speedup"] for b in suite]),
        "model_error_pct": sum(runs[b].sim["model_error_pct"] for b in suite) / len(suite),
    }


def compare(reference: Pass, other: Pass, what: str) -> None:
    """Fail every benchmark whose simulated results differ from its run
    in the reference pass (another order, or the traced pass)."""
    for bench, run in other.items():
        if run.sim and bench in reference and run.sim != reference[bench].sim:
            run.failed = run.failed or f"simulated results differ from the {what}"


def pass_seconds(runs: Pass) -> float:
    """The pass's host seconds."""
    return sum(run.seconds for run in runs.values())


def pass_scaled(runs: Pass) -> float:
    """The pass's seconds on the reference host."""
    return sum(run.scaled for run in runs.values())


# -- main -----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child == "setup":
        print(*map(repr, time_setup(args.workload, args.cache)))
        return 0
    benches = args.benches.split(",") if args.benches else _all_benches()
    if args.child == "fill":
        fill_cache(Path(args.cache), benches)
        return 0

    rng = random.Random(args.seed)
    grid = sorted(
        rng.choice([c for c in range(low, high + 1) if c not in FIGURE9_CORES])
        for low, high in DRAW_BANDS
    )
    setup_s, filled, fill_s = setup(args.workload, benches)

    passes: List[Pass] = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        runs: Pass = {}
        for bench in rng.sample(benches, len(benches)):
            runs[bench] = run_bench(args.workload, filled, grid, bench)
        passes.append(runs)
        if len(passes) > 1:
            compare(passes[0], runs, "first pass (another benchmark order)")
        if any(run.failed and not run.sim for run in runs.values()):
            break  # a run raised; more passes would only repeat it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each benchmark's median run on the reference host, summed.
    pass_s = sum(
        statistics.median(runs[bench].scaled for runs in passes) for bench in benches
    )

    traced: Optional[Pass] = None
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        traced = {}
        for bench in rng.sample(benches, len(benches)):
            traced[bench] = run_bench(args.workload, filled, grid, bench, tracer)
        compare(passes[0], traced, "untraced pass")
        for bench, run in traced.items():
            if run.backends != passes[0][bench].backends:
                run.failed = run.failed or (
                    f"interpreter tiers {run.backends} != untraced {passes[0][bench].backends}"
                )

    measured = passes + ([traced] if traced else [])
    attempted = len(benches) * len(measured)
    failures = [
        (i, bench, run.failed)
        for i, runs in enumerate(measured)
        for bench, run in runs.items()
        if run.failed
    ]
    violations = sorted({v for runs in measured for run in runs.values() for v in run.guard})
    correct = not failures and not violations

    first = passes[0]
    suite = suite_figures(first)
    totals = [pass_seconds(runs) for runs in passes]
    scaled = [pass_scaled(runs) for runs in passes]
    if args.trace:
        counters: Dict[str, float] = {}
        for run in traced.values():
            for name, value in run.counters.items():
                counters[name] = counters.get(name, 0) + value
        values = tracer.metrics(
            counters,
            sum(run.cpu for run in traced.values()),
            pass_seconds(traced),
            pass_scaled(traced) / statistics.median(scaled) - 1.0,
        )
        from layers import PER_LAYER as units
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "peak_rss_mb": peak_rss_mb,
            "sim_speedup_geomean": suite.get("sim_speedup_geomean", 0.0),
            "model_error_pct": suite.get("model_error_pct", 0.0),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "benches": benches,
        "grid": grid,
        "setup_s": setup_s,
        "fill_s": fill_s,
        "pass_s": pass_s,
        "pass_seconds": totals,
        "pass_scaled": scaled,
        "bench_seconds": {bench: [runs[bench].seconds for runs in passes] for bench in benches},
        "bench_probe": {bench: [runs[bench].probe for runs in passes] for bench in benches},
        "peak_rss_mb": peak_rss_mb,
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "guard_violations": violations,
        "sim": {bench: run.sim for bench, run in first.items()},
        "suite": suite,
        "metrics": metrics,
    }
    if tracer is not None:
        record["traced_seconds"] = pass_seconds(traced)
        record["bench_rows"] = tracer.bench_rows()
        record["spans"] = tracer.export()
    out = Path(args.out) if args.out else WORK / (
        f"{args.workload}-seed{args.seed}{'-traced' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))

    report(args, record, tracer)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def report(args, record: dict, tracer) -> None:
    """Human-readable lines ahead of the result line."""
    seconds = record["pass_seconds"]
    print(f"workload {args.workload}  seed {args.seed}  benches {len(record['benches'])}"
          f"  grid {record['grid'] if args.workload == 'sweep' else '-'}")
    print(f"setup_s {record['setup_s']:.4f}  pass_s {record['pass_s']:.4f}  host seconds"
          f" per pass median {statistics.median(seconds):.4f} of n={len(seconds)}"
          f"  ({', '.join(f'{s:.3f}' for s in seconds)})")
    print(f"error_rate {record['error_rate']:.4f}  failures {len(record['failures'])}"
          f"  guard violations {len(record['guard_violations'])}")
    for index, bench, why in record["failures"][:20]:
        print(f"  FAIL pass {index} {bench}: {why}")
    for violation in record["guard_violations"]:
        print(f"  GUARD {violation}")
    if tracer is not None:
        rows = record["bench_rows"]
        benches = [b for b in record["benches"] if b in rows]
        totals: Dict[str, float] = {}
        for row in rows.values():
            for layer, seconds in row.items():
                totals[layer] = totals.get(layer, 0.0) + seconds
        print("traced self time (s) per layer and benchmark:")
        print(f"  {'layer':26s}{'total':>8s}" + "".join(f"{b[:7]:>8s}" for b in benches))
        for layer in sorted(totals, key=totals.get, reverse=True):
            cells = "".join(f"{rows.get(b, {}).get(layer, 0.0):8.3f}" for b in benches)
            print(f"  {layer:26s}{totals[layer]:8.3f}{cells}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6f} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
