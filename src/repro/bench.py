"""``python -m repro bench`` — replay-throughput benchmark with tracked history.

The bench times the engine on three representative grids — the Figure 3
(models × workloads) trace grid, a cycle-approximate CPU grid, and an SMT
co-run grid — and writes the timings, per-grid branch throughput, and the
speedups against the recorded baselines to a ``BENCH_<n>.json`` artifact
(``BENCH_6.json`` for the current format).  Committing one artifact per PR
tracks the perf trajectory of the hot path over time.

Two baselines are recorded per grid: wall-clock seconds of the pre-columnar
engine (PR 1's per-item replay loop) and branches/s of the PR-2 columnar fast
path (from ``BENCH_2.json``), both measured serially on the reference
container.  A ``speedup`` of 2.0 therefore means "twice as fast as the engine
before the columnar fast path", and ``speedup_vs_fast_path`` isolates what
the vector backend adds on top.  Traces are generated (and memoised) before
the clock starts, so the measurement covers replay, not synthetic trace
construction.

Each timing also records a SHA-256 of the grid's serialized
:class:`~repro.engine.results.ResultFrame`, tying every perf point to the
exact results it produced — a bench run that got faster by producing
different numbers is immediately visible.  The full-mode SHAs are unchanged
since ``BENCH_2.json``: the vector backend replays bit-identically.

Artifact entries are keyed ``<grid>.<mode>`` and *merged* into an existing
artifact of the same format, so one file can carry both the full-mode record
and the quick-mode numbers CI regresses against: ``--check PREV.json`` fails
the command (exit ≠ 0) when any matching grid's branches/s drops more than
20% below the recorded value.

Since format 5 the report also measures the content-addressed result store
(:mod:`repro.store`): the figure3 grid is run twice against a fresh on-disk
store — a cold run that computes and writes every record, then a warm run
that must execute zero jobs — and the artifact records the store's hit/miss
counters plus a ``warm_vs_cold_seconds`` entry, so the perf trajectory
captures caching wins next to replay-speed wins.

Since format 6 the report also carries a ``predictors`` block: every registry
model replays the same trace under the forced ``vector`` backend, and the
artifact records each model's branches/s, its kernel class
(:func:`repro.sim.vector.kernel_status`), and ``gap_vs_vector`` — the
composite reference kernel's throughput divided by the model's.  That ratio
is the number the guarded TAGE kernels are closing; ``--check``
gates on the per-model branches/s exactly like it gates on the grids.

Since format 7 the report also measures the async serving tier
(:mod:`repro.store.jobs` behind ``repro serve``): a batch of distinct
scenarios is pushed through a real HTTP server twice — serialized (one job
worker, the old global-lock behaviour) and concurrent (several workers) —
and the ``serve`` block records jobs/s for both lanes plus the concurrency
speedup and an envelope-equality verdict.  ``--check`` gates on both lanes'
jobs/s.

Each grid entry additionally carries a ``phases`` block — per-phase seconds
(partition/dispatch/execute/merge, from :mod:`repro.obs` span tracing of the
timed serial run) — so a perf regression names the phase, not just the grid.
The tracer never feeds the result frame: ``result_sha256`` is unchanged by
tracing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

from repro.engine import (
    EngineRunner,
    ExperimentScale,
    ExperimentSpec,
    Option,
    SimulationGrid,
    register_experiment,
    resolve_workloads,
    trace_cache_stats,
)
from repro.experiments.figure3 import figure3_grid
from repro.obs.spans import SpanTracer, phase_seconds
from repro.sim import fastpath
from repro.store import DiskStore
from repro.trace.workloads import GEM5_SMT_PAIRS

#: Format/sequence number of the artifact this module writes.
BENCH_SEQUENCE = 7

#: Default artifact path.
DEFAULT_OUTPUT = f"BENCH_{BENCH_SEQUENCE}.json"

#: Fractional branches/s drop versus the recorded artifact that fails a
#: ``--check`` run.
CHECK_TOLERANCE = 0.20

#: Pre-change (PR 1, per-item replay loop) wall-clock seconds for each bench
#: grid, measured serially on the reference container.  These are the
#: denominators of the reported speedups; re-measure them only when the grid
#: definitions below change.
PR1_BASELINE_SECONDS: dict[str, float] = {
    "figure3.full": 18.50,
    "cpu.full": 3.48,
    "smt.full": 3.32,
    "figure3.quick": 1.96,
    "cpu.quick": 0.38,
    "smt.quick": 0.36,
}

#: PR-2 columnar fast-path branches/s (from ``BENCH_2.json``, full mode on the
#: reference container): the denominator of ``speedup_vs_fast_path``.
PR2_BASELINE_BRANCHES_PER_SECOND: dict[str, float] = {
    "figure3.full": 98_971.1,
    "cpu.full": 86_792.0,
    "smt.full": 92_949.5,
}

#: Registry model whose vector kernel is the ``gap_vs_vector`` denominator in
#: the ``predictors`` block: the SKL composite, whose fully-array kernel the
#: other predictor families chase.
PREDICTOR_REFERENCE_MODEL = "baseline"

#: Serial timing repetitions per model in the predictors block; the block
#: records the best run, which damps scheduler noise on the short per-model
#: replays.
PREDICTOR_REPS = 3

#: Job-worker count of the concurrent lane in the ``serve`` block (the
#: serialized lane always runs one worker — the pre-format-7 behaviour of a
#: global execution lock).
SERVE_CONCURRENT_WORKERS = 4


@dataclass(slots=True)
class BenchTiming:
    """One timed grid: size, wall-clock, throughput, and baseline comparisons."""

    name: str
    mode: str
    jobs: int
    branches: int
    seconds: float
    result_sha256: str
    baseline_seconds: float | None = None
    fast_path_branches_per_second: float | None = None
    parallel_seconds: float | None = None
    parallel_matches_serial: bool | None = None
    parallel_workers: int | None = None
    phases: dict[str, float] | None = None

    @property
    def key(self) -> str:
        """Artifact key: grid and mode (``figure3.full``)."""
        return f"{self.name}.{self.mode}"

    @property
    def branches_per_second(self) -> float:
        return self.branches / self.seconds if self.seconds else 0.0

    @property
    def speedup(self) -> float | None:
        if self.baseline_seconds is None or not self.seconds:
            return None
        return self.baseline_seconds / self.seconds

    @property
    def speedup_vs_fast_path(self) -> float | None:
        if self.fast_path_branches_per_second is None or not self.seconds:
            return None
        return self.branches_per_second / self.fast_path_branches_per_second

    @property
    def parallel_speedup(self) -> float | None:
        if self.parallel_seconds is None or not self.parallel_seconds:
            return None
        return self.seconds / self.parallel_seconds

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "mode": self.mode,
            "jobs": self.jobs,
            "branches": self.branches,
            "seconds": round(self.seconds, 4),
            "branches_per_second": round(self.branches_per_second, 1),
            "result_sha256": self.result_sha256,
        }
        if self.baseline_seconds is not None:
            payload["baseline_seconds"] = self.baseline_seconds
            payload["speedup"] = round(self.speedup, 3)
        if self.fast_path_branches_per_second is not None:
            payload["fast_path_branches_per_second"] = self.fast_path_branches_per_second
            payload["speedup_vs_fast_path"] = round(self.speedup_vs_fast_path, 3)
        if self.parallel_seconds is not None:
            payload["parallel_seconds"] = round(self.parallel_seconds, 4)
            payload["parallel_matches_serial"] = self.parallel_matches_serial
            payload["parallel_workers"] = self.parallel_workers
            payload["parallel_speedup"] = round(self.parallel_speedup, 3)
        if self.phases is not None:
            payload["phases"] = {
                name: round(seconds, 4)
                for name, seconds in self.phases.items()
            }
        return payload


@dataclass(slots=True)
class BenchReport:
    """All timings of one bench invocation."""

    mode: str
    backend: str = ""
    timings: list[BenchTiming] = field(default_factory=list)
    trace_cache: dict[str, int] = field(default_factory=dict)
    store: dict = field(default_factory=dict)
    predictors: dict = field(default_factory=dict)
    serve: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(timing.seconds for timing in self.timings)

    def to_dict(self) -> dict:
        return {
            "format": BENCH_SEQUENCE,
            "mode": self.mode,
            "backend": self.backend,
            "total_seconds": round(self.total_seconds, 4),
            "trace_cache": dict(self.trace_cache),
            # Keyed by mode so a quick refresh merged into a full artifact
            # never clobbers the full-mode store measurement (same rule as
            # the per-`<grid>.<mode>` benches entries).
            "store": {self.mode: dict(self.store)} if self.store else {},
            "predictors": (
                {self.mode: dict(self.predictors)} if self.predictors else {}),
            "serve": {self.mode: dict(self.serve)} if self.serve else {},
            "benches": {timing.key: timing.to_dict() for timing in self.timings},
        }


def bench_grids(quick: bool = False) -> dict[str, SimulationGrid]:
    """The representative grids the bench times.

    ``quick`` shrinks trace lengths and grid extents for CI smoke runs; the
    full mode matches the scale the recorded baselines were measured at.
    Changing these definitions invalidates the recorded baselines.
    """
    if quick:
        branch_count, warmup = 4_000, 400
        figure3_limit, cpu_workloads, smt_pairs = 4, 2, 1
    else:
        branch_count, warmup = 20_000, 2_000
        figure3_limit, cpu_workloads, smt_pairs = 8, 4, 2

    def scale(limit: int | None = None) -> ExperimentScale:
        return ExperimentScale(
            branch_count=branch_count, warmup_branches=warmup, seed=7,
            workload_limit=limit,
        )

    singles = resolve_workloads(None)
    return {
        "figure3": figure3_grid(scale(figure3_limit)),
        "cpu": SimulationGrid(
            kind="cpu", models=("baseline", "ST_SKLCond"),
            workloads=singles[:cpu_workloads], scale=scale(),
        ),
        "smt": SimulationGrid(
            kind="smt", models=("baseline", "ST_SKLCond"),
            workloads=list(GEM5_SMT_PAIRS[:smt_pairs]), scale=scale(),
        ),
    }


def _frame_sha256(frame) -> str:
    return hashlib.sha256(frame.to_json().encode("utf-8")).hexdigest()


def measure_store(quick: bool = False) -> dict:
    """Time the figure3 grid cold and warm against a fresh on-disk store.

    The cold run computes and writes every record (store overhead included);
    the warm run must resolve every job from the store and execute zero
    simulations.  Counters, both wall-clocks and the resulting speedup land
    in the artifact's ``store`` block — the caching analogue of the replay
    ``speedup`` column.
    """
    grid = bench_grids(quick)["figure3"]
    jobs = grid.jobs()
    EngineRunner._prewarm_traces(jobs)  # measure the store, not trace synthesis
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store = DiskStore(tmp)
        cold_runner = EngineRunner(store=store)
        started = time.perf_counter()
        cold_frame = cold_runner.run_jobs(jobs)
        cold_seconds = time.perf_counter() - started
        warm_runner = EngineRunner(store=store)
        started = time.perf_counter()
        warm_frame = warm_runner.run_jobs(jobs)
        warm_seconds = time.perf_counter() - started
        stats = store.stats()
        return {
            "grid": "figure3",
            "jobs": len(jobs),
            "hits": stats["hits"],
            "misses": stats["misses"],
            "writes": stats["writes"],
            "warm_jobs_executed": warm_runner.last_executed,
            "warm_matches_cold": warm_frame.to_json() == cold_frame.to_json(),
            "warm_vs_cold_seconds": {
                "cold": round(cold_seconds, 4),
                "warm": round(warm_seconds, 4),
                "speedup": round(cold_seconds / warm_seconds, 1)
                if warm_seconds else None,
            },
        }


def measure_predictors(quick: bool = False) -> dict:
    """Per-model vector-backend throughput versus the composite kernel.

    Every registry model — the TAGE and Perceptron families, the ablation
    facades, and the composite itself — replays the same trace under the
    forced ``vector`` backend, serially, best of :data:`PREDICTOR_REPS`
    repetitions.  The block records each model's branches/s, its kernel
    class (``kernel`` / ``guarded`` / ``fallback``, see
    :func:`repro.sim.vector.kernel_status`), and ``gap_vs_vector``: the
    reference composite kernel's throughput divided by the model's.  The
    composite reads 1.0 by construction; the guarded TAGE steppers and the
    Perceptron's row rounds are chasing it from above.
    """
    from repro.engine.registry import build_model, list_models
    from repro.sim import vector

    branch_count, warmup = (4_000, 400) if quick else (20_000, 2_000)
    scale = ExperimentScale(
        branch_count=branch_count, warmup_branches=warmup, seed=7)
    workload = "505.mcf"
    models: dict[str, dict] = {}
    with fastpath.forced_backend("vector"):
        for name in sorted(list_models()):
            jobs = SimulationGrid(kind="trace", models=(name,),
                                  workloads=(workload,), scale=scale).jobs()
            branches = EngineRunner._prewarm_traces(jobs)
            best: float | None = None
            for _ in range(PREDICTOR_REPS):
                started = time.perf_counter()
                EngineRunner(workers=1).run_jobs(jobs)
                seconds = time.perf_counter() - started
                best = seconds if best is None else min(best, seconds)
            models[name] = {
                "vector": vector.kernel_status(build_model(name, seed=0)),
                "branches": branches,
                "branches_per_second": round(branches / best, 1) if best else 0.0,
            }
    reference = models[PREDICTOR_REFERENCE_MODEL]["branches_per_second"]
    for entry in models.values():
        bps = entry["branches_per_second"]
        entry["gap_vs_vector"] = round(reference / bps, 2) if bps else None
    return {
        "workload": workload,
        "reference": PREDICTOR_REFERENCE_MODEL,
        "reps": PREDICTOR_REPS,
        "models": models,
    }


def _serve_scenarios(quick: bool = False) -> list[dict]:
    """Distinct single-cell scenarios for the serving bench (seed-varied so
    every submission is a genuine miss, never a single-flight dedup)."""
    count, branch_count, warmup = (6, 2_000, 200) if quick else (12, 8_000, 800)
    return [
        {
            "schema": "repro.scenario/v1",
            "name": f"bench-serve-{index}",
            "kind": "trace",
            "models": ["baseline"],
            "workloads": ["505.mcf"],
            "scale": {"branch_count": branch_count,
                      "warmup_branches": warmup, "seed": 100 + index},
        }
        for index in range(count)
    ]


def measure_serve(quick: bool = False) -> dict:
    """Jobs/s of the async serving tier, concurrent versus serialized.

    The same batch of distinct scenarios is pushed through a real HTTP
    server (async POSTs via :class:`repro.client.ReproClient`, then polled
    to terminal) twice: once with a single job worker — equivalent to the
    pre-format-7 global execution lock — and once with
    :data:`SERVE_CONCURRENT_WORKERS`.  Traces are prewarmed so the clock
    measures queueing + execution + serving, not synthetic trace
    construction; both lanes must produce identical envelopes.  Each lane
    starts its clock after a full garbage collection, so a gen-2 collection
    owed to the earlier grids' allocations is not charged to whichever lane
    happens to trigger it (about 35 ms on a 2-CPU host, a fifth of a quick
    lane).
    """
    import threading

    from repro.client import ReproClient
    from repro.engine.scenario import parse_scenario
    from repro.store.memory import MemoryStore
    from repro.store.serve import make_server

    scenarios = _serve_scenarios(quick)
    EngineRunner._prewarm_traces([
        job for data in scenarios for job in parse_scenario(data).jobs()])

    def lane(workers: int) -> tuple[dict, list, list[str]]:
        server = make_server(port=0, store=MemoryStore(), workers=workers,
                             queue_depth=max(32, 2 * len(scenarios)))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        client = ReproClient(f"http://{host}:{port}", poll_interval=0.02)
        try:
            gc.collect()
            started = time.perf_counter()
            submitted = [client.submit(data) for data in scenarios]
            states = [client.wait(entry.fingerprint, timeout=600)["state"]
                      for entry in submitted]
            seconds = time.perf_counter() - started
            envelopes = [client.result(entry.fingerprint)[0]
                         for entry in submitted]
            block = {
                "workers": workers,
                "seconds": round(seconds, 4),
                "jobs_per_second": round(len(scenarios) / seconds, 2)
                if seconds else 0.0,
            }
            return block, envelopes, states
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()  # type: ignore[attr-defined]

    serialized, serial_envelopes, serial_states = lane(1)
    concurrent, concurrent_envelopes, concurrent_states = lane(
        SERVE_CONCURRENT_WORKERS)
    speedup = (serialized["seconds"] / concurrent["seconds"]
               if concurrent["seconds"] else None)
    return {
        "scenarios": len(scenarios),
        "serialized": serialized,
        "concurrent": concurrent,
        "speedup": round(speedup, 3) if speedup is not None else None,
        "all_done": (serial_states + concurrent_states).count("done")
        == 2 * len(scenarios),
        "concurrent_matches_serialized":
            concurrent_envelopes == serial_envelopes,
    }


def run_bench(quick: bool = False, workers: int = 1) -> BenchReport:
    """Time every bench grid; optionally cross-check a parallel run.

    The timed measurement is always serial so numbers stay comparable across
    machines and worker counts.  With ``workers > 1`` each grid is run a
    second time on a batched process pool (one fork per grid) and the
    serialized results are compared — the parallel timing and the match
    verdict land in the artifact.
    """
    mode = "quick" if quick else "full"
    report = BenchReport(mode=mode, backend=fastpath.backend())
    parallel_runner = EngineRunner(workers=workers) if workers > 1 else None
    for name, grid in bench_grids(quick).items():
        jobs = grid.jobs()
        branches = EngineRunner._prewarm_traces(jobs)
        runner = EngineRunner(workers=1)
        key = f"{name}.{mode}"
        # The tracer rides along on the timed run: its per-phase seconds
        # (partition/dispatch/execute/merge) land in the artifact so a perf
        # regression names the phase, not just the grid.  Span overhead is a
        # handful of clock reads per grid — noise at these run lengths.
        tracer = SpanTracer(key, name="bench")
        started = time.perf_counter()
        frame = runner.run_jobs(jobs, tracer=tracer)
        seconds = time.perf_counter() - started
        timing = BenchTiming(
            name=name,
            mode=mode,
            jobs=len(jobs),
            branches=branches,
            seconds=seconds,
            result_sha256=_frame_sha256(frame),
            baseline_seconds=PR1_BASELINE_SECONDS.get(key),
            fast_path_branches_per_second=PR2_BASELINE_BRANCHES_PER_SECOND.get(key),
            phases=phase_seconds(tracer.payload()),
        )
        if parallel_runner is not None:
            started = time.perf_counter()
            parallel_frame = parallel_runner.run_jobs(jobs)
            timing.parallel_seconds = time.perf_counter() - started
            timing.parallel_matches_serial = (
                parallel_frame.to_json() == frame.to_json()
            )
            timing.parallel_workers = workers
        report.timings.append(timing)
    report.trace_cache = trace_cache_stats()
    report.store = measure_store(quick)
    report.predictors = measure_predictors(quick)
    report.serve = measure_serve(quick)
    return report


def write_bench(report: BenchReport, path: str = DEFAULT_OUTPUT) -> None:
    """Write the artifact JSON, merging into a same-format existing artifact.

    Merging keeps one file carrying several modes (``figure3.full`` next to
    ``figure3.quick``): entries of the current run overwrite same-key
    entries, every other recorded entry is preserved.
    """
    payload = report.to_dict()
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict) and existing.get("format") == BENCH_SEQUENCE:
            benches = dict(existing.get("benches", {}))
            benches.update(payload["benches"])
            payload["benches"] = benches
            store = existing.get("store")
            if isinstance(store, dict):
                # Carry over per-mode blocks only (guards against pre-merge
                # artifacts that stored one unkeyed block).
                merged_store = {
                    mode: block for mode, block in store.items()
                    if isinstance(block, dict) and "warm_vs_cold_seconds" in block
                }
                merged_store.update(payload["store"])
                payload["store"] = merged_store
            predictors = existing.get("predictors")
            if isinstance(predictors, dict):
                merged_predictors = {
                    mode: block for mode, block in predictors.items()
                    if isinstance(block, dict) and "models" in block
                }
                merged_predictors.update(payload["predictors"])
                payload["predictors"] = merged_predictors
            serve = existing.get("serve")
            if isinstance(serve, dict):
                merged_serve = {
                    mode: block for mode, block in serve.items()
                    if isinstance(block, dict) and "serialized" in block
                }
                merged_serve.update(payload["serve"])
                payload["serve"] = merged_serve
            # total_seconds stays the total of the *current run's mode* so it
            # always describes one real invocation (the one "mode"/"backend"/
            # "trace_cache" also describe), never a cross-mode sum.
            payload["total_seconds"] = round(
                sum(entry.get("seconds", 0.0) for entry in benches.values()
                    if entry.get("mode") == report.mode), 4)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_reference(reference_path: str) -> dict:
    """Load a recorded artifact for :func:`check_regression`.

    Read the reference *before* writing the new artifact: ``--output`` and
    ``--check`` may name the same file (the in-place refresh EXPERIMENTS.md
    documents), and a gate that reads the just-merged file would compare the
    run against itself.
    """
    with open(reference_path, encoding="utf-8") as handle:
        return json.load(handle)


def check_regression(report: BenchReport, reference: dict | str,
                     tolerance: float = CHECK_TOLERANCE) -> list[str]:
    """Compare the run against a recorded artifact; return failure messages.

    ``reference`` is a path or an already-loaded artifact (see
    :func:`load_reference`).  Only grids recorded under the same
    ``<name>.<mode>`` key are compared (a quick CI run checks against the
    artifact's quick entries).  A grid fails when its branches/s drops more
    than ``tolerance`` below the recorded value.  The per-model
    ``predictors`` block is gated the same way: a model recorded under the
    run's mode fails when its vector-backend branches/s falls below the
    tolerance floor.  The ``serve`` block gates both lanes' jobs/s, so a
    serving-tier throughput regression fails CI like a kernel one.
    """
    if isinstance(reference, str):
        reference = load_reference(reference)
    recorded = reference.get("benches", {})
    failures: list[str] = []

    def gate(key: str, measured: float, entry: dict,
             field: str = "branches_per_second", unit: str = "branches/s") -> None:
        recorded_value = float(entry.get(field, 0.0))
        floor = recorded_value * (1.0 - tolerance)
        if recorded_value and measured < floor:
            drop = 1.0 - measured / recorded_value
            failures.append(
                f"{key}: {measured:,.0f} {unit} is {drop:.1%} "
                f"(tolerance {tolerance:.0%}) below the recorded "
                f"{recorded_value:,.0f} (floor {floor:,.0f})")

    for timing in report.timings:
        entry = recorded.get(timing.key)
        if entry is not None:
            gate(timing.key, timing.branches_per_second, entry)
    recorded_models = (reference.get("predictors", {})
                       .get(report.mode, {}).get("models", {}))
    for name, entry in (report.predictors.get("models") or {}).items():
        recorded_entry = recorded_models.get(name)
        if isinstance(recorded_entry, dict):
            gate(f"predictors.{report.mode}.{name}",
                 float(entry.get("branches_per_second", 0.0)), recorded_entry)
    recorded_serve = reference.get("serve", {}).get(report.mode, {})
    for lane in ("serialized", "concurrent"):
        recorded_entry = recorded_serve.get(lane)
        measured_entry = report.serve.get(lane)
        if isinstance(recorded_entry, dict) and isinstance(measured_entry, dict):
            gate(f"serve.{report.mode}.{lane}",
                 float(measured_entry.get("jobs_per_second", 0.0)),
                 recorded_entry, field="jobs_per_second", unit="jobs/s")
    return failures


def _bench_execute(params: dict, workers: int = 1, progress=None) -> BenchReport:
    # Validate the gate configuration and snapshot the reference artifact
    # before the (potentially minutes-long) timed run writes anything.
    reference_path = params.get("check")
    reference = None
    tolerance = params.get("check_tolerance")
    if reference_path:
        tolerance = CHECK_TOLERANCE if tolerance is None else float(tolerance)
        if not 0.0 < tolerance < 1.0:
            raise ValueError("check-tolerance must be in (0, 1)")
        reference = load_reference(reference_path)
    report = run_bench(quick=params["quick"], workers=workers)
    write_bench(report, params["output"] or DEFAULT_OUTPUT)
    if reference is not None:
        failures = check_regression(report, reference, tolerance)
        if failures:
            raise ValueError(
                "bench regression vs %s: %s" % (reference_path, "; ".join(failures)))
    return report


register_experiment(ExperimentSpec(
    name="bench",
    description="time representative grids and write the BENCH_*.json artifact",
    kind="bench",
    options=(
        Option("quick", action="store_true",
               help="reduced-scale smoke run (used by CI)"),
        Option("output", metavar="PATH", default=None,
               help=f"artifact path (default: {DEFAULT_OUTPUT})"),
        # argparse %-formats help strings, so a literal percent sign is "%%".
        Option("check", metavar="PREV.json", default=None,
               help="fail (exit != 0) when branches/s drops more than "
                    f"{CHECK_TOLERANCE * 100:.0f}%% below this recorded "
                    "artifact's matching grids"),
        Option("check-tolerance", type=float, default=None, metavar="FRACTION",
               help="override the --check drop tolerance (same-machine "
                    f"default: {CHECK_TOLERANCE}; CI compares against an "
                    "artifact recorded on a different machine and uses a "
                    "looser bound)"),
    ),
    execute=_bench_execute,
    formatter=lambda report: format_bench(report),
    serializer=lambda report: report.to_dict(),
    epilogue=lambda report, params: (
        f"bench artifact written to {params['output'] or DEFAULT_OUTPUT}"),
))


def format_bench(report: BenchReport) -> str:
    """Render the report as an aligned text table."""
    header = (
        f"{'bench':10s}{'jobs':>6s}{'branches':>12s}{'seconds':>10s}"
        f"{'Mbr/s':>8s}{'speedup':>9s}{'parallel':>10s}"
    )
    lines = [f"mode: {report.mode}   backend: {report.backend}", header,
             "-" * len(header)]
    for timing in report.timings:
        speedup = f"{timing.speedup:8.2f}x" if timing.speedup is not None else f"{'n/a':>9s}"
        if timing.parallel_seconds is not None:
            verdict = "ok" if timing.parallel_matches_serial else "DIFF"
            parallel = f"{timing.parallel_seconds:7.2f}s{verdict:>2s}"
        else:
            parallel = f"{'-':>10s}"
        lines.append(
            f"{timing.name:10s}{timing.jobs:6d}{timing.branches:12d}"
            f"{timing.seconds:10.3f}{timing.branches_per_second / 1e6:8.2f}"
            f"{speedup}{parallel}"
        )
    lines.append("-" * len(header))
    lines.append(f"{'total':10s}{'':6s}{'':12s}{report.total_seconds:10.3f}")
    for timing in report.timings:
        if timing.phases:
            breakdown = "  ".join(f"{phase} {seconds:.3f}s"
                                  for phase, seconds in timing.phases.items()
                                  if phase != "job")
            lines.append(f"phases ({timing.name}): {breakdown}")
    cache = report.trace_cache
    if cache:
        lines.append(
            f"trace cache: {cache.get('size', 0)}/{cache.get('capacity', 0)} "
            f"entries, {cache.get('hits', 0)} hits / {cache.get('misses', 0)} "
            f"misses / {cache.get('evictions', 0)} evictions")
    store = report.store
    if store:
        timing = store.get("warm_vs_cold_seconds", {})
        verdict = "ok" if store.get("warm_matches_cold") else "DIFF"
        lines.append(
            f"result store ({store.get('grid')}): cold {timing.get('cold', 0.0):.3f}s "
            f"-> warm {timing.get('warm', 0.0):.3f}s "
            f"({timing.get('speedup') or 0.0}x, {store.get('hits', 0)} hits / "
            f"{store.get('misses', 0)} misses, "
            f"{store.get('warm_jobs_executed', 0)} jobs executed warm, {verdict})")
    serve = report.serve
    if serve:
        serialized = serve.get("serialized", {})
        concurrent = serve.get("concurrent", {})
        verdict = "ok" if serve.get("concurrent_matches_serialized") \
            and serve.get("all_done") else "DIFF"
        lines.append(
            f"serve ({serve.get('scenarios', 0)} scenarios): serialized "
            f"{serialized.get('jobs_per_second', 0.0):.1f} jobs/s -> "
            f"{concurrent.get('workers', 0)} workers "
            f"{concurrent.get('jobs_per_second', 0.0):.1f} jobs/s "
            f"({serve.get('speedup') or 0.0}x, {verdict})")
    predictors = report.predictors
    if predictors:
        models = predictors.get("models", {})
        width = max(len(name) for name in models)
        lines.append(
            f"predictors ({predictors.get('workload')}, vector backend, "
            f"gap vs {predictors.get('reference')}):")
        for name, entry in models.items():
            gap = entry.get("gap_vs_vector")
            gap_text = f"gap {gap:.2f}x" if gap is not None else "gap n/a"
            lines.append(
                f"  {name:{width}s}  {entry.get('vector', '?'):8s}"
                f"{entry.get('branches_per_second', 0.0) / 1e3:8.0f} Kbr/s"
                f"   {gap_text}")
    return "\n".join(lines)
