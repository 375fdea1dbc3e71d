"""Engine runner: executes job lists serially or on a batched process pool.

:func:`execute_job` is the single entry point that knows how to run every job
kind; it lives at module top level so a :class:`~concurrent.futures.ProcessPoolExecutor`
can pickle it.  Because jobs are plain data, seeds are derived from job
identity, and the synthetic trace generator is deterministic, a parallel run
produces records bit-identical to a serial run of the same grid — the runner
only changes wall-clock time, never results.

Parallel execution is *batched*: jobs are grouped into contiguous chunks
(:func:`job_batches`) so each pool round-trip amortises dispatch and result
pickling over several jobs.  Every parallel run forks a fresh pool after
generating its distinct traces in the parent, so workers inherit the trace
cache and the model registry as they stand; the pool is shut down before the
run's iterator finishes, raises or is closed.  On platforms without ``fork``
workers regenerate traces on a cache miss — generation is deterministic, so
the records are the same.

:meth:`EngineRunner.iter_records` is the streaming form: records are yielded
in job order as soon as they (and every earlier job) complete, and an optional
progress callback fires in completion order, so long grids report progress
instead of blocking until the whole pool drains.

With a result store attached (``EngineRunner(store=...)``), execution is
*incremental*: jobs are partitioned into cached and missing by their
content-addressed fingerprint (:mod:`repro.store.keys`), only the missing
cells are dispatched (batched as usual), fresh records are written back, and
the merged frame is byte-identical to a cold run — cached records re-enter at
the requesting job's index with ``seconds`` zeroed, exactly as serialization
would have produced them.  ``last_executed`` / ``last_cached`` expose the
split for assertions and for the CLI's cache-effectiveness report.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.grid import Job, SimulationGrid
from repro.engine.registry import build_model
from repro.engine.results import JobRecord, ResultFrame
from repro.engine.workloads import trace_for
from repro.obs import metrics as obs_metrics
from repro.obs.spans import NULL_TRACER
from repro.sim.bpu_sim import TraceSimulator
from repro.sim.config import SimulationLengths
from repro.sim.cpu import CycleApproximateCPU
from repro.sim.smt import SMTSimulator
from repro.store.base import JOB_NAMESPACE, ResultStore
from repro.store.keys import CACHEABLE_KINDS, job_fingerprint

logger = logging.getLogger("repro.engine.runner")


def _protection_metrics(protection: dict[str, int]) -> dict[str, float]:
    return {key: float(value) for key, value in protection.items()}


def _run_trace_job(job: Job) -> JobRecord:
    model = build_model(job.model, seed=job.seed)
    trace = trace_for(job.workload, job.branch_count, job.trace_seed)
    simulator = TraceSimulator(warmup_branches=job.warmup_branches)
    result = simulator.run(model, trace)
    report = result.report
    metrics = {
        "oae_accuracy": report.oae_accuracy,
        "direction_accuracy": report.direction_accuracy,
        "target_accuracy": report.target_accuracy,
        "misprediction_rate": report.misprediction_rate,
        "btb_evictions": float(report.btb_evictions),
        "branches": float(result.stats.branches),
    }
    metrics.update(_protection_metrics(model.protection_stats()))
    return JobRecord(
        index=job.index, kind=job.kind, model=job.model_label,
        workload=job.workload_name, metrics=metrics,
    )


def _run_cpu_job(job: Job) -> JobRecord:
    model = build_model(job.model, seed=job.seed)
    trace = trace_for(job.workload, job.branch_count, job.trace_seed)
    lengths = SimulationLengths(
        warmup_branches=job.warmup_branches, measured_branches=job.branch_count
    )
    result = CycleApproximateCPU(lengths=lengths).run(model, trace)
    performance = result.performance
    metrics = {
        "ipc": performance.ipc,
        "direction_accuracy": performance.direction_accuracy,
        "target_accuracy": performance.target_accuracy,
        "instructions": performance.instructions,
        "cycles": performance.cycles,
    }
    metrics.update(_protection_metrics(model.protection_stats()))
    return JobRecord(
        index=job.index, kind=job.kind, model=job.model_label,
        workload=job.workload_name, metrics=metrics,
    )


def _run_smt_job(job: Job) -> JobRecord:
    workload_a, workload_b = job.workload
    model = build_model(job.model, seed=job.seed)
    trace_a = trace_for(workload_a, job.branch_count, job.trace_seed)
    trace_b = trace_for(workload_b, job.branch_count, job.trace_seed)
    lengths = SimulationLengths(
        warmup_branches=job.warmup_branches, measured_branches=job.branch_count
    )
    result = SMTSimulator(lengths=lengths).run(model, trace_a, trace_b)
    metrics = {
        "hmean_ipc": result.hmean_ipc,
        "direction_accuracy": result.combined_direction_accuracy,
        "target_accuracy": result.combined_target_accuracy,
        "ipc_thread0": result.thread_performance[0].ipc,
        "ipc_thread1": result.thread_performance[1].ipc,
        "branches": float(sum(stats.branches for stats in result.thread_stats)),
    }
    metrics.update(_protection_metrics(result.protection))
    return JobRecord(
        index=job.index, kind=job.kind, model=job.model_label,
        workload=job.workload_name, metrics=metrics,
    )


def _run_hashgen_job(job: Job) -> JobRecord:
    from repro.hashgen.constraints import summarize_cost
    from repro.hashgen.generator import RemapFunctionGenerator
    from repro.hashgen.optimization import REMAP_CONSTRAINTS, select_best

    label = job.workload
    constraints = REMAP_CONSTRAINTS[label]
    generator = RemapFunctionGenerator(constraints, seed=job.seed)
    candidates = generator.search(
        attempts=job.param("attempts", 12),
        uniformity_samples=job.param("uniformity_samples", 3_000),
        avalanche_samples=job.param("avalanche_samples", 20),
    )
    best = select_best(candidates, constraints)
    metrics: dict[str, float] = {"candidates": float(len(candidates))}
    if best is not None:
        cost = summarize_cost(best.evaluated.candidate.layers)
        metrics.update(
            critical_path_transistors=float(cost.critical_path_transistors),
            uniformity_cv=best.evaluated.uniformity.normalized_cv,
            avalanche_mean=best.evaluated.avalanche.mean_flip_fraction,
            score=best.total,
        )
    return JobRecord(
        index=job.index, kind=job.kind, model="hashgen",
        workload=label, metrics=metrics,
    )


def _attack_spectre_v2(model, job: Job):
    from repro.security.attacks import SpectreV2Injection

    return SpectreV2Injection(model, seed=job.seed).run(attempts=job.param("attempts", 150))


def _attack_spectre_rsb(model, job: Job):
    from repro.security.attacks import SpectreRSBInjection

    return SpectreRSBInjection(model, seed=job.seed).run(attempts=job.param("attempts", 150))


def _attack_trojan(model, job: Job):
    from repro.security.attacks import TransientTrojanAttack

    return TransientTrojanAttack(model, seed=job.seed).run(trials=job.param("trials", 100))


def _attack_btb_reuse(model, job: Job):
    from repro.security.attacks import BTBReuseSideChannel

    return BTBReuseSideChannel(model, seed=job.seed).run(trials=job.param("trials", 200))


def _attack_pht_reuse(model, job: Job):
    from repro.security.attacks import PHTReuseSideChannel

    return PHTReuseSideChannel(model, seed=job.seed).run(
        secret_bits=job.param("secret_bits", 128))


def _attack_btb_eviction(model, job: Job):
    from repro.security.attacks import BTBEvictionSideChannel

    return BTBEvictionSideChannel(model, seed=job.seed).run(trials=job.param("trials", 100))


def _attack_rsb_overflow(model, job: Job):
    from repro.security.attacks import RSBOverflowAttack

    return RSBOverflowAttack(model, seed=job.seed).run(trials=job.param("trials", 100))


def _attack_dos(model, job: Job):
    from repro.security.attacks import BPUDenialOfService

    return BPUDenialOfService(model, seed=job.seed).run(
        rounds=job.param("rounds", 50),
        hot_branch_count=job.param("hot_branch_count", 32),
        attacker_branches_per_round=job.param("attacker_branches_per_round", 512),
    )


#: Default attack-specific work parameters, sized for minutes-long matrices.
#: Shared by the attack-matrix driver and scenario files, keyed like
#: :data:`_ATTACKS`.
DEFAULT_ATTACK_PARAMS: dict[str, tuple[tuple[str, object], ...]] = {
    "spectre_v2": (("attempts", 150),),
    "spectre_rsb": (("attempts", 150),),
    "trojan": (("trials", 100),),
    "btb_reuse": (("trials", 150),),
    "pht_reuse": (("secret_bits", 96),),
    "btb_eviction": (("trials", 60),),
    "rsb_overflow": (("trials", 60),),
    "dos": (("rounds", 30),),
}

#: Attack scenarios runnable as ``kind="attack"`` jobs (the paper's Table I
#: vectors), keyed by the name used in the job's ``attack`` parameter.
_ATTACKS = {
    "spectre_v2": _attack_spectre_v2,
    "spectre_rsb": _attack_spectre_rsb,
    "trojan": _attack_trojan,
    "btb_reuse": _attack_btb_reuse,
    "pht_reuse": _attack_pht_reuse,
    "btb_eviction": _attack_btb_eviction,
    "rsb_overflow": _attack_rsb_overflow,
    "dos": _attack_dos,
}


def attack_names() -> list[str]:
    """Names of all attack scenarios the engine can dispatch, sorted."""
    return sorted(_ATTACKS)


def _run_attack_job(job: Job) -> JobRecord:
    attack_name = job.param("attack")
    try:
        attack = _ATTACKS[attack_name]
    except KeyError:
        known = ", ".join(attack_names())
        raise ValueError(
            f"unknown attack {attack_name!r}; known attacks: {known}"
        ) from None
    model = build_model(job.model, seed=job.seed)
    outcome = attack(model, job)
    metrics = {
        "success_metric": outcome.success_metric,
        "success": float(outcome.success),
        "attempts": float(outcome.attempts),
        "protected": float(outcome.protected),
    }
    return JobRecord(
        index=job.index, kind=job.kind, model=job.model_label,
        workload=attack_name, metrics=metrics,
    )


def _run_table_job(job: Job) -> JobRecord:
    # Imported lazily: repro.experiments itself declares grids on this engine.
    from repro.experiments import tables

    table_name = job.param("table")
    payloads = {
        "table1": tables.run_table1,
        "table2": tables.run_table2,
        "table4": tables.run_table4,
        "thresholds": tables.thresholds_payload,
    }
    if table_name not in payloads:
        raise ValueError(f"unknown table {table_name!r}")
    return JobRecord(
        index=job.index, kind=job.kind, model="tables",
        workload=table_name, payload=payloads[table_name](),
    )


_EXECUTORS = {
    "trace": _run_trace_job,
    "cpu": _run_cpu_job,
    "smt": _run_smt_job,
    "hashgen": _run_hashgen_job,
    "attack": _run_attack_job,
    "table": _run_table_job,
}


def execute_job(job: Job) -> JobRecord:
    """Execute one job in the current process and return its timed record."""
    try:
        runner = _EXECUTORS[job.kind]
    except KeyError:
        raise ValueError(f"unknown job kind {job.kind!r}") from None
    started = time.perf_counter()  # repro-lint: disable=determinism -- wall time only; JobRecord.seconds is excluded from serialized frames
    record = runner(job)
    record.seconds = time.perf_counter() - started  # repro-lint: disable=determinism -- wall time only; JobRecord.seconds is excluded from serialized frames
    return record


#: Optional callback fired once per completed job, in completion order:
#: ``progress(done, total, record)``.
ProgressCallback = Callable[[int, int, JobRecord], None]


def execute_job_batch(jobs: Sequence[Job]) -> list[JobRecord]:
    """Execute a contiguous batch of jobs in the current (worker) process."""
    return [execute_job(job) for job in jobs]


#: Batches per worker: bigger batches mean fewer pool round-trips, smaller
#: ones let stragglers matter less.
_BATCHES_PER_WORKER = 4


def job_batches(jobs: Sequence[Job], workers: int) -> list[list[Job]]:
    """Split ``jobs`` into contiguous batches sized for pool submission:
    :data:`_BATCHES_PER_WORKER` batches per worker, at least one job each."""
    total = len(jobs)
    if total == 0:
        return []
    chunk = max(1, -(-total // max(1, workers * _BATCHES_PER_WORKER)))
    return [list(jobs[start:start + chunk]) for start in range(0, total, chunk)]


def _pool_context():
    """``fork`` where the platform has it (workers inherit the parent's trace
    cache and model registry), else the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class EngineRunner:
    """Executes grids/job lists, serially or on a batched process pool.

    Args:
        workers: Number of worker processes; ``1`` (the default) runs
            everything inline.  Results are identical either way.
        store: Optional :class:`~repro.store.base.ResultStore`.  When given,
            cacheable jobs whose fingerprints resolve are merged from the
            store instead of executing, and fresh records are written back —
            incremental execution with byte-identical frames.

    The runner holds no pool between runs: a run with more than one worker
    and more than one job to execute forks a fresh pool and shuts it down
    before its iterator is exhausted, raises or is closed, so there is
    nothing to close.

    Instrumentation: after every ``run``/``run_jobs``/``iter_records``
    consumption, ``last_total``/``last_cached``/``last_executed`` describe
    that run's cached-vs-executed split, and ``total_cached``/
    ``total_executed`` accumulate across the runner's lifetime.
    """

    def __init__(self, workers: int = 1, store: ResultStore | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.store = store
        self.last_total = 0
        self.last_cached = 0
        self.last_executed = 0
        self.total_cached = 0
        self.total_executed = 0

    def run(self, grid: SimulationGrid,
            progress: ProgressCallback | None = None) -> ResultFrame:
        """Expand ``grid`` and execute every job."""
        return self.run_jobs(grid.jobs(), progress=progress)

    def run_jobs(self, jobs: Sequence[Job],
                 progress: ProgressCallback | None = None,
                 abort_check: Callable[[], None] | None = None,
                 tracer=None) -> ResultFrame:
        """Execute an explicit job list (drivers mixing kinds build these)."""
        return ResultFrame(self.iter_records(jobs, progress=progress,
                                             abort_check=abort_check,
                                             tracer=tracer))

    def iter_records(self, jobs: Iterable[Job],
                     progress: ProgressCallback | None = None,
                     abort_check: Callable[[], None] | None = None,
                     tracer=None) -> Iterator[JobRecord]:
        """Stream records as jobs finish, reassembled into job order.

        Records are yielded in the order of ``jobs`` regardless of which
        worker finishes first, so consuming the iterator is deterministic and
        ``ResultFrame(iter_records(...))`` equals a blocking run.  The
        ``progress`` callback, by contrast, fires in *completion* order —
        that is its purpose: honest liveness for long grids.  Each record
        carries the wall-clock ``seconds`` its job took in the process that
        ran it (``0.0`` for store hits — they cost no simulation time).

        With a store attached, cached jobs complete instantly (their progress
        fires first), only the missing jobs are dispatched, and every fresh
        cacheable record is written back.

        ``abort_check`` is the supervisor hook (``repro.store.jobs``): called
        before dispatch and between completions, it raises to abandon the
        run (deadline exceeded, job cancelled).  The run's pool is then shut
        down with its queued batches cancelled; batches already in flight
        cannot be interrupted and finish before the exception propagates.

        ``tracer`` (a :class:`repro.obs.spans.SpanTracer`) records the
        phase spans partition → dispatch → execute → merge plus one leaf
        per record; all clock reads happen inside the tracer, so this
        module stays free of timing calls.  Span structure is a function of
        the job list and the store state, never of completion order: the
        per-record leaves are added under ``merge`` in job order.
        """
        jobs = list(jobs)
        if abort_check is not None:
            abort_check()
        tracer = tracer or NULL_TRACER
        total = len(jobs)
        with tracer.span("partition") as partition_span:
            cached, missing, positions, fingerprints = self._partition(jobs)
            partition_span.attrs.update(
                jobs=total, cached=len(cached), missing=len(missing))
        obs_metrics.inc("repro_engine_jobs_cached_total", len(cached))
        obs_metrics.inc("repro_engine_jobs_executed_total", len(missing))
        self.last_total = total
        self.last_cached = len(cached)
        self.last_executed = len(missing)
        self.total_cached += len(cached)
        self.total_executed += len(missing)
        done = 0
        ready: dict[int, JobRecord] = dict(cached)
        merged: list[tuple[int, JobRecord, str]] = []
        next_position = 0
        for position in sorted(ready):
            done += 1
            merged.append((position, ready[position], "store"))
            if progress is not None:
                progress(done, total, ready[position])
        while next_position in ready:
            yield ready.pop(next_position)
            next_position += 1
        with self._completions(missing, positions, tracer=tracer) as completions, \
                tracer.span("execute") as execute_span:
            for position, record in completions:
                if abort_check is not None:
                    abort_check()
                done += 1
                if progress is not None:
                    progress(done, total, record)
                fingerprint = fingerprints.get(position)
                if fingerprint is not None:
                    self._write_back(fingerprint, record)
                merged.append((position, record, "executed"))
                ready[position] = record
                while next_position in ready:
                    yield ready.pop(next_position)
                    next_position += 1
            execute_span.attrs.update(jobs=len(missing))
        with tracer.span("merge") as merge_span:
            merged.sort(key=lambda item: item[0])
            for position, record, source in merged:
                tracer.add("job", seconds=record.seconds,
                           position=position, model=record.model,
                           workload=record.workload, source=source)
            merge_span.attrs.update(records=total)

    @contextmanager
    def _completions(self, jobs: Sequence[Job], positions: Sequence[int],
                     tracer=NULL_TRACER) -> Iterator[
                         Iterator[tuple[int, JobRecord]]]:
        """Execute ``jobs``, yielding an iterator of ``(original position,
        record)`` pairs in completion order (serial: list order; parallel:
        batch completion).  Dispatch — trace prewarm, pool fork, batch
        submission — happens on entry, under the ``dispatch`` span; the pool
        is shut down, queued batches cancelled, on exit."""
        total = len(jobs)
        if total == 0:
            yield iter(())
            return
        if self.workers <= 1 or total <= 1:
            tracer.add("dispatch", mode="serial", workers=1, batches=0)
            yield ((position, execute_job(job))
                   for position, job in zip(positions, jobs))
            return
        workers = min(self.workers, total)
        context = _pool_context()
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            with tracer.span("dispatch") as dispatch_span:
                if context.get_start_method() == "fork":
                    # Workers fork at first submit and inherit the parent's
                    # trace cache as of that moment: generate the traces first.
                    self._prewarm_traces(jobs)
                batches = job_batches(jobs, workers)
                position_batches: list[Sequence[int]] = []
                offset = 0
                for batch in batches:
                    position_batches.append(positions[offset:offset + len(batch)])
                    offset += len(batch)
                futures = {
                    pool.submit(execute_job_batch, batch): index
                    for index, batch in enumerate(batches)
                }
                dispatch_span.attrs.update(
                    mode="pool", workers=workers, batches=len(batches))

            def stream() -> Iterator[tuple[int, JobRecord]]:
                for future in as_completed(futures):
                    index = futures[future]
                    yield from zip(position_batches[index], future.result())

            yield stream()
        finally:
            pool.shutdown(cancel_futures=True)

    # ----------------------------------------------------------- store layer

    def _partition(self, jobs: Sequence[Job]) -> tuple[
            dict[int, JobRecord], list[Job], list[int], dict[int, str]]:
        """Split jobs into store-resolved records and still-missing jobs.

        Returns ``(cached, missing, positions, fingerprints)``: records by
        original list position, the jobs to execute, their positions, and the
        fingerprints to write fresh results back under.
        """
        if self.store is None:
            return {}, list(jobs), list(range(len(jobs))), {}
        cached: dict[int, JobRecord] = {}
        missing: list[Job] = []
        positions: list[int] = []
        fingerprints: dict[int, str] = {}
        for position, job in enumerate(jobs):
            record = None
            fingerprint = (job_fingerprint(job)
                           if job.kind in CACHEABLE_KINDS else None)
            if fingerprint is not None:
                record = self._cached_record(job, fingerprint)
            if record is not None:
                cached[position] = record
                continue
            missing.append(job)
            positions.append(position)
            if fingerprint is not None:
                fingerprints[position] = fingerprint
        return cached, missing, positions, fingerprints

    def _cached_record(self, job: Job, fingerprint: str) -> JobRecord | None:
        try:
            payload = self.store.get(JOB_NAMESPACE, fingerprint)
        except OSError:
            logger.warning("store read failed for %s; recomputing",
                           fingerprint[:16], exc_info=True)
            return None
        if payload is None:
            return None
        if not self._record_matches(job, payload):
            # The stored record is readable but is not this job's result
            # (index drift, hand-edited store, fingerprint collision in a
            # foreign tool): recompute rather than return a wrong frame.
            logger.warning(
                "store record %s does not match its job (kind=%r model=%r); "
                "recomputing", fingerprint[:16], job.kind, job.model_label)
            self._reclassify_hit_as_miss()
            return None
        try:
            return JobRecord.from_dict(payload, index=job.index)
        except (KeyError, TypeError, ValueError):
            logger.warning("store record %s is malformed; recomputing",
                           fingerprint[:16], exc_info=True)
            self._reclassify_hit_as_miss()
            return None

    def _reclassify_hit_as_miss(self) -> None:
        """The get() above counted a hit, but the record failed job-level
        validation and the job will execute: keep hits == jobs actually
        served from cache."""
        self.store.counters.add(hits=-1, misses=1)

    @staticmethod
    def _record_matches(job: Job, payload) -> bool:
        if not isinstance(payload, dict):
            return False
        if payload.get("kind") != job.kind:
            return False
        if not isinstance(payload.get("metrics"), dict):
            return False
        if job.kind in ("trace", "cpu", "smt"):
            return (payload.get("model") == job.model_label
                    and payload.get("workload") == job.workload_name)
        if job.kind == "attack":
            return (payload.get("model") == job.model_label
                    and payload.get("workload") == job.param("attack"))
        return True

    def _write_back(self, fingerprint: str, record: JobRecord) -> None:
        payload = {key: value for key, value in record.to_dict().items()
                   if key != "index"}  # position is the grid's, not the result's
        try:
            self.store.put(JOB_NAMESPACE, fingerprint, payload)
        except (OSError, TypeError, ValueError):
            logger.warning("store write failed for %s; result not cached",
                           fingerprint[:16], exc_info=True)

    # ---------------------------------------------------------------- traces

    @staticmethod
    def _prewarm_traces(jobs: Sequence[Job]) -> int:
        """Generate each distinct trace once in the parent before forking.

        Returns the total branch volume the jobs will replay (every job
        counts its full trace length, warm-up included), which the bench
        command reports as throughput.
        """
        branches = 0
        for job in jobs:
            if job.kind not in ("trace", "cpu", "smt") or job.workload is None:
                continue
            names = job.workload if isinstance(job.workload, tuple) else (job.workload,)
            for name in names:
                trace_for(name, job.branch_count, job.trace_seed)
                branches += job.branch_count
        return branches
