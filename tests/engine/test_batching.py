"""Tests for batched pool execution, the per-run pool lifecycle, and the
bounded LRU trace cache."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.engine import (
    EngineRunner,
    ExperimentScale,
    SimulationGrid,
    TraceCache,
    job_batches,
    trace_cache_stats,
    trace_for,
)

_SCALE = ExperimentScale(branch_count=1_200, warmup_branches=100, seed=13)


def _grid(models=("baseline", "ST_SKLCond"), workloads=("505.mcf", "541.leela")):
    return SimulationGrid(kind="trace", models=models, workloads=workloads,
                          scale=_SCALE)


class TestJobBatches:
    def test_batches_cover_jobs_in_order(self):
        jobs = _grid().jobs()
        batches = job_batches(jobs, workers=2)
        flattened = [job for batch in batches for job in batch]
        assert flattened == jobs
        assert all(batches)

    def test_chunk_sizing(self):
        jobs = list(range(100))
        batches = job_batches(jobs, workers=4)
        # 100 jobs over 16 slots -> chunks of 7.
        assert max(len(batch) for batch in batches) == 7
        assert job_batches(jobs, workers=200) and all(
            len(batch) == 1 for batch in job_batches(jobs, workers=200))
        assert job_batches([], workers=4) == []


class TestExecutorReuse:
    """One runner reused across runs: every parallel run forks its own pool,
    so later runs see the traces and models of their own moment."""

    def test_progress_counts_every_job(self):
        seen = []
        grid = _grid()
        runner = EngineRunner(workers=2)
        runner.run(grid, progress=lambda done, total, record:
                   seen.append((done, total)))
        total = len(grid.jobs())
        assert [done for done, _ in seen] == list(range(1, total + 1))
        assert all(t == total for _, t in seen)

    def test_later_run_sees_new_traces_and_late_models(self):
        from repro.bpu.protections import make_unprotected_baseline
        from repro.engine.registry import _MODELS, register_model

        name = "late-registered-baseline"
        runner = EngineRunner(workers=2)
        runner.run(_grid(workloads=("505.mcf",)))  # forks before registration
        register_model(name, lambda seed=0: make_unprotected_baseline())
        try:
            # A seed no other test uses: the trace is generated after the
            # first run's workers forked.
            late = SimulationGrid(
                kind="trace", models=(name, "ST_SKLCond"),
                workloads=("519.lbm",),
                scale=ExperimentScale(branch_count=1_100, warmup_branches=100,
                                      seed=7_177))
            parallel = runner.run(late)
            serial = EngineRunner(workers=1).run(late)
        finally:
            _MODELS.pop(name, None)
        assert parallel.to_json() == serial.to_json()
        assert parallel.record(name, "519.lbm").metrics["oae_accuracy"] > 0

    def test_smt_grid_matches_serial(self):
        grid = SimulationGrid(
            kind="smt", models=("baseline", "ST_SKLCond"),
            workloads=(("505.mcf", "541.leela"),), scale=_SCALE)
        parallel = EngineRunner(workers=2).run(grid)
        serial = EngineRunner(workers=1).run(grid)
        assert parallel.to_json() == serial.to_json()

    def test_two_parallel_runs_leak_nothing_at_exit(self):
        # Each run on a reused runner forks its own pool; the interpreter
        # must exit cleanly with no resource_tracker complaints.
        script = textwrap.dedent("""
            from repro.engine import EngineRunner, ExperimentScale, SimulationGrid

            scale = ExperimentScale(branch_count=600, warmup_branches=50, seed=5)
            runner = EngineRunner(workers=2)
            for workload in ("505.mcf", "519.lbm"):
                runner.run(SimulationGrid(
                    kind="trace", models=("baseline", "conservative"),
                    workloads=(workload,), scale=scale))
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        assert "resource_tracker" not in completed.stderr


class TestPoolLifecycle:
    """The pool lives exactly as long as one run's iterator."""

    WORKLOADS = ("505.mcf", "541.leela", "519.lbm")

    def test_completed_run_leaves_no_children(self):
        alive = []
        grid = _grid(workloads=self.WORKLOADS)
        EngineRunner(workers=2).run(grid, progress=lambda *_: alive.append(
            len(multiprocessing.active_children())))
        assert max(alive) > 0  # the run did fork workers
        assert multiprocessing.active_children() == []

    def test_abort_mid_run_leaves_no_children(self):
        calls = []

        def abort_check():
            calls.append(None)
            if len(calls) > 1:  # the first check precedes dispatch
                raise RuntimeError("deadline exceeded")

        jobs = _grid(workloads=self.WORKLOADS).jobs()
        with pytest.raises(RuntimeError, match="deadline"):
            EngineRunner(workers=2).run_jobs(jobs, abort_check=abort_check)
        assert len(calls) == 2
        assert multiprocessing.active_children() == []

    def test_closing_the_iterator_early_leaves_no_children(self):
        jobs = _grid(workloads=self.WORKLOADS).jobs()
        records = EngineRunner(workers=2).iter_records(jobs)
        first = next(records)
        assert first.index == 0
        assert multiprocessing.active_children()
        records.close()
        assert multiprocessing.active_children() == []


class TestTraceCacheLRU:
    def test_capacity_bound_and_counters(self):
        cache = TraceCache(capacity=2)
        cache.put(("a", 1, 0), "trace-a")
        cache.put(("b", 1, 0), "trace-b")
        assert cache.get(("a", 1, 0)) == "trace-a"   # refreshes a
        cache.put(("c", 1, 0), "trace-c")            # evicts b (LRU)
        assert cache.get(("b", 1, 0)) is None
        assert cache.get(("a", 1, 0)) == "trace-a"
        assert cache.get(("c", 1, 0)) == "trace-c"
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["capacity"] == 2
        assert stats["evictions"] == 1
        assert stats["hits"] == 3
        assert stats["misses"] == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceCache(capacity=0)

    def test_concurrent_get_and_put(self):
        # `repro serve` runs two job-worker threads through one cache: a put
        # that evicts a key between a get's lookup and its LRU refresh must
        # not raise, and no counter update may be lost.
        cache = TraceCache(capacity=2)
        keys = [("w", 1, seed) for seed in range(4)]
        errors: list[Exception] = []
        gets = [0, 0]
        done = threading.Event()

        def getter(slot):
            try:
                while not done.is_set():
                    for key in keys:
                        cache.get(key)
                    gets[slot] += len(keys)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)
                done.set()

        def putter():
            try:
                deadline = time.monotonic() + 1.0
                while not done.is_set() and time.monotonic() < deadline:
                    for key in keys:
                        cache.put(key, "trace")
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=getter, args=(0,)),
                       threading.Thread(target=getter, args=(1,)),
                       threading.Thread(target=putter)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == sum(gets)
        assert stats["size"] <= 2

    def test_module_cache_reports_stats(self):
        trace_for("505.mcf", 600, 3)
        before = trace_cache_stats()
        trace_for("505.mcf", 600, 3)  # hit
        after = trace_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["capacity"] >= 1
