"""Tests for batched pool execution, executor reuse, shared-memory trace
shipping, and the bounded LRU trace cache."""

import multiprocessing

import pytest

from repro.engine import (
    EngineRunner,
    ExperimentScale,
    SimulationGrid,
    TraceCache,
    job_batches,
    trace_cache_stats,
    trace_for,
)
from repro.engine.sharing import SharedTrace, TraceShipment, attach_shipment
from repro.engine.workloads import install_trace

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
        batches = job_batches(jobs, workers=4, parts_per_worker=4)
        # 100 jobs over 16 slots -> chunks of 7.
        assert max(len(batch) for batch in batches) == 7
        assert job_batches(jobs, workers=200) and all(
            len(batch) == 1 for batch in job_batches(jobs, workers=200))
        assert job_batches([], workers=4) == []


class TestExecutorReuse:
    def test_pool_persists_across_runs(self):
        grid = _grid()
        with EngineRunner(workers=2) as runner:
            first = runner.run(grid)
            pool = runner._pool
            assert pool is not None
            second = runner.run(grid)
            assert runner._pool is pool  # same executor, not rebuilt
        assert runner._pool is None  # close() tears it down
        assert first.to_json() == second.to_json()

    def test_progress_counts_every_job(self):
        seen = []
        grid = _grid()
        with EngineRunner(workers=2) as runner:
            runner.run(grid, progress=lambda done, total, record:
                       seen.append((done, total)))
        total = len(grid.jobs())
        assert [done for done, _ in seen] == list(range(1, total + 1))
        assert all(t == total for _, t in seen)


class TestSharedMemoryShipping:
    def test_spawn_run_matches_serial(self):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        grid = _grid()
        serial = EngineRunner(workers=1).run(grid)
        with EngineRunner(workers=2, start_method="spawn") as runner:
            spawned = runner.run(grid)
            assert runner._shipments  # traces went through shared memory
        assert serial.to_json() == spawned.to_json()

    def test_spawn_smt_jobs_materialise_shared_items(self):
        # SMT merging iterates the traces themselves; a SharedTrace must
        # materialise its lazy item stream for it (regression: reading the
        # raw ``items`` list of a shipped trace saw zero branches).
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        grid = SimulationGrid(
            kind="smt", models=("baseline", "conservative"),
            workloads=(("505.mcf", "541.leela"),), scale=_SCALE)
        serial = EngineRunner(workers=1).run(grid)
        with EngineRunner(workers=2, start_method="spawn") as runner:
            spawned = runner.run(grid)
        assert serial.to_json() == spawned.to_json()

    def test_reused_fork_pool_sees_traces_of_later_runs(self):
        # The second run's traces postdate the workers' fork; they must ship
        # through shared memory instead of silently regenerating per worker.
        first = _grid(workloads=("505.mcf",))
        second = SimulationGrid(kind="trace", models=("baseline", "conservative"),
                                workloads=("519.lbm",), scale=_SCALE)
        serial = EngineRunner(workers=1).run(second)
        with EngineRunner(workers=2) as runner:
            runner.run(first)
            assert not runner._shipments
            reused = runner.run(second)
            assert runner._shipments  # new traces were shipped, not re-generated
        assert serial.to_json() == reused.to_json()

    def test_models_registered_between_runs_reach_forked_workers(self):
        from repro.bpu.protections import make_unprotected_baseline
        from repro.engine.registry import _MODELS, register_model

        name = "late-registered-baseline"
        grid = _grid(models=("baseline",), workloads=("505.mcf",))
        late = SimulationGrid(kind="trace", models=(name,),
                              workloads=("505.mcf",), scale=_SCALE)
        with EngineRunner(workers=2) as runner:
            runner.run(grid)  # workers fork here, before the registration
            register_model(name, lambda seed=0: make_unprotected_baseline())
            try:
                frame = runner.run(late)  # pool must rebuild on the new generation
            finally:
                _MODELS.pop(name, None)
        assert frame.record(name, "505.mcf").metrics["oae_accuracy"] > 0

    def test_shipment_round_trip_reconstructs_trace(self):
        trace = trace_for("505.mcf", 1_000, 3)
        key = ("505.mcf", 1_000, 3)
        shipment = TraceShipment({key: trace})
        try:
            # Attach in-process (workers do the same via the batch payload).
            installed = attach_shipment(shipment.descriptor)
            assert installed == 1
            shared = trace_for(*key)
            assert isinstance(shared, SharedTrace)
            assert len(shared) == len(trace)
            assert shared.name == trace.name
            # Lazy materialisation rebuilds the identical item stream.
            assert list(shared) == list(trace)
            assert list(shared.branches()) == list(trace.branches())
            columns = shared.columns()
            reference = trace.columns()
            assert columns.segments == reference.segments
            assert columns.branches == reference.branches
            shared_arrays, arrays = columns.arrays(), reference.arrays()
            for name in ("ips", "targets", "takens", "types", "context_ids",
                         "kernel_modes"):
                assert (getattr(shared_arrays, name).tolist()
                        == getattr(arrays, name).tolist()), name
        finally:
            self._release(shipment, key, trace)  # restore for other tests

    def test_attach_is_idempotent_per_block(self):
        trace = trace_for("541.leela", 800, 3)
        key = ("541.leela", 800, 3)
        shipment = TraceShipment({key: trace})
        try:
            assert attach_shipment(shipment.descriptor) == 1
            assert attach_shipment(shipment.descriptor) == 0
        finally:
            self._release(shipment, key, trace)

    def test_evicted_shared_trace_rematerialises_from_block(self):
        # Shipped keys survive LRU eviction: the cache-miss resolver rebuilds
        # the SharedTrace from the mapped block instead of re-generating.
        from repro.engine.workloads import _TRACE_CACHE

        trace = trace_for("519.lbm", 700, 3)
        key = ("519.lbm", 700, 3)
        shipment = TraceShipment({key: trace})
        try:
            attach_shipment(shipment.descriptor)
            _TRACE_CACHE.clear()  # simulate eviction of every entry
            resolved = trace_for(*key)
            assert isinstance(resolved, SharedTrace)
            assert list(resolved) == list(trace)
        finally:
            self._release(shipment, key, trace)

    @staticmethod
    def _release(shipment, key, trace):
        from repro.engine.sharing import _ATTACHED, _SHARED_SPECS

        _SHARED_SPECS.pop(key, None)
        attached = _ATTACHED.pop(shipment.descriptor["block"], None)
        if attached is not None:
            attached.close()
        shipment.close()
        install_trace(key, trace)


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

    def test_module_cache_reports_stats(self):
        trace_for("505.mcf", 600, 3)
        before = trace_cache_stats()
        trace_for("505.mcf", 600, 3)  # hit
        after = trace_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["capacity"] >= 1
