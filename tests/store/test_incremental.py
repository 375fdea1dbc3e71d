"""Tests for incremental grid execution through the result store: warm runs
execute zero jobs, overlapping grids run only the missing half, merged frames
stay byte-identical, and bad store content degrades to a recompute."""

import json

import pytest

from repro.engine import (
    EngineRunner,
    ExperimentScale,
    SimulationGrid,
    load_scenario,
    run_scenario,
    scenario_envelope,
)
from repro.engine.grid import Job
from repro.store import (
    DiskStore,
    JOB_NAMESPACE,
    MemoryStore,
    job_fingerprint,
)

_SCALE = ExperimentScale(branch_count=1_200, warmup_branches=100, seed=13)
_MODELS = ("baseline", "ST_SKLCond")


def _grid(workloads=("505.mcf", "519.lbm")):
    return SimulationGrid(kind="trace", models=_MODELS, workloads=workloads,
                          scale=_SCALE)


class TestIncrementalExecution:
    def test_cold_run_executes_everything_and_writes_back(self):
        store = MemoryStore()
        runner = EngineRunner(store=store)
        frame = runner.run(_grid())
        assert (runner.last_total, runner.last_cached, runner.last_executed) \
            == (4, 0, 4)
        assert store.counters.writes == 4
        assert len(frame) == 4

    def test_warm_run_executes_zero_jobs(self):
        store = MemoryStore()
        EngineRunner(store=store).run(_grid())
        runner = EngineRunner(store=store)
        frame = runner.run(_grid())
        assert (runner.last_cached, runner.last_executed) == (4, 0)
        assert frame.to_json() == EngineRunner().run(_grid()).to_json()

    def test_half_overlapping_grid_runs_only_the_missing_half(self):
        store = MemoryStore()
        EngineRunner(store=store).run(_grid(workloads=("505.mcf",)))
        runner = EngineRunner(store=store)
        frame = runner.run(_grid(workloads=("505.mcf", "519.lbm")))
        assert (runner.last_total, runner.last_cached, runner.last_executed) \
            == (4, 2, 2)
        assert frame.to_json() == EngineRunner().run(_grid()).to_json()

    def test_cached_records_report_zero_seconds(self):
        store = MemoryStore()
        EngineRunner(store=store).run(_grid())
        runner = EngineRunner(store=store)
        records = list(runner.iter_records(_grid().jobs()))
        assert all(record.seconds == 0.0 for record in records)

    def test_progress_counts_cached_jobs(self):
        store = MemoryStore()
        EngineRunner(store=store).run(_grid())
        seen = []
        runner = EngineRunner(store=store)
        runner.run_jobs(_grid().jobs(),
                        progress=lambda done, total, record: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_parallel_warm_and_partial_runs_match_serial(self):
        store = MemoryStore()
        EngineRunner(store=store).run(_grid(workloads=("505.mcf",)))
        runner = EngineRunner(workers=2, store=store)
        frame = runner.run(_grid())
        assert (runner.last_cached, runner.last_executed) == (2, 2)
        warm = runner.run(_grid())
        assert (runner.last_cached, runner.last_executed) == (4, 0)
        reference = EngineRunner().run(_grid())
        assert frame.to_json() == warm.to_json() == reference.to_json()

    def test_cumulative_instrumentation(self):
        store = MemoryStore()
        runner = EngineRunner(store=store)
        runner.run(_grid())
        runner.run(_grid())
        assert runner.total_executed == 4
        assert runner.total_cached == 4

    def test_without_store_nothing_is_cached(self):
        runner = EngineRunner()
        runner.run(_grid(workloads=("505.mcf",)))
        assert (runner.last_cached, runner.last_executed) == (0, 2)

    def test_table_jobs_bypass_the_store(self):
        store = MemoryStore()
        job = Job(index=0, kind="table", params=(("table", "thresholds"),))
        runner = EngineRunner(store=store)
        runner.run_jobs([job])
        assert runner.last_executed == 1
        assert store.counters.writes == 0


class TestStoreDegradation:
    def test_mismatched_record_recomputes(self):
        # A record that is readable but describes different work (kind/model
        # drift) must never be merged into the frame.
        store = MemoryStore()
        grid = _grid(workloads=("505.mcf",))
        fingerprint = job_fingerprint(grid.jobs()[0])
        store.put(JOB_NAMESPACE, fingerprint,
                  {"kind": "cpu", "model": "impostor", "workload": "505.mcf",
                   "metrics": {"ipc": 1.0}})
        runner = EngineRunner(store=store)
        frame = runner.run(grid)
        assert runner.last_executed == 2
        assert frame.to_json() == EngineRunner().run(grid).to_json()

    def test_malformed_record_recomputes(self):
        store = MemoryStore()
        grid = _grid(workloads=("505.mcf",))
        fingerprint = job_fingerprint(grid.jobs()[0])
        store.put(JOB_NAMESPACE, fingerprint, {"not": "a record"})
        runner = EngineRunner(store=store)
        frame = runner.run(grid)
        assert runner.last_executed == 2
        assert frame.to_json() == EngineRunner().run(grid).to_json()

    def test_truncated_disk_record_recomputes(self, tmp_path):
        store = DiskStore(str(tmp_path / "store"))
        grid = _grid(workloads=("505.mcf",))
        EngineRunner(store=store).run(grid)
        # Truncate one record on disk; the warm run recomputes exactly it.
        fingerprint = job_fingerprint(grid.jobs()[0])
        path = store.object_path(JOB_NAMESPACE, fingerprint)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 3])
        runner = EngineRunner(store=store)
        frame = runner.run(grid)
        assert (runner.last_cached, runner.last_executed) == (1, 1)
        assert store.counters.corrupt == 1
        assert frame.to_json() == EngineRunner().run(grid).to_json()


class TestScenarioEnvelopes:
    def test_warm_envelope_is_byte_identical(self, tmp_path):
        scenario = load_scenario("examples/scenario_quick.json")
        store = DiskStore(str(tmp_path / "store"))
        cold = scenario_envelope(run_scenario(scenario, store=store))
        warm = scenario_envelope(run_scenario(scenario, store=store))
        reference = scenario_envelope(run_scenario(scenario))
        dump = lambda payload: json.dumps(payload, indent=2, sort_keys=True)
        assert dump(cold) == dump(warm) == dump(reference)

    def test_disk_store_survives_reopening(self, tmp_path):
        scenario = load_scenario("examples/scenario_quick.json")
        root = str(tmp_path / "store")
        run_scenario(scenario, store=DiskStore(root))
        reopened = DiskStore(root)
        runner = EngineRunner(store=reopened)
        runner.run_jobs(scenario.jobs())
        assert runner.last_executed == 0
