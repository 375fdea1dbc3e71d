"""Differential tests: the vector fast path must be invisible in results.

The simulators keep two replay implementations — the default ``vector``
backend and the per-item ``reference`` loop, its specification.  These tests
force each in turn over the same grids/traces and require byte-identical
serialized output, which is the contract that lets the fast path evolve
freely.
"""

import dataclasses
import multiprocessing

import pytest

from repro.bpu.protections import make_unprotected_baseline
from repro.core.stbpu import make_stbpu_skl
from repro.engine import EngineRunner, ExperimentScale, SimulationGrid
from repro.sim import fastpath
from repro.sim.bpu_sim import TraceSimulator
from repro.sim.smt import SMTSimulator
from repro.trace.branch import (
    BranchRecord,
    BranchType,
    EventKind,
    Trace,
    TraceEvent,
)


def _mixed_jobs():
    """A small grid mixing every simulator-backed job kind."""
    scale = ExperimentScale(branch_count=1_500, warmup_branches=150, seed=13)
    grids = [
        SimulationGrid(kind="trace", models=("baseline", "ST_SKLCond"),
                       workloads=("505.mcf", "apache2_prefork_c128"), scale=scale),
        SimulationGrid(kind="cpu", models=("ucode_protection_2",),
                       workloads=("541.leela",), scale=scale),
        SimulationGrid(kind="smt", models=("conservative",),
                       workloads=(("505.mcf", "541.leela"),), scale=scale),
    ]
    jobs = []
    for grid in grids:
        jobs.extend(grid.jobs(start_index=len(jobs)))
    return jobs


class TestColumnarView:
    def test_columns_split_and_decode(self):
        trace = Trace(name="t")
        record = BranchRecord(ip=0x1000, target=0x2000, taken=True,
                              branch_type=BranchType.CONDITIONAL, context_id=4)
        trace.append(record)
        trace.append(TraceEvent(EventKind.CONTEXT_SWITCH, context_id=7))
        trace.append(dataclasses.replace(record, taken=False,
                                         branch_type=BranchType.RETURN))
        columns = trace.columns()
        assert columns.item_count == 3
        assert columns.branches == list(trace.branches())
        arrays = columns.arrays()
        assert arrays.ips.tolist() == [0x1000, 0x1000]
        assert arrays.targets.tolist() == [0x2000, 0x2000]
        assert arrays.takens.tolist() == [True, False]
        assert arrays.context_ids.tolist() == [4, 4]
        assert arrays.types.tolist() == [0, 5]
        assert [event.kind for _, _, event in columns.segments if event is not None] == [
            EventKind.CONTEXT_SWITCH
        ]
        # Segments tile the branch list in order.
        assert [(start, stop) for start, stop, _ in columns.segments] == [(0, 1), (1, 2)]

    def test_columns_cache_rebuilds_after_append(self):
        trace = Trace(name="t")
        trace.append(BranchRecord(ip=0x1000, target=0x2000, taken=True,
                                  branch_type=BranchType.DIRECT_JUMP))
        first = trace.columns()
        assert trace.columns() is first  # cached
        trace.append(TraceEvent(EventKind.INTERRUPT, context_id=1))
        rebuilt = trace.columns()
        assert rebuilt is not first
        assert rebuilt.item_count == 2


class TestReplayParity:
    def test_trace_simulator_paths_match(self, small_apache_trace):
        results = {}
        for backend in fastpath.BACKENDS:
            with fastpath.forced_backend(backend):
                model = make_stbpu_skl(seed=5)
                simulator = TraceSimulator(warmup_branches=300)
                results[backend] = simulator.run(model, small_apache_trace)
        assert results["vector"].stats == results["reference"].stats
        assert results["vector"].report == results["reference"].report

    def test_smt_simulator_paths_match(self, small_mcf_trace, small_apache_trace):
        stats = {}
        for backend in fastpath.BACKENDS:
            with fastpath.forced_backend(backend):
                model = make_unprotected_baseline()
                result = SMTSimulator().run(model, small_mcf_trace, small_apache_trace)
                stats[backend] = (result.thread_stats, result.protection)
        assert stats["vector"] == stats["reference"]

    def test_warmup_boundary_straddles_event_segments(self):
        # Warm-up ends mid-segment and an event splits the branch stream:
        # both paths must exclude exactly the same records.
        trace = Trace(name="edge")
        for index in range(10):
            trace.append(BranchRecord(ip=0x4000 + index * 64, target=0x9000,
                                      taken=True, branch_type=BranchType.DIRECT_JUMP))
            if index == 4:
                trace.append(TraceEvent(EventKind.CONTEXT_SWITCH, context_id=1))
        for warmup in (0, 3, 5, 7, 10, 12):
            stats = {}
            for backend in fastpath.BACKENDS:
                with fastpath.forced_backend(backend):
                    model = make_unprotected_baseline()
                    stats[backend] = TraceSimulator(warmup_branches=warmup).run(
                        model, trace).stats
            assert stats["vector"] == stats["reference"], f"warmup={warmup}"


class TestEngineParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_grid_json_identical_across_paths(self, workers):
        if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
            # The backend switch is a module global; only forked workers
            # inherit it, so on spawn-only platforms the reference-path run
            # would silently execute the vector backend and verify nothing.
            pytest.skip("parallel path toggling requires the fork start method")
        frames = {}
        for backend in fastpath.BACKENDS:
            with fastpath.forced_backend(backend):
                frames[backend] = EngineRunner(workers=workers).run_jobs(_mixed_jobs())
        assert frames["vector"].to_json() == frames["reference"].to_json()
