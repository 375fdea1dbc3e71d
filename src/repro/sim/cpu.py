"""Cycle-approximate out-of-order CPU model (the gem5 substitute, Section VII-B2).

The paper measures IPC with gem5's DerivO3CPU.  What its Figures 4–6 actually
report is *relative* IPC — protected versus unprotected designs whose only
difference is branch-prediction behaviour — so the performance model here
focuses on reproducing exactly that coupling:

* committed instructions are charged at the core's ideal IPC,
* every branch misprediction inserts a full pipeline squash penalty,
* every BTB miss on a taken branch inserts a shorter fetch-redirect bubble,

with the parameters taken from Table IV (:class:`~repro.sim.config.CPUConfig`).
The branch outcomes come from the same functional predictor models used by the
trace simulator, so any accuracy delta caused by a protection scheme flows
directly into an IPC delta, which is the effect the paper quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpu.common import BranchPredictorModel, PredictorStats
from repro.sim.config import CPUConfig, SimulationLengths, TABLE_IV_CONFIG
from repro.sim.metrics import PerformanceReport
from repro.trace.branch import Trace
from repro.sim.bpu_sim import TraceSimulator


@dataclass(slots=True)
class CPUSimulationResult:
    """Performance and accuracy outcome of one single-thread CPU simulation."""

    performance: PerformanceReport
    stats: PredictorStats


class CycleApproximateCPU:
    """Single-thread out-of-order performance model driven by a predictor model."""

    def __init__(
        self,
        config: CPUConfig = TABLE_IV_CONFIG,
        lengths: SimulationLengths | None = None,
    ):
        self.config = config
        self.lengths = lengths if lengths is not None else SimulationLengths()
        self._trace_simulator = TraceSimulator(warmup_branches=self.lengths.warmup_branches)

    def run(self, model: BranchPredictorModel, trace: Trace) -> CPUSimulationResult:
        """Simulate ``trace`` on a core whose front end uses ``model``."""
        stats = self._trace_simulator.run(model, trace).stats
        performance = performance_report(model.name, trace.name, stats,
                                         self.config, self.config.ideal_ipc)
        return CPUSimulationResult(performance=performance, stats=stats)


def performance_report(model_name: str, workload: str, stats: PredictorStats,
                       config: CPUConfig, ideal_ipc: float) -> PerformanceReport:
    """Cycle accounting of one thread's branch outcomes.

    The instructions between branches issue at ``ideal_ipc`` (the core's, or
    an SMT thread's share of it); each effective misprediction adds the full
    squash penalty; each taken branch that missed in the BTB adds the
    fetch-redirect bubble.
    """
    instructions = stats.branches * config.instructions_per_branch
    base_cycles = instructions / ideal_ipc
    squash_cycles = stats.mispredictions * config.misprediction_penalty_cycles
    redirect_cycles = (
        max(0, stats.target_predictions - stats.target_correct - stats.mispredictions)
        * config.btb_miss_penalty_cycles
    )
    return PerformanceReport(
        model=model_name,
        workload=workload,
        instructions=instructions,
        cycles=base_cycles + squash_cycles + redirect_cycles,
        direction_accuracy=stats.direction_accuracy,
        target_accuracy=stats.target_accuracy,
    )


def run_single_workload(
    model: BranchPredictorModel,
    trace: Trace,
    config: CPUConfig = TABLE_IV_CONFIG,
    lengths: SimulationLengths | None = None,
) -> CPUSimulationResult:
    """Convenience wrapper used by the experiment drivers and benchmarks."""
    return CycleApproximateCPU(config, lengths).run(model, trace)
