"""SMT (two hardware threads) performance simulation (Section VII-B2, Figure 5).

Two workloads share one physical core and therefore one BPU.  The shared-BPU
effect is modelled by interleaving the two traces round-robin through a single
predictor model (contexts keep their identity, so STBPU keeps per-thread
tokens and flushing/partitioning schemes see cross-thread interference), while
the cycle accounting splits the core's ideal throughput between the threads
and charges each thread its own misprediction penalties.  Throughput is
summarised with the harmonic mean of the per-thread IPCs, the metric the
paper adopts for equally weighted workloads.

Like :class:`~repro.sim.bpu_sim.TraceSimulator`, the co-run replay follows
the process-wide backend switch.  The ``vector`` backend merges the two
traces' cached arrays directly into columns
(:func:`~repro.trace.branch.merge_columns_round_robin`) and replays them with
the model's array kernel — every registry model has one, STBPU included: its
kernel reads each branch's token from a per-context table, so the quantum's
context swaps do not split the replay.  The per-item ``reference`` loop —
the specification — replays the record-by-record merge of
:func:`~repro.trace.branch.merge_round_robin`, which is built only for that
backend or for a model without a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bpu.common import BranchPredictorModel, PredictorStats
from repro.sim import fastpath
from repro.sim.bpu_sim import dispatch_event
from repro.sim.config import CPUConfig, SimulationLengths, TABLE_IV_CONFIG
from repro.sim.cpu import performance_report
from repro.sim.metrics import PerformanceReport, harmonic_mean
from repro.trace.branch import (
    BranchRecord,
    Trace,
    TraceEvent,
    merge_columns_round_robin,
    merge_round_robin,
)


@dataclass(slots=True)
class SMTSimulationResult:
    """Per-thread and aggregate outcome of one SMT co-run."""

    thread_performance: tuple[PerformanceReport, PerformanceReport]
    thread_stats: tuple[PredictorStats, PredictorStats]
    #: Protection-mechanism counters reported by the model after the co-run
    #: (see :meth:`~repro.bpu.common.BranchPredictorModel.protection_stats`).
    protection: dict[str, int] = field(default_factory=dict)

    @property
    def hmean_ipc(self) -> float:
        return harmonic_mean([report.ipc for report in self.thread_performance])

    @property
    def combined_direction_accuracy(self) -> float:
        merged = self.thread_stats[0].merged_with(self.thread_stats[1])
        return merged.direction_accuracy

    @property
    def combined_target_accuracy(self) -> float:
        merged = self.thread_stats[0].merged_with(self.thread_stats[1])
        return merged.target_accuracy


class SMTSimulator:
    """Runs two traces through one shared predictor model in SMT fashion."""

    def __init__(
        self,
        config: CPUConfig = TABLE_IV_CONFIG,
        lengths: SimulationLengths | None = None,
        quantum: int = 16,
    ):
        self.config = config
        self.lengths = lengths if lengths is not None else SimulationLengths()
        self.quantum = quantum

    def _coreplay_items(
        self,
        model: BranchPredictorModel,
        merged: Trace,
        thread_offset: int,
        per_thread_stats: tuple[PredictorStats, PredictorStats],
    ) -> None:
        """Reference per-item co-run loop: the specification of a co-run."""
        warmup = self.lengths.warmup_branches
        seen = [0, 0]
        for item in merged:
            if isinstance(item, TraceEvent):
                dispatch_event(model, item)
                continue
            thread = 0 if item.context_id < thread_offset else 1
            result = model.access_with_events(item)
            seen[thread] += 1
            if seen[thread] > warmup:
                per_thread_stats[thread].record(result, item)

    def run(
        self,
        model: BranchPredictorModel,
        trace_a: Trace,
        trace_b: Trace,
        thread_offset: int = 1000,
    ) -> SMTSimulationResult:
        """Co-run ``trace_a`` and ``trace_b`` on one shared BPU.

        Thread B's context identifiers are offset so the two workloads remain
        distinct software entities even when the input traces reuse ids.
        """
        name = f"{trace_a.name}+{trace_b.name}"
        per_thread_stats = (PredictorStats(), PredictorStats())
        replayed = False
        if fastpath.vector_enabled():
            from repro.sim import vector

            merged = merge_columns_round_robin(
                trace_a, trace_b, quantum=self.quantum,
                context_offset=thread_offset, name=name)
            replayed = vector.try_replay_smt(
                model, merged, thread_offset, self.lengths.warmup_branches,
                per_thread_stats)
        if not replayed:
            remapped_b = Trace(name=trace_b.name)
            for item in trace_b:
                if isinstance(item, BranchRecord):
                    remapped_b.append(
                        item.with_context(item.context_id + thread_offset))
                else:
                    remapped_b.append(
                        TraceEvent(item.kind, item.context_id + thread_offset))
            merged_items = merge_round_robin(
                [trace_a, remapped_b], quantum=self.quantum, name=name)
            self._coreplay_items(model, merged_items, thread_offset,
                                 per_thread_stats)

        # Each SMT thread gets roughly half the core's ideal throughput.
        ideal_ipc = self.config.ideal_ipc / 2.0
        reports = tuple(
            performance_report(model.name, trace.name, stats, self.config,
                               ideal_ipc)
            for trace, stats in zip((trace_a, trace_b), per_thread_stats)
        )
        return SMTSimulationResult(
            thread_performance=reports,
            thread_stats=per_thread_stats,
            protection=model.protection_stats(),
        )
