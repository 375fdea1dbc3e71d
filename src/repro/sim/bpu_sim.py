"""Trace-driven BPU simulator (the paper's Intel-PT-based simulator, Section VII-B1).

The simulator replays a :class:`~repro.trace.branch.Trace` — branch records
interleaved with context switches, mode switches and interrupts — through one
or more predictor models and reports the overall-accuracy-effective (OAE)
metric per model.  OS events are forwarded to the models' hooks, which is
where flushing-based protections pay their cost and where STBPU reloads
per-process tokens.

Replaying is the repository's hot path (a paper-scale grid pushes hundreds of
millions of branch records through models), so :meth:`TraceSimulator.run`
dispatches on the process-wide backend switch (:mod:`repro.sim.fastpath`):
the default ``vector`` backend replays the trace's ndarray view with the
array kernels in :mod:`repro.sim.vector`, and the per-item ``reference``
loop — the specification the kernels are checked against — runs everything
else: the ``reference`` backend, and every model without a kernel.  The
parity tests pin both backends to byte-identical result frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpu.common import BranchPredictorModel, PredictorStats
from repro.sim import fastpath
from repro.sim.metrics import AccuracyReport
from repro.trace.branch import EventKind, PrivilegeMode, Trace, TraceEvent


@dataclass(slots=True)
class SimulationResult:
    """Stats plus the final report for one (model, trace) simulation."""

    report: AccuracyReport
    stats: PredictorStats


def dispatch_event(model: BranchPredictorModel, event: TraceEvent) -> None:
    """Forward one OS event to the matching model hook."""
    kind = event.kind
    if kind is EventKind.CONTEXT_SWITCH:
        model.on_context_switch(event.context_id)
    elif kind is EventKind.MODE_SWITCH_ENTER_KERNEL:
        model.on_mode_switch(PrivilegeMode.KERNEL, event.context_id)
    elif kind is EventKind.MODE_SWITCH_EXIT_KERNEL:
        model.on_mode_switch(PrivilegeMode.USER, event.context_id)
    elif kind is EventKind.INTERRUPT:
        model.on_interrupt(event.context_id)


class TraceSimulator:
    """Replays traces through predictor models and collects accuracy reports."""

    def __init__(self, warmup_branches: int = 0):
        self.warmup_branches = warmup_branches

    def _replay_items(self, model: BranchPredictorModel, trace: Trace,
                      stats: PredictorStats) -> None:
        """Reference per-item replay loop: the specification of a replay."""
        seen_branches = 0
        warmup = self.warmup_branches
        for item in trace:
            if isinstance(item, TraceEvent):
                dispatch_event(model, item)
                continue
            result = model.access_with_events(item)
            seen_branches += 1
            if seen_branches > warmup:
                stats.record(result, item)

    def run(self, model: BranchPredictorModel, trace: Trace) -> SimulationResult:
        """Replay ``trace`` through ``model`` and return its accuracy report.

        The first ``warmup_branches`` branch records train the predictor but
        are excluded from the reported statistics (mirroring the paper's gem5
        warm-up phase).

        ``run`` does **not** reset the model: predictor models are stateful
        and the caller owns their lifecycle, so replaying a second trace
        through the same instance continues from the trained state.  Use
        :meth:`compare` (or call ``model.reset()`` yourself) for cold replays.
        """
        stats = PredictorStats()
        replayed = False
        if fastpath.vector_enabled():
            from repro.sim import vector

            replayed = vector.try_replay_trace(
                model, trace, self.warmup_branches, stats)
        if not replayed:
            self._replay_items(model, trace, stats)

        protection = model.protection_stats()
        rerandomizations = int(protection.get("rerandomizations", 0))
        flushes = int(protection.get("flushes", 0))
        stats.st_rerandomizations = rerandomizations
        stats.flushes = flushes
        report = AccuracyReport.from_stats(
            model=model.name,
            workload=trace.name,
            stats=stats,
            rerandomizations=rerandomizations,
            flushes=flushes,
        )
        return SimulationResult(report=report, stats=stats)

    def compare(
        self, models: list[BranchPredictorModel], trace: Trace
    ) -> dict[str, SimulationResult]:
        """Run several models over the same trace, each from a cold start.

        Every model is ``reset()`` before its replay so that previously
        accumulated training state (models are stateful — see
        :class:`~repro.bpu.common.BranchPredictorModel`) cannot leak into the
        comparison.
        """
        results: dict[str, SimulationResult] = {}
        for model in models:
            model.reset()
            results[model.name] = self.run(model, trace)
        return results
