"""Figure 3 — overall branch prediction accuracy of the five protection models.

For every workload trace (23 SPEC CPU 2017 + 12 application scenarios) the
five models — unprotected baseline, µcode protection 1 and 2, the
conservative structural redesign, and STBPU — replay the same trace through
the trace-driven simulator; the reported series is each model's OAE accuracy
normalized by the unprotected baseline.  The paper's averages are baseline
1.00, STBPU 0.99, conservative 0.88, µcode protection 2 0.82, µcode
protection 1 0.77.

The experiment is declared as a :class:`~repro.engine.grid.SimulationGrid`
over (model registry names × workloads) and executed by the engine runner,
optionally on several worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import (
    EngineRunner,
    ExperimentScale,
    ExperimentSpec,
    Option,
    ResultFrame,
    SimulationGrid,
    build_scale,
    register_experiment,
    resolve_workloads,
)
from repro.experiments.common import mean

#: The five protection models compared in Figure 3, by registry name.
FIGURE3_MODELS: tuple[str, ...] = (
    "baseline",
    "ucode_protection_1",
    "ucode_protection_2",
    "conservative",
    "ST_SKLCond",
)


@dataclass(slots=True)
class Figure3Row:
    """One workload's normalized OAE accuracy for every model."""

    workload: str
    baseline_oae: float
    normalized: dict[str, float] = field(default_factory=dict)


@dataclass(slots=True)
class Figure3Result:
    """All rows plus per-model averages (the horizontal lines in the figure)."""

    rows: list[Figure3Row]
    model_order: list[str]

    def average(self, model: str) -> float:
        return mean([row.normalized[model] for row in self.rows if model in row.normalized])

    def averages(self) -> dict[str, float]:
        return {model: self.average(model) for model in self.model_order}


def figure3_grid(
    scale: ExperimentScale | None = None,
    workloads: list[str] | None = None,
) -> SimulationGrid:
    """The declarative (models × workloads) grid behind Figure 3."""
    scale = scale if scale is not None else ExperimentScale()
    return SimulationGrid(
        kind="trace",
        models=list(FIGURE3_MODELS),
        workloads=resolve_workloads(workloads),
        scale=scale,
    )


def collect_figure3(frame: ResultFrame) -> Figure3Result:
    """Reduce an executed Figure 3 frame to the paper's data series."""
    baseline_name = FIGURE3_MODELS[0]
    normalized = frame.normalized("oae_accuracy", baseline_name)
    rows = [
        Figure3Row(
            workload=workload,
            baseline_oae=frame.metric(baseline_name, workload, "oae_accuracy"),
            normalized=normalized[workload],
        )
        for workload in frame.workloads()
    ]
    return Figure3Result(rows=rows, model_order=list(FIGURE3_MODELS))


def run_figure3(
    scale: ExperimentScale | None = None,
    workloads: list[str] | None = None,
    workers: int = 1,
) -> Figure3Result:
    """Regenerate the Figure 3 data series."""
    grid = figure3_grid(scale, workloads)
    return collect_figure3(EngineRunner(workers=workers).run(grid))


def format_figure3(result: Figure3Result) -> str:
    """Render the Figure 3 series as an aligned text table."""
    lines = []
    header = f"{'workload':28s}" + "".join(f"{name:>22s}" for name in result.model_order)
    lines.append(header)
    for row in result.rows:
        cells = "".join(f"{row.normalized[name]:22.3f}" for name in result.model_order)
        lines.append(f"{row.workload:28s}{cells}")
    lines.append("-" * len(header))
    averages = result.averages()
    cells = "".join(f"{averages[name]:22.3f}" for name in result.model_order)
    lines.append(f"{'average':28s}{cells}")
    return "\n".join(lines)


register_experiment(ExperimentSpec(
    name="figure3",
    description="OAE accuracy of the five protection models",
    kind="trace",
    uses_scale=True,
    default_seed=7,
    options=(
        Option("workloads", nargs="*",
               help="workload names or groups (spec, application, all)"),
    ),
    build_jobs=lambda params: figure3_grid(
        build_scale(params), params["workloads"] or None).jobs(),
    post_process=lambda frame, params: collect_figure3(frame),
    formatter=format_figure3,
))
