"""Figure 5 — SMT (workload pair) evaluation of the ST designs.

Pairs of SPEC workloads share one BPU in SMT mode; for every pair and every
predictor pair the experiment reports the reduction of direction/target
prediction rate and the harmonic-mean IPC of the ST design normalized to its
unprotected counterpart.  Paper averages: direction reduction 1.3–3.8%,
target reduction 0.4–3.7%, normalized Hmean IPC 0.951–1.009, with ST_SKLCond
suffering the most because it lacks a separate direction-misprediction
threshold register.

Declared as one engine grid of ``kind="smt"`` jobs over (both members of the
selected predictor pairs × SMT workload pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import (
    EngineRunner,
    ExperimentScale,
    ExperimentSpec,
    ResultFrame,
    SimulationGrid,
    build_scale,
    register_experiment,
)
from repro.experiments.common import mean
from repro.experiments.figure4 import PREDICTORS_OPTION, selected_pairs
from repro.sim.metrics import normalized, reduction
from repro.trace.workloads import GEM5_SMT_PAIRS


@dataclass(slots=True)
class Figure5Cell:
    """One (workload pair, predictor) measurement."""

    pair: str
    predictor: str
    direction_reduction: float
    target_reduction: float
    normalized_hmean_ipc: float


@dataclass(slots=True)
class Figure5Result:
    cells: list[Figure5Cell] = field(default_factory=list)

    def predictors(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.predictor not in seen:
                seen.append(cell.predictor)
        return seen

    def average_direction_reduction(self, predictor: str) -> float:
        return mean([c.direction_reduction for c in self.cells if c.predictor == predictor])

    def average_target_reduction(self, predictor: str) -> float:
        return mean([c.target_reduction for c in self.cells if c.predictor == predictor])

    def average_normalized_hmean_ipc(self, predictor: str) -> float:
        return mean([c.normalized_hmean_ipc for c in self.cells if c.predictor == predictor])


def figure5_grid(
    scale: ExperimentScale | None = None,
    pairs: tuple[tuple[str, str], ...] | None = None,
    predictors: list[str] | None = None,
) -> SimulationGrid:
    """The declarative grid behind Figure 5 (predictor pairs × SMT pairs)."""
    scale = scale if scale is not None else ExperimentScale()
    workload_pairs = list(pairs if pairs is not None else GEM5_SMT_PAIRS)
    models = [name for pair in selected_pairs(predictors) for name in pair]
    return SimulationGrid(kind="smt", models=models, workloads=workload_pairs, scale=scale)


def collect_figure5(frame: ResultFrame,
                    predictors: list[str] | None = None) -> Figure5Result:
    """Reduce an executed Figure 5 frame to per-pair reductions and Hmean IPC."""
    result = Figure5Result()
    predictor_pairs = selected_pairs(predictors)
    for pair_label in frame.workloads():
        for baseline_name, protected_name in predictor_pairs:
            baseline_hmean = frame.metric(baseline_name, pair_label, "hmean_ipc")
            result.cells.append(
                Figure5Cell(
                    pair=pair_label,
                    predictor=baseline_name,
                    direction_reduction=reduction(
                        frame.metric(protected_name, pair_label, "direction_accuracy"),
                        frame.metric(baseline_name, pair_label, "direction_accuracy"),
                    ),
                    target_reduction=reduction(
                        frame.metric(protected_name, pair_label, "target_accuracy"),
                        frame.metric(baseline_name, pair_label, "target_accuracy"),
                    ),
                    normalized_hmean_ipc=normalized(
                        frame.metric(protected_name, pair_label, "hmean_ipc"),
                        baseline_hmean,
                    ),
                )
            )
    return result


def run_figure5(
    scale: ExperimentScale | None = None,
    pairs: tuple[tuple[str, str], ...] | None = None,
    predictors: list[str] | None = None,
    workers: int = 1,
) -> Figure5Result:
    """Regenerate the Figure 5 data series."""
    grid = figure5_grid(scale, pairs, predictors)
    frame = EngineRunner(workers=workers).run(grid)
    return collect_figure5(frame, predictors)


def format_figure5(result: Figure5Result) -> str:
    lines = []
    for predictor in result.predictors():
        lines.append(
            f"ST_{predictor}: avg direction reduction "
            f"{result.average_direction_reduction(predictor):+.4f}, "
            f"avg target reduction {result.average_target_reduction(predictor):+.4f}, "
            f"avg normalized Hmean IPC {result.average_normalized_hmean_ipc(predictor):.3f}"
        )
    return "\n".join(lines)


register_experiment(ExperimentSpec(
    name="figure5",
    description="SMT workload-pair evaluation of the ST designs",
    kind="smt",
    uses_scale=True,
    default_seed=7,
    options=(PREDICTORS_OPTION,),
    build_jobs=lambda params: figure5_grid(
        build_scale(params), predictors=params["predictors"] or None).jobs(),
    post_process=lambda frame, params: collect_figure5(
        frame, params["predictors"] or None),
    formatter=format_figure5,
))
