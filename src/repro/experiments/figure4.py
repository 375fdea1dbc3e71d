"""Figure 4 — single-workload cycle-approximate evaluation of the ST designs.

For each of 18 SPEC CPU 2017 workloads and each of the four predictor pairs
(Perceptron, SKLCond, TAGE-SC-L 64KB, TAGE-SC-L 8KB) the experiment runs the
unprotected predictor and its ST-protected counterpart through the
cycle-approximate CPU model and reports three series:

* reduction of the direction prediction rate (baseline − ST),
* reduction of the target prediction rate, and
* IPC of the ST design normalized to the unprotected design.

Paper averages: direction reduction ≤ 1.1%, target reduction ≤ 1.8%, and
normalized IPC between 0.969 and 1.066.

Declared as one engine grid of ``kind="cpu"`` jobs over (both members of the
selected pairs × workloads); the pairing/normalization arithmetic happens on
the returned result frame.
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
)
from repro.experiments.common import mean
from repro.sim.metrics import normalized, reduction
from repro.trace.workloads import GEM5_SINGLE_WORKLOADS

#: (pair label == unprotected registry name, ST registry name) per Figure 4 pair.
FIGURE4_PAIRS: tuple[tuple[str, str], ...] = (
    ("PerceptronBP", "ST_PerceptronBP"),
    ("SKLCond", "ST_SKLCond"),
    ("TAGE_SC_L_64KB", "ST_TAGE_SC_L_64KB"),
    ("TAGE_SC_L_8KB", "ST_TAGE_SC_L_8KB"),
)


@dataclass(slots=True)
class Figure4Cell:
    """One (workload, predictor) measurement."""

    workload: str
    predictor: str
    direction_reduction: float
    target_reduction: float
    normalized_ipc: float


@dataclass(slots=True)
class Figure4Result:
    cells: list[Figure4Cell] = field(default_factory=list)

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

    def average_normalized_ipc(self, predictor: str) -> float:
        return mean([c.normalized_ipc for c in self.cells if c.predictor == predictor])


def selected_pairs(predictors: list[str] | None) -> list[tuple[str, str]]:
    """Filter the Figure 4/5 predictor pairs by label, validating the labels.

    Shared with :mod:`repro.experiments.figure5`, which evaluates the same
    pairs in SMT mode.
    """
    pairs = list(FIGURE4_PAIRS)
    if predictors is not None:
        known = {pair[0] for pair in pairs}
        unknown = sorted(set(predictors) - known)
        if unknown:
            raise ValueError(
                f"unknown predictor pair(s) {', '.join(unknown)}; "
                f"valid labels: {', '.join(sorted(known))}"
            )
        pairs = [pair for pair in pairs if pair[0] in predictors]
    return pairs


def figure4_grid(
    scale: ExperimentScale | None = None,
    workloads: tuple[str, ...] | None = None,
    predictors: list[str] | None = None,
) -> SimulationGrid:
    """The declarative grid behind Figure 4 (both members of every pair)."""
    scale = scale if scale is not None else ExperimentScale()
    workload_names = list(workloads if workloads is not None else GEM5_SINGLE_WORKLOADS)
    models = [name for pair in selected_pairs(predictors) for name in pair]
    return SimulationGrid(kind="cpu", models=models, workloads=workload_names, scale=scale)


def collect_figure4(frame: ResultFrame,
                    predictors: list[str] | None = None) -> Figure4Result:
    """Reduce an executed Figure 4 frame to per-pair reductions and IPC."""
    result = Figure4Result()
    pairs = selected_pairs(predictors)
    for workload in frame.workloads():
        for baseline_name, protected_name in pairs:
            baseline_ipc = frame.metric(baseline_name, workload, "ipc")
            result.cells.append(
                Figure4Cell(
                    workload=workload,
                    predictor=baseline_name,
                    direction_reduction=reduction(
                        frame.metric(protected_name, workload, "direction_accuracy"),
                        frame.metric(baseline_name, workload, "direction_accuracy"),
                    ),
                    target_reduction=reduction(
                        frame.metric(protected_name, workload, "target_accuracy"),
                        frame.metric(baseline_name, workload, "target_accuracy"),
                    ),
                    normalized_ipc=normalized(
                        frame.metric(protected_name, workload, "ipc"), baseline_ipc
                    ),
                )
            )
    return result


def run_figure4(
    scale: ExperimentScale | None = None,
    workloads: tuple[str, ...] | None = None,
    predictors: list[str] | None = None,
    workers: int = 1,
) -> Figure4Result:
    """Regenerate the Figure 4 data series."""
    grid = figure4_grid(scale, workloads, predictors)
    frame = EngineRunner(workers=workers).run(grid)
    return collect_figure4(frame, predictors)


def format_figure4(result: Figure4Result) -> str:
    lines = []
    for predictor in result.predictors():
        lines.append(
            f"ST_{predictor}: avg direction reduction "
            f"{result.average_direction_reduction(predictor):+.4f}, "
            f"avg target reduction {result.average_target_reduction(predictor):+.4f}, "
            f"avg normalized IPC {result.average_normalized_ipc(predictor):.3f}"
        )
    return "\n".join(lines)


#: Shared ``--predictors`` option of the Figure 4/5 pair experiments.
PREDICTORS_OPTION = Option(
    "predictors", nargs="*",
    help="pair labels to keep (e.g. SKLCond TAGE_SC_L_8KB)")


register_experiment(ExperimentSpec(
    name="figure4",
    description="single-workload IPC evaluation of the ST designs",
    kind="cpu",
    uses_scale=True,
    default_seed=7,
    options=(PREDICTORS_OPTION,),
    build_jobs=lambda params: figure4_grid(
        build_scale(params), predictors=params["predictors"] or None).jobs(),
    post_process=lambda frame, params: collect_figure4(
        frame, params["predictors"] or None),
    formatter=format_figure4,
))
