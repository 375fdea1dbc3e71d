"""Figure 6 — sensitivity of performance to aggressive ST re-randomization.

The re-randomization thresholds are ``Γ = r·C``; the paper sweeps the attack
difficulty factor ``r`` downward (equivalent to assuming attacks 10×, 100×,
... faster than known ones) for the TAGE-SC-L 64KB STBPU in SMT mode and
shows that accuracy stays above ~95% of the unprotected design until the
thresholds shrink to a few hundred events, at which point constant
re-randomization effectively disables BPU training.

Declared as one engine grid of ``kind="smt"`` jobs: the unprotected reference
plus one parameterised ST model per swept ``r`` value, over the SMT workload
pairs.  Re-randomization counts flow through the uniform
``protection_stats()`` protocol into the job metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import (
    EngineRunner,
    ExperimentScale,
    ExperimentSpec,
    ModelSpec,
    Option,
    ResultFrame,
    SimulationGrid,
    build_scale,
    register_experiment,
)
from repro.experiments.common import default_monitor_config, mean
from repro.trace.workloads import GEM5_SMT_PAIRS

#: The r values swept in the paper's Figure 6 (rightmost is the default 0.05).
DEFAULT_R_SWEEP: tuple[float, ...] = (0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001, 0.00005)

#: Registry names of the swept predictor and its unprotected reference.
_BASELINE_MODEL = "TAGE_SC_L_64KB"
_PROTECTED_MODEL = "ST_TAGE_SC_L_64KB"

#: SMT pairs evaluated when no explicit scale/limit is given (drivers and the
#: CLI share this default).  On a 2-CPU x86 host the default 4-pair run takes
#: about 34 s and the full 31-pair sweep (``--workload-limit 31``) about 230 s.
FIGURE6_DEFAULT_PAIR_LIMIT = 4


@dataclass(slots=True)
class Figure6Point:
    """Averaged metrics at one value of the difficulty factor r."""

    r: float
    misprediction_threshold: int
    eviction_threshold: int
    normalized_direction_accuracy: float
    normalized_target_accuracy: float
    normalized_hmean_ipc: float
    rerandomizations_per_kilo_branch: float


@dataclass(slots=True)
class Figure6Result:
    points: list[Figure6Point] = field(default_factory=list)


def _sweep_label(r: float) -> str:
    return f"{_PROTECTED_MODEL}[r={r:g}]"


def figure6_grid(
    scale: ExperimentScale | None = None,
    r_values: tuple[float, ...] = DEFAULT_R_SWEEP,
    pairs: tuple[tuple[str, str], ...] | None = None,
) -> SimulationGrid:
    """The declarative grid behind Figure 6: baseline + one ST model per r."""
    scale = scale if scale is not None else ExperimentScale(
        workload_limit=FIGURE6_DEFAULT_PAIR_LIMIT)
    workload_pairs = list(pairs if pairs is not None else GEM5_SMT_PAIRS)
    models: list[ModelSpec | str] = [_BASELINE_MODEL]
    models.extend(
        ModelSpec.of(_PROTECTED_MODEL, label=_sweep_label(r), r=r) for r in r_values
    )
    return SimulationGrid(kind="smt", models=models, workloads=workload_pairs, scale=scale)


def collect_figure6(frame: ResultFrame,
                    r_values: tuple[float, ...] = DEFAULT_R_SWEEP) -> Figure6Result:
    """Reduce an executed Figure 6 frame to the averaged sweep points."""
    result = Figure6Result()
    for r in r_values:
        monitor = default_monitor_config(r=r, separate_direction_register=True)
        label = _sweep_label(r)
        direction_ratios: list[float] = []
        target_ratios: list[float] = []
        ipc_ratios: list[float] = []
        rerand_rates: list[float] = []
        for pair_label in frame.workloads():
            baseline_direction = frame.metric(_BASELINE_MODEL, pair_label,
                                              "direction_accuracy")
            baseline_target = frame.metric(_BASELINE_MODEL, pair_label, "target_accuracy")
            baseline_hmean = frame.metric(_BASELINE_MODEL, pair_label, "hmean_ipc")
            if baseline_direction:
                direction_ratios.append(
                    frame.metric(label, pair_label, "direction_accuracy") / baseline_direction
                )
            if baseline_target:
                target_ratios.append(
                    frame.metric(label, pair_label, "target_accuracy") / baseline_target
                )
            if baseline_hmean:
                ipc_ratios.append(
                    frame.metric(label, pair_label, "hmean_ipc") / baseline_hmean
                )
            total_branches = frame.metric(label, pair_label, "branches")
            if total_branches:
                rerand_rates.append(
                    frame.metric(label, pair_label, "rerandomizations")
                    / (total_branches / 1000.0)
                )
        result.points.append(
            Figure6Point(
                r=r,
                misprediction_threshold=monitor.misprediction_threshold,
                eviction_threshold=monitor.eviction_threshold,
                normalized_direction_accuracy=mean(direction_ratios),
                normalized_target_accuracy=mean(target_ratios),
                normalized_hmean_ipc=mean(ipc_ratios),
                rerandomizations_per_kilo_branch=mean(rerand_rates),
            )
        )
    return result


def run_figure6(
    scale: ExperimentScale | None = None,
    r_values: tuple[float, ...] = DEFAULT_R_SWEEP,
    pairs: tuple[tuple[str, str], ...] | None = None,
    workers: int = 1,
) -> Figure6Result:
    """Regenerate the Figure 6 sweep (averaged over SMT workload pairs)."""
    grid = figure6_grid(scale, r_values, pairs)
    frame = EngineRunner(workers=workers).run(grid)
    return collect_figure6(frame, r_values)


def format_figure6(result: Figure6Result) -> str:
    lines = [
        f"{'r':>10s} {'misp thr':>10s} {'evic thr':>10s} {'dir acc':>9s} "
        f"{'tgt acc':>9s} {'hmean ipc':>10s} {'rerand/kbr':>11s}"
    ]
    for point in result.points:
        lines.append(
            f"{point.r:>10.5f} {point.misprediction_threshold:>10d} "
            f"{point.eviction_threshold:>10d} {point.normalized_direction_accuracy:>9.3f} "
            f"{point.normalized_target_accuracy:>9.3f} {point.normalized_hmean_ipc:>10.3f} "
            f"{point.rerandomizations_per_kilo_branch:>11.3f}"
        )
    return "\n".join(lines)


def _figure6_r_values(params: dict) -> tuple[float, ...]:
    return tuple(params["r_values"]) if params["r_values"] else DEFAULT_R_SWEEP


def _figure6_scale(params: dict) -> ExperimentScale:
    scale = build_scale(params)
    if params["workload_limit"] is None:
        scale.workload_limit = FIGURE6_DEFAULT_PAIR_LIMIT
    return scale


def _figure6_note(params: dict) -> str | None:
    if params["workload_limit"] is not None:
        return None
    return (
        f"note: averaging over the first {FIGURE6_DEFAULT_PAIR_LIMIT} of "
        f"{len(GEM5_SMT_PAIRS)} SMT pairs; pass --workload-limit "
        f"{len(GEM5_SMT_PAIRS)} for the full sweep"
    )


register_experiment(ExperimentSpec(
    name="figure6",
    description="re-randomization aggressiveness sweep",
    kind="smt",
    uses_scale=True,
    default_seed=7,
    options=(
        Option("r-values", nargs="*", type=float,
               help="difficulty factors to sweep (default: paper sweep)"),
    ),
    build_jobs=lambda params: figure6_grid(
        _figure6_scale(params), _figure6_r_values(params)).jobs(),
    post_process=lambda frame, params: collect_figure6(
        frame, _figure6_r_values(params)),
    note=_figure6_note,
    formatter=format_figure6,
))
