"""Figure 2 — construction of the R1 remapping function.

The paper shows the selected gate-level design of R1: alternating substitution
(S-box), permutation (P-box) and compression (C-S box) layers with a 36-
transistor critical path, computable in a single cycle.  This experiment
rebuilds that reference design, verifies it against the hardware constraints
and the uniformity/avalanche criteria, and also exercises the automated
generator to show that constraint-satisfying candidates are found for every
remapping function in Table II.

The per-function generator searches are declared as engine ``"hashgen"`` jobs
(one per Table II function, deterministic per-job seed) so they can run on
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import (
    EngineRunner,
    ExperimentSpec,
    Job,
    Option,
    ResultFrame,
    register_experiment,
)
from repro.hashgen.constraints import HardwareConstraints, check_design, summarize_cost
from repro.hashgen.generator import build_reference_r1
from repro.hashgen.metrics import measure_avalanche, measure_uniformity
from repro.hashgen.optimization import REMAP_CONSTRAINTS


@dataclass(slots=True)
class Figure2Result:
    """Reference R1 metrics plus the per-function generated candidates."""

    reference_layers: list[str]
    reference_critical_path: int
    reference_single_cycle: bool
    reference_uniformity_cv: float
    reference_avalanche_mean: float
    reference_sac: bool
    generated: dict[str, dict[str, float]] = field(default_factory=dict)


def figure2_jobs(
    attempts_per_function: int = 12,
    uniformity_samples: int = 3_000,
    avalanche_samples: int = 60,
    seed: int = 0,
) -> list[Job]:
    """One ``hashgen`` job per Table II remapping function."""
    return [
        Job(
            index=index,
            kind="hashgen",
            workload=label,
            seed=seed + index * 97,
            params=(
                ("attempts", attempts_per_function),
                ("avalanche_samples", max(20, avalanche_samples // 3)),
                ("uniformity_samples", uniformity_samples),
            ),
        )
        for index, label in enumerate(REMAP_CONSTRAINTS)
    ]


def collect_figure2(
    frame: ResultFrame,
    uniformity_samples: int = 3_000,
    avalanche_samples: int = 60,
) -> Figure2Result:
    """Rebuild the reference R1 and fold in the executed generator searches."""
    constraints = HardwareConstraints(input_bits=80, output_bits=22)
    reference = build_reference_r1(constraints)
    cost = summarize_cost(reference.layers)
    check = check_design(reference.layers, constraints)
    uniformity = measure_uniformity(reference.apply, 80, 22, samples=uniformity_samples)
    avalanche = measure_avalanche(reference.apply, 80, 22, samples=avalanche_samples)

    result = Figure2Result(
        reference_layers=reference.describe(),
        reference_critical_path=cost.critical_path_transistors,
        reference_single_cycle=check.satisfied and cost.single_cycle_feasible(constraints),
        reference_uniformity_cv=uniformity.normalized_cv,
        reference_avalanche_mean=avalanche.mean_flip_fraction,
        reference_sac=avalanche.satisfies_sac,
    )
    for record in frame:
        # Functions for which no candidate satisfied the constraints are
        # omitted, mirroring the paper's "best found" table.
        if "score" in record.metrics:
            result.generated[record.workload] = dict(record.metrics)
    return result


def run_figure2(
    attempts_per_function: int = 12,
    uniformity_samples: int = 3_000,
    avalanche_samples: int = 60,
    seed: int = 0,
    workers: int = 1,
) -> Figure2Result:
    """Rebuild the reference R1 and run the generator for every remapping function."""
    jobs = figure2_jobs(attempts_per_function, uniformity_samples, avalanche_samples, seed)
    frame = EngineRunner(workers=workers).run_jobs(jobs)
    return collect_figure2(frame, uniformity_samples, avalanche_samples)


def format_figure2(result: Figure2Result) -> str:
    lines = ["reference R1 design:"]
    lines.extend(f"  {line}" for line in result.reference_layers)
    lines.append(
        f"  critical path {result.reference_critical_path} transistors, "
        f"single cycle: {result.reference_single_cycle}, "
        f"uniformity CV {result.reference_uniformity_cv:.3f}, "
        f"avalanche {result.reference_avalanche_mean:.3f} (SAC {result.reference_sac})"
    )
    lines.append("generated candidates:")
    for label, metrics in result.generated.items():
        lines.append(
            f"  {label}: best of {int(metrics['candidates'])} candidates — "
            f"path {int(metrics['critical_path_transistors'])} transistors, "
            f"uniformity CV {metrics['uniformity_cv']:.3f}, "
            f"avalanche {metrics['avalanche_mean']:.3f}, score {metrics['score']:.3f}"
        )
    return "\n".join(lines)


register_experiment(ExperimentSpec(
    name="figure2",
    description="R1 remapping-function construction",
    kind="hashgen",
    default_seed=0,
    options=(
        Option("seed", type=int, default=None, help="generator seed"),
        Option("attempts", type=int, default=12,
               help="generator attempts per remapping function"),
    ),
    build_jobs=lambda params: figure2_jobs(
        attempts_per_function=params["attempts"], seed=params["seed"]),
    post_process=lambda frame, params: collect_figure2(frame),
    formatter=format_figure2,
))
