"""Ablation study of the STBPU design choices.

The full design combines three mechanisms: keyed remapping (ψ), stored-target
encryption (ϕ), and event-triggered ST re-randomization.  This experiment
disables them one at a time and measures, for each variant,

* the OAE accuracy on a workload trace (the performance side), and
* the success of the two attack classes each mechanism is responsible for:
  Spectre v2 target injection (defeated by encryption) and the same-address-
  space transient trojan (defeated by full-address keyed remapping).

It substantiates the paper's argument that the mechanisms are complementary:
remapping alone leaves cross-token target injection only probabilistically
hard, encryption alone leaves same-address-space collisions deterministic,
and either without re-randomization can be brute-forced given enough
observable events.

The variants are registry-addressable (``"stbpu_variant"`` with mechanism
switches, built by :mod:`repro.engine.variants`); accuracy cells and attack
cells are one engine job each, so the whole study parallelises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import (
    EngineRunner,
    ExperimentScale,
    ExperimentSpec,
    Job,
    ModelSpec,
    Option,
    ResultFrame,
    SimulationGrid,
    build_scale,
    register_experiment,
)
from repro.sim.metrics import normalized

#: (display label, mechanism switches or None for the unprotected baseline).
ABLATION_VARIANTS: tuple[tuple[str, tuple[bool, bool, bool] | None], ...] = (
    ("unprotected", None),
    ("full STBPU", (True, True, True)),
    ("remapping only", (True, False, True)),
    ("encryption only", (False, True, True)),
    ("no re-randomization", (True, True, False)),
)


def _variant_spec(label: str, flags: tuple[bool, bool, bool] | None) -> ModelSpec:
    if flags is None:
        return ModelSpec.of("baseline", label=label)
    remapping, encryption, rerandomization = flags
    return ModelSpec.of(
        "stbpu_variant",
        label=label,
        remapping=remapping,
        encryption=encryption,
        rerandomization=rerandomization,
    )


@dataclass(slots=True)
class AblationRow:
    """Measurements for one design variant."""

    variant: str
    oae_accuracy: float
    normalized_oae: float
    spectre_v2_rate: float
    trojan_rate: float


@dataclass(slots=True)
class AblationResult:
    rows: list[AblationRow] = field(default_factory=list)

    def row(self, variant: str) -> AblationRow:
        for row in self.rows:
            if row.variant == variant:
                return row
        raise KeyError(variant)


def ablation_jobs(scale: ExperimentScale | None = None,
                  workload: str = "505.mcf") -> list[Job]:
    """Accuracy grid plus attack jobs for every design variant."""
    scale = scale if scale is not None else ExperimentScale()
    specs = [_variant_spec(label, flags) for label, flags in ABLATION_VARIANTS]
    accuracy_grid = SimulationGrid(
        kind="trace", models=specs, workloads=[workload], scale=scale
    )
    jobs = accuracy_grid.jobs()
    index = len(jobs)
    for spec in specs:
        for attack, budget in (("spectre_v2", ("attempts", 150)),
                               ("trojan", ("trials", 100))):
            jobs.append(
                Job(
                    index=index,
                    kind="attack",
                    model=spec,
                    seed=scale.seed,
                    params=(("attack", attack), budget),
                )
            )
            index += 1
    return jobs


def collect_ablation(frame: ResultFrame, workload: str = "505.mcf") -> AblationResult:
    """Reduce an executed ablation frame to per-variant rows."""
    baseline_oae = frame.metric("unprotected", workload, "oae_accuracy")

    result = AblationResult()
    for label, _flags in ABLATION_VARIANTS:
        accuracy = frame.metric(label, workload, "oae_accuracy")
        result.rows.append(
            AblationRow(
                variant=label,
                oae_accuracy=accuracy,
                normalized_oae=normalized(accuracy, baseline_oae),
                spectre_v2_rate=frame.metric(label, "spectre_v2", "success_metric"),
                trojan_rate=frame.metric(label, "trojan", "success_metric"),
            )
        )
    return result


def run_ablation(scale: ExperimentScale | None = None,
                 workload: str = "505.mcf",
                 workers: int = 1) -> AblationResult:
    """Measure accuracy and attack resistance for each design variant."""
    frame = EngineRunner(workers=workers).run_jobs(ablation_jobs(scale, workload))
    return collect_ablation(frame, workload)


def format_ablation(result: AblationResult) -> str:
    lines = [f"{'variant':24s} {'OAE':>8s} {'norm':>7s} {'spectre-v2':>11s} {'trojan':>8s}"]
    for row in result.rows:
        lines.append(
            f"{row.variant:24s} {row.oae_accuracy:8.3f} {row.normalized_oae:7.3f} "
            f"{row.spectre_v2_rate:11.3f} {row.trojan_rate:8.3f}"
        )
    return "\n".join(lines)


register_experiment(ExperimentSpec(
    name="ablation",
    description="STBPU design-choice ablation study",
    kind="trace",
    uses_scale=True,
    default_seed=7,
    options=(
        Option("workload", default="505.mcf",
               help="workload used for the accuracy series"),
    ),
    build_jobs=lambda params: ablation_jobs(build_scale(params), params["workload"]),
    post_process=lambda frame, params: collect_ablation(frame, params["workload"]),
    formatter=format_ablation,
))
