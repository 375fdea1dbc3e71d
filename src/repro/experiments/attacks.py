"""Attack matrix — every Table I vector against selectable protection models.

The driver expands an (attacks × models) matrix into engine ``kind="attack"``
jobs and runs them serially or on the process pool.  Each cell reports the
attack's success metric (detection/recovery accuracy, speculation-to-gadget
rate, or induced slowdown, depending on the vector), whether it crossed the
attack's success threshold, and whether the target model advertised a
protection mechanism.  Running the same matrix against ``baseline`` and the
``ST_*`` models reproduces the paper's Table I claim: every vector that
succeeds on the unprotected BPU is defeated or reduced to chance by STBPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import (
    DEFAULT_ATTACK_PARAMS,
    EngineRunner,
    ExperimentSpec,
    Job,
    Option,
    ResultFrame,
    attack_names,
    derive_job_seed,
    register_experiment,
)
from repro.engine.grid import as_spec

#: Models every attack is run against unless the caller narrows the list.
DEFAULT_ATTACK_MODELS: tuple[str, ...] = ("baseline", "ST_SKLCond")

__all__ = [
    "DEFAULT_ATTACK_MODELS",
    "DEFAULT_ATTACK_PARAMS",  # canonical home: repro.engine.runner
    "AttackMatrixResult",
    "attack_matrix_jobs",
    "collect_attack_matrix",
    "run_attack_matrix",
    "format_attack_matrix",
]


@dataclass(slots=True)
class AttackMatrixResult:
    """The executed matrix plus the orderings needed to render it."""

    frame: ResultFrame
    attack_order: list[str]
    model_order: list[str] = field(default_factory=list)


def attack_matrix_jobs(
    attacks: list[str] | None = None,
    models: list[str] | None = None,
    seed: int = 7,
) -> list[Job]:
    """Expand the (attacks × models) matrix into deterministic engine jobs.

    Every job derives its own seed from (grid seed, model, attack), so
    parallel execution is bit-identical to serial and adding a row never
    reseeds existing cells.
    """
    chosen_attacks = list(attacks) if attacks else attack_names()
    known = set(attack_names())
    for name in chosen_attacks:
        if name not in known:
            raise ValueError(
                f"unknown attack {name!r}; known attacks: {', '.join(sorted(known))}"
            )
    chosen_models = list(models) if models else list(DEFAULT_ATTACK_MODELS)
    jobs: list[Job] = []
    for attack in chosen_attacks:
        for model in chosen_models:
            spec = as_spec(model)
            jobs.append(
                Job(
                    index=len(jobs),
                    kind="attack",
                    model=spec,
                    seed=derive_job_seed(seed, spec.display_label, attack),
                    params=tuple(
                        sorted((("attack", attack),) + DEFAULT_ATTACK_PARAMS.get(attack, ()))
                    ),
                )
            )
    return jobs


def collect_attack_matrix(frame: ResultFrame) -> AttackMatrixResult:
    """Wrap an executed matrix frame with its render orderings."""
    return AttackMatrixResult(
        frame=frame,
        attack_order=frame.workloads(),
        model_order=frame.models(),
    )


def run_attack_matrix(
    attacks: list[str] | None = None,
    models: list[str] | None = None,
    seed: int = 7,
    workers: int = 1,
) -> AttackMatrixResult:
    """Run the attack matrix and return the populated result frame."""
    jobs = attack_matrix_jobs(attacks=attacks, models=models, seed=seed)
    return collect_attack_matrix(EngineRunner(workers=workers).run_jobs(jobs))


def format_attack_matrix(result: AttackMatrixResult) -> str:
    """Render the matrix as an aligned text table (one row per attack)."""
    frame = result.frame
    width = max([len("attack")] + [len(name) for name in result.attack_order]) + 2
    lines = [
        f"{'attack':{width}s}"
        + "".join(f"{model:>28s}" for model in result.model_order)
    ]
    for attack in result.attack_order:
        cells = []
        for model in result.model_order:
            record = frame.record(model, attack)
            verdict = "breached" if record.metrics.get("success") else "held"
            cells.append(f"{record.metrics.get('success_metric', 0.0):18.3f} {verdict:>9s}")
        lines.append(f"{attack:{width}s}" + "".join(cells))
    return "\n".join(lines)


register_experiment(ExperimentSpec(
    name="attacks",
    description="Table I attack matrix against selectable protection models",
    kind="attack",
    default_seed=7,
    options=(
        Option("attacks", nargs="*", help="attack names to run (default: all)"),
        Option("models", nargs="*",
               help="registry model names to target (default: baseline ST_SKLCond)"),
        Option("seed", type=int, default=None, help="matrix seed"),
    ),
    build_jobs=lambda params: attack_matrix_jobs(
        attacks=params["attacks"] or None,
        models=params["models"] or None,
        seed=params["seed"],
    ),
    post_process=lambda frame, params: collect_attack_matrix(frame),
    formatter=format_attack_matrix,
    serializer=lambda result: result.frame.to_dict(),
))
