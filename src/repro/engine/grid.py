"""Declarative simulation grids and their expansion into deterministic jobs.

A :class:`SimulationGrid` names what to run — models (by registry name or
:class:`~repro.engine.registry.ModelSpec`), workloads (names, or pairs for
SMT), a :class:`ExperimentScale`, and a job kind — and :meth:`SimulationGrid.jobs`
expands it into a flat list of :class:`Job` descriptions.  Jobs are plain
frozen data (strings, numbers, tuples), so the runner can hand them to worker
processes, and their seeds are derived from job identity rather than execution
order, which is what makes parallel runs bit-identical to serial ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.engine.registry import ModelSpec
from repro.engine.workloads import WorkloadKey, workload_label

#: Job kinds the runner knows how to execute.
JOB_KINDS = ("trace", "cpu", "smt", "hashgen", "attack", "table")


@dataclass(slots=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime; defaults suit tests and benches."""

    branch_count: int = 20_000
    warmup_branches: int = 2_000
    seed: int = 7
    workload_limit: int | None = None

    def __post_init__(self) -> None:
        # Every way in (CLI overrides, scenario files, serve POSTs) builds a
        # scale, so this is where out-of-range knobs are refused.
        for name in ("branch_count", "warmup_branches", "seed", "workload_limit"):
            value = getattr(self, name)
            if value is None and name == "workload_limit":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"scale {name} must be an integer, got {value!r}")
        if self.branch_count <= 0:
            raise ValueError(
                f"scale branch_count must be positive, got {self.branch_count}")
        if self.warmup_branches < 0:
            raise ValueError("scale warmup_branches must not be negative, "
                             f"got {self.warmup_branches}")


#: Fidelity presets selectable with ``--scale`` on the CLI and usable directly
#: by library callers (``SCALE_PRESETS["fast"]``).
SCALE_PRESETS: dict[str, ExperimentScale] = {
    "fast": ExperimentScale(branch_count=4_000, warmup_branches=400),
    "default": ExperimentScale(),
    "full": ExperimentScale(branch_count=60_000, warmup_branches=6_000),
}


def derive_job_seed(base_seed: int, *parts: object) -> int:
    """Stable 63-bit seed derived from the grid seed and job identity.

    Uses SHA-256 over the stringified identity, so the same (grid seed, model,
    workload) triple seeds identically in every process and under any
    execution order or ``PYTHONHASHSEED``.
    """
    text = "|".join([str(base_seed), *(str(part) for part in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True, slots=True)
class Job:
    """One executable cell of a grid — picklable plain data.

    Attributes:
        index: Position in the expanded grid; results are re-ordered by it.
        kind: One of :data:`JOB_KINDS`.
        model: Model spec, or ``None`` for kinds without a model (hashgen,
            table).
        workload: Workload name, SMT pair, or ``None``.
        branch_count/warmup_branches: Trace length knobs.
        seed: Model/attack seed for this job.
        trace_seed: Seed for synthetic trace generation.  Kept separate from
            ``seed`` so per-job model seeding never changes the trace every
            model of a workload must share.
        params: Extra kind-specific parameters as a sorted key/value tuple.
    """

    index: int
    kind: str
    model: ModelSpec | None = None
    workload: WorkloadKey | None = None
    branch_count: int = 0
    warmup_branches: int = 0
    seed: int = 0
    trace_seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    @property
    def model_label(self) -> str:
        return self.model.display_label if self.model is not None else ""

    @property
    def workload_name(self) -> str:
        return workload_label(self.workload) if self.workload is not None else ""

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default


def as_spec(model: ModelSpec | str) -> ModelSpec:
    return model if isinstance(model, ModelSpec) else ModelSpec(name=model)


@dataclass(slots=True)
class SimulationGrid:
    """A declarative (models × workloads × scale) experiment.

    Attributes:
        kind: Job kind every cell runs (``"trace"``, ``"cpu"`` or ``"smt"``).
        models: Registry names or specs; instantiated fresh per job.
        workloads: Workload names, or ``(a, b)`` pairs when ``kind="smt"``.
        scale: Fidelity knobs; ``scale.workload_limit`` truncates
            ``workloads`` at expansion time.
        seed_policy: ``"shared"`` gives every job the grid seed (the paper's
            drivers compare models under one seed); ``"per-job"`` derives a
            distinct deterministic seed per (model, workload) cell.
        params: Extra parameters copied onto every job.
    """

    kind: str = "trace"
    models: Sequence[ModelSpec | str] = ()
    workloads: Sequence[WorkloadKey] = ()
    scale: ExperimentScale = field(default_factory=ExperimentScale)
    seed_policy: str = "shared"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}")
        if self.seed_policy not in ("shared", "per-job"):
            raise ValueError(f"unknown seed policy {self.seed_policy!r}")

    def effective_workloads(self) -> list[WorkloadKey]:
        # Deduplicate (first occurrence wins) so overlapping selections cannot
        # expand into duplicate grid cells.
        workloads = list(dict.fromkeys(self.workloads))
        if self.scale.workload_limit is not None:
            workloads = workloads[: self.scale.workload_limit]
        return workloads

    def jobs(self, start_index: int = 0) -> list[Job]:
        """Expand the grid into jobs (workload-major, matching driver loops)."""
        shared_params = tuple(sorted(self.params.items()))
        jobs: list[Job] = []
        index = start_index
        for workload in self.effective_workloads():
            for model in self.models:
                spec = as_spec(model)
                if self.seed_policy == "shared":
                    seed = self.scale.seed
                else:
                    seed = derive_job_seed(
                        self.scale.seed, spec.display_label, workload_label(workload)
                    )
                jobs.append(
                    Job(
                        index=index,
                        kind=self.kind,
                        model=spec,
                        workload=workload,
                        branch_count=self.scale.branch_count,
                        warmup_branches=self.scale.warmup_branches,
                        seed=seed,
                        trace_seed=self.scale.seed,
                        params=shared_params,
                    )
                )
                index += 1
        return jobs
