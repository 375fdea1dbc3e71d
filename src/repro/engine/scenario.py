"""User-authored scenario files: sweeps as data, no code required.

A scenario file (JSON or TOML) declares a sweep the paper never enumerated —
models × workloads for one job kind, with fidelity knobs and optional
baseline-normalized reporting — and ``python -m repro run <path>`` executes
it end-to-end with streamed progress.  The loader validates everything
against the engine registries before any job runs: unknown keys, kinds,
models, workloads, attacks, and malformed scale blocks all fail with the
offending value named.

Scenario schema (``repro.scenario/v1``)::

    {
      "schema": "repro.scenario/v1",        // optional, must match if present
      "name": "quick-oae-sweep",            // optional display name
      "description": "...",                 // optional
      "kind": "trace",                      // trace | cpu | smt | attack
      "models": ["baseline",                // registry names, or
                 {"name": "ST_SKLCond",     // parameterised specs
                  "label": "ST[r=0.0005]",
                  "params": {"r": 0.0005}}],
      "workloads": ["505.mcf", "spec"],     // names/groups; "a+b" for smt
      "attacks": ["spectre_v2"],            // kind="attack" only
      "scale": {"branch_count": 2000, "warmup_branches": 200, "seed": 7},
      "seed_policy": "shared",              // or "per-job"
      "params": {},                         // extra per-job parameters
      "baseline": "baseline",               // optional normalization column
      "metrics": ["oae_accuracy"]           // optional reported columns
    }
"""

from __future__ import annotations

import json
import os
import tomllib
from dataclasses import dataclass, field
from typing import Any

from repro.engine.grid import (
    ExperimentScale,
    Job,
    SimulationGrid,
    derive_job_seed,
)
from repro.engine.registry import ModelSpec, model_factory
from repro.engine.results import ResultFrame
from repro.engine.runner import (
    DEFAULT_ATTACK_PARAMS,
    EngineRunner,
    ProgressCallback,
    attack_names,
)
from repro.engine.workloads import resolve_smt_pairs, resolve_workloads

#: Versioned schema tag of scenario files and their result envelopes.
SCENARIO_SCHEMA = "repro.scenario/v1"

#: Job kinds a scenario may declare.
SCENARIO_KINDS = ("trace", "cpu", "smt", "attack")

#: Default reported metric per kind (used when the file names none).
_DEFAULT_METRICS = {
    "trace": ["oae_accuracy"],
    "cpu": ["ipc"],
    "smt": ["hmean_ipc"],
    "attack": ["success_metric", "success"],
}

_TOP_LEVEL_KEYS = frozenset({
    "schema", "name", "description", "kind", "models", "workloads",
    "attacks", "scale", "seed_policy", "params", "baseline", "metrics",
})

_SCALE_KEYS = frozenset({"branch_count", "warmup_branches", "seed", "workload_limit"})


@dataclass(slots=True)
class Scenario:
    """A validated scenario, ready to expand into engine jobs."""

    name: str
    kind: str
    models: list[ModelSpec]
    workloads: list[Any] = field(default_factory=list)
    attacks: list[str] = field(default_factory=list)
    scale: ExperimentScale = field(default_factory=ExperimentScale)
    seed_policy: str = "shared"
    params: dict[str, Any] = field(default_factory=dict)
    baseline: str | None = None
    metrics: list[str] = field(default_factory=list)
    description: str = ""

    def jobs(self) -> list[Job]:
        """Expand the scenario into deterministic engine jobs."""
        if self.kind == "attack":
            jobs: list[Job] = []
            for attack in self.attacks:
                defaults = dict(DEFAULT_ATTACK_PARAMS.get(attack, ()))
                defaults.update(self.params)
                defaults["attack"] = attack
                for spec in self.models:
                    jobs.append(Job(
                        index=len(jobs),
                        kind="attack",
                        model=spec,
                        seed=derive_job_seed(self.scale.seed, spec.display_label, attack),
                        params=tuple(sorted(defaults.items())),
                    ))
            return jobs
        grid = SimulationGrid(
            kind=self.kind,
            models=list(self.models),
            workloads=list(self.workloads),
            scale=self.scale,
            seed_policy=self.seed_policy,
            params=dict(self.params),
        )
        return grid.jobs()


@dataclass(slots=True)
class ScenarioResult:
    """The executed scenario plus its populated result frame."""

    scenario: Scenario
    frame: ResultFrame

    def metrics(self) -> list[str]:
        return self.scenario.metrics or _DEFAULT_METRICS[self.scenario.kind]

    def normalized(self) -> dict[str, dict[str, dict[str, float]]]:
        """``{metric: {workload: {model: value}}}`` against the baseline column."""
        baseline = self.scenario.baseline
        if baseline is None:
            return {}
        return {metric: self.frame.normalized(metric, baseline)
                for metric in self.metrics()}


def _fail(message: str) -> ValueError:
    return ValueError(f"invalid scenario: {message}")


def _model_spec(entry: Any) -> ModelSpec:
    if isinstance(entry, str):
        spec = ModelSpec(name=entry)
    elif isinstance(entry, dict):
        unknown = set(entry) - {"name", "label", "params"}
        if unknown:
            raise _fail(f"unknown model keys {sorted(unknown)} in {entry!r}")
        if "name" not in entry:
            raise _fail(f"model entry {entry!r} has no 'name'")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise _fail(f"model params must be a mapping, got {params!r}")
        spec = ModelSpec.of(entry["name"], label=entry.get("label"), **params)
    else:
        raise _fail(f"model entry {entry!r} must be a name or a mapping")
    try:
        model_factory(spec.name)
    except KeyError as error:
        # Re-frame as the module's uniform validation error (the registry's
        # message already names the known models).
        raise _fail(error.args[0]) from None
    return spec


def parse_scenario(data: Any, name: str = "scenario") -> Scenario:
    """Validate a decoded scenario mapping and return a :class:`Scenario`."""
    if not isinstance(data, dict):
        raise _fail(f"top level must be a mapping, got {type(data).__name__}")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise _fail(
            f"unknown top-level keys {sorted(unknown)}; "
            f"known keys: {', '.join(sorted(_TOP_LEVEL_KEYS))}"
        )
    schema = data.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise _fail(f"unsupported schema {schema!r}; expected {SCENARIO_SCHEMA!r}")

    kind = data.get("kind")
    if kind not in SCENARIO_KINDS:
        raise _fail(f"kind must be one of {SCENARIO_KINDS}, got {kind!r}")

    seed_policy = data.get("seed_policy", "shared")
    if seed_policy not in ("shared", "per-job"):
        raise _fail(
            f"seed_policy must be 'shared' or 'per-job', got {seed_policy!r}"
        )

    models_raw = data.get("models")
    if not isinstance(models_raw, list) or not models_raw:
        raise _fail("'models' must be a non-empty list")
    models = [_model_spec(entry) for entry in models_raw]
    labels = [spec.display_label for spec in models]
    if len(set(labels)) != len(labels):
        raise _fail(f"model labels are not distinct: {labels}")

    scale_raw = data.get("scale", {})
    if not isinstance(scale_raw, dict):
        raise _fail(f"'scale' must be a mapping, got {scale_raw!r}")
    unknown = set(scale_raw) - _SCALE_KEYS
    if unknown:
        raise _fail(
            f"unknown scale keys {sorted(unknown)}; "
            f"known keys: {', '.join(sorted(_SCALE_KEYS))}"
        )
    try:
        scale = ExperimentScale(**scale_raw)
    except ValueError as error:
        raise _fail(str(error)) from None

    workloads: list[Any] = []
    attacks: list[str] = []
    if kind == "attack":
        attacks_raw = data.get("attacks")
        if not isinstance(attacks_raw, list) or not attacks_raw:
            raise _fail("kind='attack' requires a non-empty 'attacks' list")
        known = set(attack_names())
        bad = sorted(set(attacks_raw) - known)
        if bad:
            raise _fail(
                f"unknown attacks {bad}; known attacks: {', '.join(sorted(known))}"
            )
        attacks = list(attacks_raw)
        if "workloads" in data:
            raise _fail("kind='attack' takes 'attacks', not 'workloads'")
    else:
        workloads_raw = data.get("workloads")
        if not isinstance(workloads_raw, list) or not workloads_raw:
            raise _fail(f"kind={kind!r} requires a non-empty 'workloads' list")
        try:
            if kind == "smt":
                workloads = resolve_smt_pairs(
                    [tuple(entry) if isinstance(entry, list) else entry
                     for entry in workloads_raw])
            else:
                workloads = resolve_workloads(workloads_raw)
        except KeyError as error:
            raise _fail(error.args[0]) from None
        if "attacks" in data:
            raise _fail(f"kind={kind!r} takes 'workloads', not 'attacks'")

    params = data.get("params", {})
    if not isinstance(params, dict):
        raise _fail(f"'params' must be a mapping, got {params!r}")

    metrics = data.get("metrics", [])
    if not isinstance(metrics, list):
        raise _fail(f"'metrics' must be a list, got {metrics!r}")

    baseline = data.get("baseline")
    if baseline is not None and baseline not in labels:
        raise _fail(
            f"baseline {baseline!r} is not one of the scenario's models: {labels}"
        )

    return Scenario(
        name=data.get("name", name),
        kind=kind,
        models=models,
        workloads=workloads,
        attacks=attacks,
        scale=scale,
        seed_policy=seed_policy,
        params=dict(params),
        baseline=baseline,
        metrics=list(metrics),
        description=data.get("description", ""),
    )


def load_scenario(path: str) -> Scenario:
    """Load and validate a ``.json`` or ``.toml`` scenario file."""
    lowered = str(path).lower()
    if lowered.endswith(".toml"):
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    elif lowered.endswith(".json"):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        raise ValueError(
            f"scenario file {path!r} must end in .json or .toml"
        )
    default_name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(data, name=default_name)


def run_scenario(scenario: Scenario, workers: int = 1,
                 progress: ProgressCallback | None = None,
                 store: Any | None = None) -> ScenarioResult:
    """Execute the scenario's jobs and return the populated result.

    With a ``store`` (a :class:`~repro.store.base.ResultStore`), execution is
    incremental: cells already in the store merge back without running, and
    the resulting envelope is byte-identical to a cold run.
    """
    runner = EngineRunner(workers=workers, store=store)
    frame = runner.run_jobs(scenario.jobs(), progress=progress)
    return ScenarioResult(scenario=scenario, frame=frame)


def format_scenario(result: ScenarioResult) -> str:
    """Render the scenario result as an aligned text table."""
    scenario = result.scenario
    metrics = result.metrics()
    lines = [f"scenario: {scenario.name} (kind={scenario.kind}, "
             f"{len(result.frame)} jobs)"]
    label_width = max(
        [len("model / workload")]
        + [len(f"{record.model} / {record.workload}") for record in result.frame]
    ) + 2
    header = f"{'model / workload':{label_width}s}" + "".join(
        f"{metric:>20s}" for metric in metrics)
    lines.append(header)
    for record in result.frame:
        cells = "".join(
            f"{record.metrics.get(metric, float('nan')):20.4f}" for metric in metrics)
        lines.append(f"{record.model + ' / ' + record.workload:{label_width}s}{cells}")
    normalized = result.normalized()
    for metric, table in normalized.items():
        lines.append(f"normalized {metric} (baseline {scenario.baseline}):")
        for workload, row in table.items():
            cells = ", ".join(f"{model}={value:.4f}" for model, value in row.items())
            lines.append(f"  {workload}: {cells}")
    return "\n".join(lines)


def serialize_scenario(result: ScenarioResult) -> dict[str, Any]:
    """The scenario result as a JSON payload (envelope added by the CLI)."""
    payload: dict[str, Any] = {
        "name": result.scenario.name,
        "kind": result.scenario.kind,
        "metrics": result.metrics(),
        "records": result.frame.to_dict()["records"],
    }
    if result.scenario.baseline is not None:
        payload["baseline"] = result.scenario.baseline
        payload["normalized"] = result.normalized()
    return payload


def scenario_envelope(result: ScenarioResult) -> dict[str, Any]:
    """The versioned JSON envelope for an executed scenario."""
    return {
        "schema": SCENARIO_SCHEMA,
        "spec": "scenario",
        "result": serialize_scenario(result),
    }
