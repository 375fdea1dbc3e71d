"""Unified simulation engine.

The engine turns the repository's evaluation into a declarative pipeline:

* :mod:`repro.engine.registry` — models addressable by string name
  (``"baseline"``, ``"ST_SKLCond"``, ...) with seed/monitor knobs,
* :mod:`repro.engine.workloads` — workload name resolution plus the shared
  memoised trace cache,
* :mod:`repro.engine.grid` — :class:`SimulationGrid` declarations expanding
  (models × workloads × scale) into deterministic :class:`Job` lists,
* :mod:`repro.engine.runner` — :class:`EngineRunner`, executing job lists
  serially or on a :class:`~concurrent.futures.ProcessPoolExecutor` forked
  fresh for each parallel run, with bit-identical results either way,
* :mod:`repro.engine.results` — normalized :class:`ResultFrame` records
  (baseline-relative OAE / IPC) with JSON export,
* :mod:`repro.engine.spec` — :class:`ExperimentSpec` declarations and the
  experiment registry: every figure/table registers its job builder,
  post-processor, formatter, serializer, CLI options, and result schema,
* :mod:`repro.engine.scenario` — user-authored JSON/TOML scenario files
  (models × workloads × kind × params) validated against the registries and
  runnable with zero code.

All experiment drivers (``repro.experiments.figure2`` .. ``tables``) and the
``python -m repro`` CLI are thin declarations on top of this package; the
CLI's subcommands and help text are generated from the experiment registry.
"""

from repro.engine.grid import (
    SCALE_PRESETS,
    ExperimentScale,
    Job,
    SimulationGrid,
    derive_job_seed,
)
from repro.engine.registry import (
    ModelSpec,
    build_model,
    list_models,
    model_factory,
    register_model,
)
from repro.engine.results import JobRecord, ResultFrame
from repro.engine.runner import (
    DEFAULT_ATTACK_PARAMS,
    EngineRunner,
    attack_names,
    execute_job,
    execute_job_batch,
    job_batches,
)
from repro.engine.scenario import (
    SCENARIO_SCHEMA,
    Scenario,
    ScenarioResult,
    format_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
    scenario_envelope,
)
from repro.engine.spec import (
    SCALE_OPTIONS,
    ExperimentSpec,
    Option,
    build_scale,
    experiment_spec,
    list_experiments,
    load_builtin_specs,
    register_experiment,
    run_experiment,
)
from repro.engine.workloads import (
    TraceCache,
    clear_trace_cache,
    resolve_smt_pairs,
    resolve_workloads,
    trace_cache_stats,
    trace_for,
)

__all__ = [
    "SCALE_PRESETS",
    "ExperimentScale",
    "Job",
    "SimulationGrid",
    "derive_job_seed",
    "ModelSpec",
    "build_model",
    "list_models",
    "model_factory",
    "register_model",
    "JobRecord",
    "ResultFrame",
    "DEFAULT_ATTACK_PARAMS",
    "EngineRunner",
    "attack_names",
    "execute_job",
    "execute_job_batch",
    "job_batches",
    "SCENARIO_SCHEMA",
    "Scenario",
    "ScenarioResult",
    "format_scenario",
    "load_scenario",
    "parse_scenario",
    "run_scenario",
    "scenario_envelope",
    "SCALE_OPTIONS",
    "ExperimentSpec",
    "Option",
    "build_scale",
    "experiment_spec",
    "list_experiments",
    "load_builtin_specs",
    "register_experiment",
    "run_experiment",
    "TraceCache",
    "clear_trace_cache",
    "resolve_smt_pairs",
    "resolve_workloads",
    "trace_cache_stats",
    "trace_for",
]
