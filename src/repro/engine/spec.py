"""Declarative experiment specs: scenarios as data, addressable by name.

An :class:`ExperimentSpec` describes one experiment completely — how to build
its job list, how to turn the executed :class:`~repro.engine.results.ResultFrame`
back into a result object, how to render that result as text and as JSON, the
CLI options it accepts, its default seed, and a versioned result schema.
Specs register under the name the paper's figures use
(:func:`register_experiment`), which is what lets the ``python -m repro`` CLI,
the docs table, and scenario files all generate themselves from one source of
truth instead of one hand-written driver + argparse block per experiment.

Two execution shapes are supported:

* grid/job-list experiments declare ``build_jobs`` + ``post_process`` and run
  through :class:`~repro.engine.runner.EngineRunner` (streaming, parallel);
* irregular experiments (the bench, registry listings) declare a custom
  ``execute`` callable instead.

:func:`run_experiment` is the single entry point either way.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.grid import SCALE_PRESETS, ExperimentScale, Job
from repro.engine.results import ResultFrame
from repro.engine.runner import EngineRunner, ProgressCallback


@dataclass(frozen=True, slots=True)
class Option:
    """One CLI option / scenario parameter an experiment accepts.

    ``flag`` is the option name without leading dashes (``"workload-limit"``);
    the parameter key (and argparse dest) is the flag with dashes replaced by
    underscores.
    """

    flag: str
    type: Callable[[str], Any] | None = None
    default: Any = None
    nargs: int | str | None = None
    choices: tuple[Any, ...] | None = None
    action: str | None = None
    metavar: str | None = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")


#: Shared fidelity options every scale-driven experiment accepts.
SCALE_OPTIONS: tuple[Option, ...] = (
    Option("scale", choices=tuple(sorted(SCALE_PRESETS)), default="default",
           help="fidelity preset"),
    Option("seed", type=int, default=None, help="grid seed override"),
    Option("branches", type=int, default=None,
           help="override the preset's measured branch count"),
    Option("warmup", type=int, default=None,
           help="override the preset's warm-up branch count"),
    Option("workload-limit", type=int, default=None,
           help="truncate the workload list to the first N entries"),
)


def build_scale(params: dict[str, Any]) -> ExperimentScale:
    """Build an :class:`ExperimentScale` from merged experiment parameters.

    Starts from the ``SCALE_PRESETS`` entry named by ``params["scale"]`` and
    applies the individual overrides (``branches``, ``warmup``, ``seed``,
    ``workload_limit``) where given.
    """
    preset = SCALE_PRESETS[params.get("scale") or "default"]
    branches = params.get("branches")
    warmup = params.get("warmup")
    seed = params.get("seed")
    return ExperimentScale(
        branch_count=branches if branches is not None else preset.branch_count,
        warmup_branches=warmup if warmup is not None else preset.warmup_branches,
        seed=seed if seed is not None else preset.seed,
        workload_limit=params.get("workload_limit"),
    )


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """A complete, declarative description of one experiment.

    Attributes:
        name: Registry name; also the CLI subcommand.
        description: One-line summary (CLI help, docs table).
        kind: Dominant job kind (informational; ``"meta"`` for listings).
        schema_version: Version of the serialized result, rendered into the
            JSON envelope as ``repro.<name>/v<version>``.
        options: Experiment-specific options, beyond the shared ones.
        uses_scale: Whether the experiment accepts the shared fidelity
            options (:data:`SCALE_OPTIONS`).
        takes_workers: Whether the experiment runs engine jobs (and hence
            accepts ``--workers`` / ``--progress``).
        default_seed: Seed used when the caller passes none; uniform across
            the CLI, scenario files, and :func:`run_experiment`.
        build_jobs: ``params -> list[Job]`` for grid experiments.
        post_process: ``(frame, params) -> result`` for grid experiments.
        execute: ``(params, workers, progress) -> result`` for experiments
            that do not reduce to one job list (bench, listings); mutually
            exclusive with ``build_jobs``.
        formatter: ``result -> str`` text rendering.
        serializer: ``result -> payload`` for the JSON envelope; defaults to
            ``dataclasses.asdict`` for dataclass results and identity
            otherwise.
        note: ``params -> str | None`` advisory printed to stderr before the
            run (e.g. figure6's pair-limit note).
        epilogue: ``(result, params) -> str | None`` line printed after
            emission (e.g. the bench artifact path).
    """

    name: str
    description: str
    kind: str = "trace"
    schema_version: int = 1
    options: tuple[Option, ...] = ()
    uses_scale: bool = False
    takes_workers: bool = True
    default_seed: int | None = None
    build_jobs: Callable[[dict[str, Any]], list[Job]] | None = None
    post_process: Callable[[ResultFrame, dict[str, Any]], Any] | None = None
    execute: Callable[..., Any] | None = None
    formatter: Callable[[Any], str] = str
    serializer: Callable[[Any], Any] | None = None
    note: Callable[[dict[str, Any]], str | None] | None = None
    epilogue: Callable[[Any, dict[str, Any]], str | None] | None = None

    def __post_init__(self) -> None:
        if (self.build_jobs is None) == (self.execute is None):
            raise ValueError(
                f"experiment {self.name!r} must declare exactly one of "
                "build_jobs or execute"
            )
        if self.build_jobs is not None and self.post_process is None:
            raise ValueError(
                f"experiment {self.name!r} declares build_jobs without post_process"
            )

    @property
    def schema(self) -> str:
        """Versioned schema tag of the serialized result."""
        return f"repro.{self.name}/v{self.schema_version}"

    def cli_options(self) -> tuple[Option, ...]:
        """Every option the experiment accepts (shared scale group first)."""
        return (SCALE_OPTIONS if self.uses_scale else ()) + self.options

    def merged_params(self, params: dict[str, Any] | None = None) -> dict[str, Any]:
        """Fill option defaults, apply the spec's default seed, reject unknowns."""
        known = {option.dest: option for option in self.cli_options()}
        merged = {dest: option.default for dest, option in known.items()}
        for key, value in (params or {}).items():
            if key not in known:
                raise ValueError(
                    f"experiment {self.name!r} does not accept parameter {key!r}; "
                    f"known parameters: {', '.join(sorted(known)) or '(none)'}"
                )
            merged[key] = value
        if "seed" in merged and merged["seed"] is None:
            merged["seed"] = self.default_seed
        return merged

    def serialize(self, result: Any) -> dict[str, Any]:
        """Wrap the result payload in the versioned JSON envelope."""
        if self.serializer is not None:
            payload = self.serializer(result)
        elif dataclasses.is_dataclass(result) and not isinstance(result, type):
            payload = dataclasses.asdict(result)
        else:
            payload = result
        return {"schema": self.schema, "spec": self.name, "result": payload}


_EXPERIMENTS: dict[str, ExperimentSpec] = {}

#: Modules whose import registers every built-in spec.  Loaded lazily so that
#: importing :mod:`repro.engine` alone does not pull the experiment drivers in.
_BUILTIN_SPEC_MODULES: tuple[str, ...] = ("repro.experiments", "repro.bench")


def register_experiment(spec: ExperimentSpec, replace: bool = False) -> ExperimentSpec:
    """Register ``spec`` under its name; refuses silent overwrites."""
    if spec.name in _EXPERIMENTS and not replace:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _EXPERIMENTS[spec.name] = spec
    return spec


def experiment_spec(name: str) -> ExperimentSpec:
    """Look up a registered spec by name (with a helpful error)."""
    load_builtin_specs()
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(_EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {name!r}; registered experiments: {known}"
        ) from None


def list_experiments() -> list[ExperimentSpec]:
    """All registered specs, sorted by name."""
    load_builtin_specs()
    return [_EXPERIMENTS[name] for name in sorted(_EXPERIMENTS)]


def load_builtin_specs() -> None:
    """Import every module that registers built-in experiment specs."""
    for module in _BUILTIN_SPEC_MODULES:
        importlib.import_module(module)


def run_experiment(
    spec: ExperimentSpec | str,
    params: dict[str, Any] | None = None,
    workers: int = 1,
    progress: ProgressCallback | None = None,
    store: Any | None = None,
) -> Any:
    """Run one experiment by spec (or registered name) and return its result.

    ``store`` is an optional :class:`~repro.store.base.ResultStore`; grid
    experiments then execute incrementally (cached cells merge from the
    store, fresh records write back).  Custom-``execute`` experiments manage
    their own execution and ignore it.
    """
    if isinstance(spec, str):
        spec = experiment_spec(spec)
    merged = spec.merged_params(params)
    if spec.execute is not None:
        return spec.execute(merged, workers=workers, progress=progress)
    jobs = spec.build_jobs(merged)
    frame = EngineRunner(workers=workers, store=store).run_jobs(
        jobs, progress=progress)
    return spec.post_process(frame, merged)


# ------------------------------------------------------------- meta commands
# Registry listings are specs too, so the CLI has no hand-written subcommands
# and library users can introspect everything through one registry.

def _list_models_execute(params: dict[str, Any], workers: int = 1,
                         progress: ProgressCallback | None = None,
                         ) -> dict[str, str]:
    from repro.engine.registry import build_model, list_models
    from repro.sim import vector

    # Sorted here, not just in the registry: listing output is a stable
    # interface (scripts diff it).  Each model carries its vector-backend
    # coverage class (kernel / guarded / fallback, see
    # :func:`repro.sim.vector.kernel_status`) so backend coverage is visible
    # at a glance.
    listing: dict[str, str] = {}
    for name in sorted(list_models()):
        try:
            status = vector.kernel_status(build_model(name, seed=0))
        except Exception:  # a listing probe must never fail the command
            status = "unavailable"
        listing[name] = status
    return listing


def _list_workloads_execute(params: dict[str, Any], workers: int = 1,
                            progress: ProgressCallback | None = None) -> list[str]:
    from repro.trace.workloads import list_workloads

    return sorted(list_workloads(params.get("category")))


def _list_experiments_execute(params: dict[str, Any], workers: int = 1,
                              progress: ProgressCallback | None = None,
                              ) -> dict[str, str]:
    return {spec.name: spec.description for spec in list_experiments()}


def _format_names(names: list[str]) -> str:
    return "\n".join(names)


def _format_model_table(table: dict[str, str]) -> str:
    width = max(len(name) for name in table)
    return "\n".join(f"{name:{width}s}  {status}"
                     for name, status in table.items())


def _format_experiment_table(table: dict[str, str]) -> str:
    width = max(len(name) for name in table)
    return "\n".join(f"{name:{width}s}  {description}"
                     for name, description in sorted(table.items()))


register_experiment(ExperimentSpec(
    name="list-models",
    description="print the model registry with vector-backend coverage",
    kind="meta",
    schema_version=2,
    takes_workers=False,
    execute=_list_models_execute,
    formatter=_format_model_table,
))

register_experiment(ExperimentSpec(
    name="list-workloads",
    description="print the workload registry",
    kind="meta",
    takes_workers=False,
    options=(Option("category", choices=("spec", "application"), default=None),),
    execute=_list_workloads_execute,
    formatter=_format_names,
))

register_experiment(ExperimentSpec(
    name="list-experiments",
    description="print the experiment registry",
    kind="meta",
    takes_workers=False,
    execute=_list_experiments_execute,
    formatter=_format_experiment_table,
))
