"""Model registry: protection models addressable by string name.

Every complete predictor model the evaluation compares is registered here
under the name the paper's figures use, so experiments, examples, tests and
the CLI can declare grids of plain strings instead of importing factory
functions.  A factory takes ``seed`` plus model-specific keyword knobs (the
re-randomization difficulty factor ``r``, ablation mechanism switches, ...)
and returns a fresh :class:`~repro.bpu.common.BranchPredictorModel`.

Model *specs* (:class:`ModelSpec`) bundle a registry name with frozen keyword
parameters and a display label; they are hashable and picklable, which is what
lets the engine ship jobs to worker processes.  Jobs carry names, not
factories: every parallel run forks fresh workers, which see the registry as
it stands at that run, so models registered at run time resolve there too
(on platforms without ``fork``, workers see only import-time registrations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.bpu.common import BranchPredictorModel
from repro.bpu.composite import make_skl_composite
from repro.bpu.perceptron import DEFAULT_PERCEPTRON
from repro.bpu.protections import (
    make_conservative,
    make_ucode_protection_1,
    make_ucode_protection_2,
    make_unprotected_baseline,
)
from repro.bpu.tage import TAGE_SC_L_8KB, TAGE_SC_L_64KB
from repro.core.monitoring import MonitorConfig
from repro.core.stbpu import (
    make_stbpu_perceptron,
    make_stbpu_skl,
    make_stbpu_tage,
    make_unprotected_perceptron,
    make_unprotected_tage,
)
from repro.engine.variants import make_stbpu_variant
from repro.security.analysis import derive_rerandomization_thresholds

ModelFactory = Callable[..., BranchPredictorModel]

_MODELS: dict[str, ModelFactory] = {}


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """A registry name plus frozen keyword parameters and a display label.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so specs are
    hashable and picklable; use :meth:`of` to build one from keywords.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()
    label: str | None = None

    @classmethod
    def of(cls, name: str, label: str | None = None, **params: Any) -> "ModelSpec":
        return cls(name=name, params=tuple(sorted(params.items())), label=label)

    @property
    def display_label(self) -> str:
        """Explicit label, or the name with params folded in (``name[k=v]``).

        Params are part of the default label so two specs of the same registry
        model with different knobs occupy distinct result-frame cells instead
        of silently overwriting each other.
        """
        if self.label is not None:
            return self.label
        if not self.params:
            return self.name
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}[{rendered}]"

    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)


def register_model(name: str, factory: ModelFactory, replace: bool = False) -> None:
    """Register ``factory`` under ``name``; refuses silent overwrites."""
    if name in _MODELS and not replace:
        raise ValueError(f"model {name!r} is already registered")
    _MODELS[name] = factory


def model_factory(name: str) -> ModelFactory:
    try:
        return _MODELS[name]
    except KeyError:
        known = ", ".join(sorted(_MODELS))
        raise KeyError(f"unknown model {name!r}; registered models: {known}") from None


def list_models() -> list[str]:
    """Names of all registered models, sorted."""
    return sorted(_MODELS)


def build_model(spec: ModelSpec | str, seed: int = 0) -> BranchPredictorModel:
    """Instantiate a fresh model from a spec (or bare registry name)."""
    if isinstance(spec, str):
        spec = ModelSpec(name=spec)
    return model_factory(spec.name)(seed=seed, **spec.kwargs())


# ----------------------------------------------------------------- built-ins

def _monitor(r: float, separate_direction_register: bool) -> MonitorConfig:
    return derive_rerandomization_thresholds(
        r=r, separate_direction_register=separate_direction_register
    )


def _register_builtins() -> None:
    register_model("baseline", lambda seed=0: make_unprotected_baseline())
    register_model("SKLCond", lambda seed=0: make_skl_composite(name="SKLCond"))
    register_model("ucode_protection_1", lambda seed=0: make_ucode_protection_1())
    register_model("ucode_protection_2", lambda seed=0: make_ucode_protection_2())
    register_model(
        "conservative",
        lambda seed=0, partitions=4: make_conservative(partitions=partitions),
    )
    register_model(
        "ST_SKLCond",
        lambda seed=0, r=0.05: make_stbpu_skl(
            monitor_config=_monitor(r, separate_direction_register=False), seed=seed
        ),
    )
    register_model(
        "PerceptronBP", lambda seed=0: make_unprotected_perceptron(DEFAULT_PERCEPTRON)
    )
    register_model(
        "ST_PerceptronBP",
        lambda seed=0, r=0.05: make_stbpu_perceptron(
            DEFAULT_PERCEPTRON,
            monitor_config=_monitor(r, separate_direction_register=True),
            seed=seed,
        ),
    )
    for tage_config in (TAGE_SC_L_64KB, TAGE_SC_L_8KB):
        register_model(
            tage_config.name,
            lambda seed=0, _config=tage_config: make_unprotected_tage(_config),
        )
        register_model(
            f"ST_{tage_config.name}",
            lambda seed=0, r=0.05, _config=tage_config: make_stbpu_tage(
                _config,
                monitor_config=_monitor(r, separate_direction_register=True),
                seed=seed,
            ),
        )
    register_model("stbpu_variant", make_stbpu_variant)


_register_builtins()
