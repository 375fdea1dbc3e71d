"""Probabilistic fault injection for the serving tier.

The serving stack (``repro serve`` + ``repro.store.jobs``) claims to survive
slow, failing and corrupting stores as well as wedged jobs.  This module is
how that claim is exercised: a :class:`FaultPlan` describes *which* faults to
inject at *what* rates, a :class:`FaultInjector` rolls the (seeded) dice, and
:class:`FaultyStore` applies the rolls to every store round-trip while
delegating real persistence to the wrapped backend.

Faults are injected at the store boundary only — the engine underneath stays
deterministic, so a serving tier that degrades correctly produces envelopes
byte-identical to a fault-free run (the CI chaos smoke pins exactly that).

Plans come from three places, in priority order:

* the CLI: ``repro serve --faults "error=0.2,latency=0.1,seed=7"``,
* the environment: ``REPRO_FAULTS`` with the same mini-language,
* tests constructing :class:`FaultPlan` directly.

This module is intentionally *outside* the determinism lint's scope: it uses
wall-clock sleeps and its RNG is seeded per plan, not per experiment.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.obs import metrics as obs_metrics
from repro.store.base import ResultStore

#: Environment variable carrying a fault spec (same syntax as ``--faults``).
FAULTS_ENV = "REPRO_FAULTS"

#: Sentinel payload returned for a corrupted read: schema-invalid for every
#: consumer (job records, envelopes, job state), so each degrades to a miss.
CORRUPT_PAYLOAD = {"schema": "repro.fault/corrupt", "injected": True}

_RATE_FIELDS = frozenset({"error", "latency", "corrupt"})
_SECONDS_FIELDS = frozenset({"latency_seconds", "hang_seconds"})


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Immutable description of the faults to inject and their rates."""

    error_rate: float = 0.0       # P(raise OSError) per store get/put
    latency_rate: float = 0.0     # P(sleep latency_seconds) per get/put
    latency_seconds: float = 0.01
    corrupt_rate: float = 0.0     # P(mangle payload) per successful get
    seed: int = 0                 # injector RNG seed (reproducible chaos)
    hang: str = ""                # substring of scenario names to wedge
    hang_seconds: float = 3600.0  # how long a matched job stays wedged

    def __post_init__(self) -> None:
        for name in ("error_rate", "latency_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault {name} must be in [0, 1], got {rate!r}")
        for name in ("latency_seconds", "hang_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"fault {name} must be >= 0")

    @property
    def active(self) -> bool:
        return bool(self.error_rate or self.latency_rate
                    or self.corrupt_rate or self.hang)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the ``key=value,key=value`` fault mini-language.

    Keys: ``error``, ``latency``, ``corrupt`` (rates in ``[0, 1]``),
    ``latency_seconds``, ``hang_seconds`` (non-negative seconds), ``seed``
    (int) and ``hang`` (substring matched against scenario names).
    """
    fields: dict[str, Any] = {}
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, separator, value = clause.partition("=")
        key = key.strip()
        value = value.strip()
        if not separator or not value:
            raise ValueError(f"invalid fault clause {clause!r}: expected key=value")
        if key in _RATE_FIELDS:
            fields[f"{key}_rate"] = float(value)
        elif key in _SECONDS_FIELDS:
            fields[key] = float(value)
        elif key == "seed":
            fields[key] = int(value)
        elif key == "hang":
            fields[key] = value
        else:
            raise ValueError(f"unknown fault key {key!r}")
    return FaultPlan(**fields)


def plan_from_env(environ: dict[str, str] | None = None) -> FaultPlan | None:
    """The ``$REPRO_FAULTS`` plan, or ``None`` when unset/empty."""
    spec = (environ if environ is not None else os.environ).get(FAULTS_ENV)
    return parse_fault_spec(spec) if spec else None


class FaultInjector:
    """Seeded dice plus counters, shared by every wrapper of one plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self.injected_errors = 0
        self.injected_latency = 0
        self.injected_corruption = 0
        self.hangs = 0

    def roll(self, rate: float) -> bool:
        if rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < rate

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "injected_errors": self.injected_errors,
                "injected_latency": self.injected_latency,
                "injected_corruption": self.injected_corruption,
                "hangs": self.hangs,
            }

    def _count(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
        # Bridge into the process-wide registry outside our lock (the
        # registry lock stays a leaf).
        obs_metrics.inc("repro_faults_injected_total", kind=name)

    # -- store-facing perturbations -----------------------------------------

    def perturb(self) -> None:
        """Maybe sleep, maybe raise — the prelude of every store round-trip."""
        if self.roll(self.plan.latency_rate):
            self._count("injected_latency")
            time.sleep(self.plan.latency_seconds)
        if self.roll(self.plan.error_rate):
            self._count("injected_errors")
            raise OSError("injected store fault")

    def maybe_corrupt(self, payload: Any) -> Any:
        if payload is not None and self.roll(self.plan.corrupt_rate):
            self._count("injected_corruption")
            return dict(CORRUPT_PAYLOAD)
        return payload

    # -- job-facing hook ----------------------------------------------------

    def maybe_hang(self, name: str,
                   should_abort: Callable[[], bool] | None = None,
                   tick: float = 0.05) -> bool:
        """Wedge the calling job if ``name`` matches the plan's ``hang``.

        Sleeps in short ticks honouring ``should_abort`` so a supervisor that
        fires the job's deadline reclaims the worker promptly.  Returns
        whether a hang was injected.
        """
        if not self.plan.hang or self.plan.hang not in name:
            return False
        self._count("hangs")
        deadline = time.monotonic() + self.plan.hang_seconds
        while time.monotonic() < deadline:
            if should_abort is not None and should_abort():
                break
            time.sleep(min(tick, self.plan.hang_seconds))
        return True


class FaultyStore(ResultStore):
    """A store wrapper that injects latency, errors and corruption into
    ``get``/``put`` and forwards the rest of the protocol to ``inner``.

    It shares the inner store's :class:`~repro.store.base.StoreCounters`, so
    callers that reclassify counters (the runner demoting a corrupt hit to a
    miss) keep working unchanged.  An injected corruption happens *after*
    the inner store counted the read as a hit — callers that validate
    payloads (runner, serve) reclassify it, exactly as they do for real
    corruption that slips past the backend's own checks.
    """

    def __init__(self, inner: ResultStore,
                 plan: FaultPlan | FaultInjector) -> None:
        self.inner = inner
        self.counters = inner.counters
        self.injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)

    def get(self, namespace: str, fingerprint: str) -> Any | None:
        self.injector.perturb()
        return self.injector.maybe_corrupt(self.inner.get(namespace, fingerprint))

    def put(self, namespace: str, fingerprint: str, payload: Any) -> None:
        self.injector.perturb()
        self.inner.put(namespace, fingerprint, payload)

    def contains(self, namespace: str, fingerprint: str) -> bool:
        return self.inner.contains(namespace, fingerprint)

    def keys(self, namespace: str) -> Iterator[str]:
        return self.inner.keys(namespace)

    def stats(self) -> dict[str, Any]:
        stats = dict(self.inner.stats())
        stats["faults"] = self.injector.counters()
        return stats


def wrap_store(store: ResultStore | None,
               plan: FaultPlan | None) -> tuple[ResultStore | None, FaultInjector | None]:
    """Apply ``plan`` to ``store``; identity when either is absent/inactive."""
    if store is None or plan is None or not plan.active:
        return store, None
    faulty = FaultyStore(store, plan)
    return faulty, faulty.injector
