"""Canonical fingerprints: stable content-addressed keys for cached results.

A *job fingerprint* is a SHA-256 over everything that determines a job's
result — kind, model spec (name, frozen params, display label), workload,
trace-length knobs, seeds, extra parameters — plus
:data:`RESULT_SCHEMA_VERSION`.  It deliberately excludes two things:

* the job's grid ``index`` (position in a grid is presentation, not
  identity — that is what lets a new grid reuse the overlapping half of an
  old one), and
* the replay backend (``reference`` and ``vector`` are parity-tested
  byte-identical, so a record computed under either backend answers for
  both).

Fingerprints are hex strings, so they double as object filenames in the
on-disk store and as URL path components for ``repro serve``.

Cache invalidation is by schema version, not by deletion: bumping
:data:`RESULT_SCHEMA_VERSION` changes every fingerprint, so records written
by older code simply stop matching (and age out of a size-capped store via
LRU eviction).  Bump it whenever the simulation's numeric outputs or the
serialized record shape change meaning.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: Version of the result schema folded into every fingerprint.  Bump on any
#: change that alters what a stored record means (simulator semantics, metric
#: definitions, record shape): old records then miss instead of lying.
RESULT_SCHEMA_VERSION = 1

#: Job kinds whose records are safe to cache: their outcome is a pure
#: function of the fingerprint fields.  ``table`` jobs are excluded — their
#: payloads aggregate large nested driver output whose shape is not covered
#: by the job's own parameters.
CACHEABLE_KINDS = frozenset({"trace", "cpu", "smt", "hashgen", "attack"})


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` canonically: sorted keys, compact separators.

    Tuples become lists (so tuple- and list-shaped inputs hash identically)
    and any non-JSON value falls back to ``str`` — deterministically, since
    every value reaching a fingerprint is plain data.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def fingerprint_of(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _canonical_workload(workload: Any) -> Any:
    if isinstance(workload, tuple):
        return list(workload)
    return workload


def _canonical_model(model: Any) -> Any:
    if model is None:
        return None
    return {
        "name": model.name,
        "params": [[key, value] for key, value in model.params],
        # The display label lands verbatim in the record's ``model`` column,
        # so it is part of result identity even though it never reaches the
        # simulator.
        "label": model.display_label,
    }


#: :class:`~repro.engine.grid.Job` fields *deliberately* excluded from result
#: identity.  The ``fingerprint-coverage`` lint rule enforces that every
#: other field is read by :func:`job_fingerprint_fields`, so a new field
#: cannot be serialized into records without deciding its cache identity.
#:
#: * ``index`` — position in a grid is presentation, not identity; excluding
#:   it is what lets a new grid reuse the overlapping half of an old one.
JOB_FINGERPRINT_EXEMPT = frozenset({"index"})

#: :class:`~repro.engine.scenario.Scenario` fields excluded from the
#: envelope fingerprint (same lint contract as above).
#:
#: * ``description`` — free-text documentation; it never reaches
#:   ``serialize_scenario``'s payload, so it cannot shape a cached envelope.
SCENARIO_FINGERPRINT_EXEMPT = frozenset({"description"})


def job_fingerprint_fields(job: Any) -> dict[str, Any]:
    """The canonical field mapping a job fingerprint hashes (for debugging,
    ``repro store verify`` reports, and the docs)."""
    return {
        "result_schema": RESULT_SCHEMA_VERSION,
        "kind": job.kind,
        "model": _canonical_model(job.model),
        "workload": _canonical_workload(job.workload),
        "branch_count": job.branch_count,
        "warmup_branches": job.warmup_branches,
        "seed": job.seed,
        "trace_seed": job.trace_seed,
        # Sorted so identity never depends on a producer's tuple order —
        # the same logical job must fingerprint identically from every
        # entry point (EXPERIMENTS.md documents the field as sorted).
        "params": [[key, value] for key, value in sorted(job.params)],
    }


def job_fingerprint(job: Any) -> str:
    """Stable content-address of one engine job's result."""
    return fingerprint_of(job_fingerprint_fields(job))


def scenario_fingerprint(scenario: Any) -> str:
    """Stable content-address of a whole scenario's result envelope.

    Hashes the validated :class:`~repro.engine.scenario.Scenario` fields that
    shape the envelope — including presentation fields (``name``, ``metrics``,
    ``baseline``) because they appear in the serialized payload — plus the
    scenario schema tag and :data:`RESULT_SCHEMA_VERSION`.
    """
    from repro.engine.scenario import SCENARIO_SCHEMA  # avoid an import cycle

    payload = {
        "schema": SCENARIO_SCHEMA,
        "result_schema": RESULT_SCHEMA_VERSION,
        "name": scenario.name,
        "kind": scenario.kind,
        "models": [_canonical_model(model) for model in scenario.models],
        "workloads": [_canonical_workload(w) for w in scenario.workloads],
        "attacks": list(scenario.attacks),
        "scale": {
            "branch_count": scenario.scale.branch_count,
            "warmup_branches": scenario.scale.warmup_branches,
            "seed": scenario.scale.seed,
            "workload_limit": scenario.scale.workload_limit,
        },
        "seed_policy": scenario.seed_policy,
        "params": dict(scenario.params),
        "baseline": scenario.baseline,
        "metrics": list(scenario.metrics),
    }
    return fingerprint_of(payload)
