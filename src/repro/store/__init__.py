"""Content-addressed experiment store: cache once, serve forever.

The engine's results are deterministic and bit-identical across backends,
worker counts and start methods, which makes every job's full input a valid
cache key.  This package turns that guarantee into a persistence layer:

* :mod:`repro.store.keys` — canonical fingerprints of jobs and scenarios,
* :mod:`repro.store.base` — the namespaced get/put store protocol,
* :mod:`repro.store.memory` — the in-memory layer (tests, default server),
* :mod:`repro.store.disk` — the on-disk sharded gzip-JSON store with atomic
  writes, an in-memory index built by one scan at open, LRU eviction on
  demand (``repro store gc --max-bytes``) and counters,
* :mod:`repro.store.serve` — the ``repro serve`` HTTP front-end (imported
  on demand; not re-exported here to keep ``repro.store`` import-light for
  the engine runner).

The engine consumes a store through
:class:`~repro.engine.runner.EngineRunner`'s ``store`` argument: jobs whose
fingerprints resolve are merged from the store, only the missing cells
execute, and fresh records are written back.  ``REPRO_STORE`` names a default
store directory; the CLI's ``--store DIR`` / ``--no-store`` override it.
"""

from __future__ import annotations

import os

from repro.store.base import (
    ENVELOPE_NAMESPACE,
    JOB_NAMESPACE,
    ResultStore,
    StoreCounters,
)
from repro.store.disk import RECORD_SCHEMA, DiskStore
from repro.store.keys import (
    CACHEABLE_KINDS,
    RESULT_SCHEMA_VERSION,
    canonical_json,
    fingerprint_of,
    job_fingerprint,
    job_fingerprint_fields,
    scenario_fingerprint,
)
from repro.store.memory import MemoryStore

#: Environment variable naming the default store directory.
STORE_ENV = "REPRO_STORE"


def default_store_path() -> str | None:
    """The ``REPRO_STORE`` directory, or ``None`` when unset/empty."""
    return os.environ.get(STORE_ENV) or None


def open_store(path: str | None = None,
               enabled: bool = True) -> DiskStore | None:
    """Resolve the store an invocation should use.

    ``enabled=False`` (the CLI's ``--no-store``) always yields ``None``;
    otherwise an explicit ``path`` wins, then ``$REPRO_STORE``, then no store.
    """
    if not enabled:
        return None
    resolved = path or default_store_path()
    if not resolved:
        return None
    return DiskStore(resolved)


__all__ = [
    "CACHEABLE_KINDS",
    "ENVELOPE_NAMESPACE",
    "JOB_NAMESPACE",
    "RECORD_SCHEMA",
    "RESULT_SCHEMA_VERSION",
    "STORE_ENV",
    "DiskStore",
    "MemoryStore",
    "ResultStore",
    "StoreCounters",
    "canonical_json",
    "default_store_path",
    "fingerprint_of",
    "job_fingerprint",
    "job_fingerprint_fields",
    "open_store",
    "scenario_fingerprint",
]
