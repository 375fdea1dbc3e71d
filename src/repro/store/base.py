"""The store protocol: namespaced get/put of JSON payloads with counters.

Stores are content-addressed key/value maps: a *namespace* (``"job"`` for
engine job records, ``"envelope"`` for whole-experiment envelopes) plus a
fingerprint (see :mod:`repro.store.keys`) addresses one JSON-serializable
payload.  Payloads are immutable once written — the fingerprint covers every
input that determines them, so two writers racing on the same key are by
construction writing identical content and "last write wins" is correct.

:class:`ResultStore` carries the shared counter bookkeeping; concrete
backends (:class:`~repro.store.memory.MemoryStore`,
:class:`~repro.store.disk.DiskStore`) implement the raw read/write.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs import metrics as obs_metrics

#: Namespace of cached engine job records.
JOB_NAMESPACE = "job"

#: Namespace of cached whole-experiment envelopes (``repro serve``).
ENVELOPE_NAMESPACE = "envelope"

#: Namespace of persisted span trees (``repro.obs.spans``) — one per
#: completed job, read by ``GET /v1/jobs/<fp>/trace`` and ``repro obs``.
OBSTRACE_NAMESPACE = "obstrace"

_HEX_DIGITS = frozenset("0123456789abcdef")


def validate_key(namespace: str, fingerprint: str) -> None:
    """Reject keys that could escape the store's directory layout."""
    if not namespace or not namespace.isidentifier():
        raise ValueError(f"invalid store namespace {namespace!r}")
    if len(fingerprint) < 8 or not set(fingerprint) <= _HEX_DIGITS:
        raise ValueError(
            f"invalid fingerprint {fingerprint!r}: expected a lowercase hex "
            "digest of at least 8 characters"
        )


@dataclass(slots=True)
class StoreCounters:
    """Cumulative effectiveness counters of one store instance.

    Mutate via :meth:`add` — ``repro serve`` updates one instance from many
    handler threads, and bare ``+=`` would lose increments.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt: int = 0
    retried: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)

    def add(self, **deltas: int) -> None:
        """Atomically apply ``counter=delta`` updates (all under one lock,
        so e.g. a hit reclassified as a miss is never observed half-done)."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)
        # Bridge into the process-wide registry, outside our lock (the
        # registry lock is a leaf; never nest it inside counter updates).
        # Deltas mirror verbatim, including the rare negative ones from a
        # hit reclassified as a miss — the registry aggregates every store
        # instance in the process into one series per counter.
        for name, delta in deltas.items():
            if delta:
                obs_metrics.inc(f"repro_store_{name}_total", delta)

    def to_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "retried": self.retried,
            }


class ResultStore:
    """Base class: counter bookkeeping around backend ``_read``/``_write``.

    Subclasses implement ``_read(namespace, fingerprint) -> payload | None``
    (returning ``None`` for both absence and unreadable content, after
    incrementing :attr:`counters.corrupt <StoreCounters.corrupt>` for the
    latter) and ``_write(namespace, fingerprint, payload)``.
    """

    def __init__(self) -> None:
        self.counters = StoreCounters()

    def get(self, namespace: str, fingerprint: str) -> Any | None:
        """The stored payload, or ``None`` on a miss (absence or corruption)."""
        validate_key(namespace, fingerprint)
        started = time.perf_counter()
        payload = self._read(namespace, fingerprint)
        obs_metrics.observe("repro_store_op_seconds",
                            time.perf_counter() - started, op="get")
        if payload is None:
            self.counters.add(misses=1)
            return None
        self.counters.add(hits=1)
        return payload

    def put(self, namespace: str, fingerprint: str, payload: Any) -> None:
        """Store ``payload`` under the key (atomic; last identical write wins)."""
        validate_key(namespace, fingerprint)
        started = time.perf_counter()
        self._write(namespace, fingerprint, payload)
        obs_metrics.observe("repro_store_op_seconds",
                            time.perf_counter() - started, op="put")
        self.counters.add(writes=1)

    def contains(self, namespace: str, fingerprint: str) -> bool:
        """Whether the key currently resolves (without counting a hit/miss)."""
        raise NotImplementedError

    def keys(self, namespace: str) -> Iterator[str]:
        """Iterate the fingerprints stored under ``namespace`` (sorted).

        Listing is an offline/CLI affordance (``repro obs top``), not a hot
        path — backends may scan storage to answer it.
        """
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """Counters plus backend-specific occupancy (entries, bytes, ...).

        Answered from memory, without a storage scan: ``repro serve`` calls
        it on every scrape and health probe.
        """
        raise NotImplementedError

    # -- backend hooks ------------------------------------------------------

    def _read(self, namespace: str, fingerprint: str) -> Any | None:
        raise NotImplementedError

    def _write(self, namespace: str, fingerprint: str, payload: Any) -> None:
        raise NotImplementedError

