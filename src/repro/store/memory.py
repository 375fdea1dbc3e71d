"""In-memory result store: the test double and the ``repro serve`` default.

Payloads round-trip through canonical JSON on the way in, so a
:class:`MemoryStore` faithfully models the serialization boundary of the
on-disk store — tuples come back as lists, keys come back as strings, and a
caller mutating a retrieved payload cannot poison later hits.  Nothing is
evicted: entries live as long as the store.
"""

from __future__ import annotations

import json
import threading
from typing import Any

from repro.store.base import ResultStore
from repro.store.keys import canonical_json


class MemoryStore(ResultStore):
    """Dict-backed store with the shared counters.

    Reads, writes and stats lock the entry map: ``repro serve`` hits one
    instance from many handler threads, and a write during another
    thread's ``stats()`` iteration would raise ``RuntimeError``.
    """

    def __init__(self):
        super().__init__()
        self._entries: dict[tuple[str, str], str] = {}
        self._entries_lock = threading.Lock()

    def _read(self, namespace: str, fingerprint: str) -> Any | None:
        with self._entries_lock:
            encoded = self._entries.get((namespace, fingerprint))
        if encoded is None:
            return None
        return json.loads(encoded)

    def _write(self, namespace: str, fingerprint: str, payload: Any) -> None:
        encoded = canonical_json(payload)
        with self._entries_lock:
            self._entries[(namespace, fingerprint)] = encoded

    def contains(self, namespace: str, fingerprint: str) -> bool:
        with self._entries_lock:
            return (namespace, fingerprint) in self._entries

    def keys(self, namespace: str):
        with self._entries_lock:
            found = [fp for (ns, fp) in self._entries if ns == namespace]
        return iter(sorted(found))

    def stats(self) -> dict[str, Any]:
        namespaces: dict[str, int] = {}
        total_bytes = 0
        with self._entries_lock:
            snapshot = list(self._entries.items())
        for (namespace, _), encoded in snapshot:
            namespaces[namespace] = namespaces.get(namespace, 0) + 1
            total_bytes += len(encoded)
        return {
            "backend": "memory",
            "entries": len(snapshot),  # same view the namespace counts use
            "bytes": total_bytes,
            "namespaces": dict(sorted(namespaces.items())),
            **self.counters.to_dict(),
        }
