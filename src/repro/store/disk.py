"""On-disk content-addressed store: sharded gzip-JSON records.

Layout (``repro.store/v1``)::

    <root>/objects/<ns>/<ff>/<fingerprint>.json.gz

where ``<ns>`` is the namespace (``job``, ``envelope``) and ``<ff>`` the
first two hex digits of the fingerprint — a shard fan-out that keeps
directory listings short.

Every object is a gzip-compressed canonical-JSON *record envelope*::

    {"schema": "repro.store.record/v1", "namespace": ..., "fingerprint": ...,
     "version": "<repro version>", "payload": {...}}

Robustness properties, in order of importance:

* **The objects are the whole truth.**  Reads resolve straight to the object
  path.  Occupancy (:meth:`DiskStore.stats`, :meth:`DiskStore.keys`) comes
  from one in-memory index that a scan of ``objects/`` builds when the store
  opens; this instance's writes and corrupt-object drops keep it exact, and
  :meth:`DiskStore.gc` / :meth:`DiskStore.verify` rebuild it from their own
  walk.  Records another process writes show up at the next open, gc or
  verify.  Nothing outside ``objects/`` is read, so files an older store
  left beside it are ignored.
* **Writes are atomic.**  Records are written to a same-directory temp file
  and published with :func:`os.replace`; a reader never observes a partial
  record, and two processes racing on one fingerprint both publish the same
  (content-addressed, hence identical) bytes.
* **Corruption degrades to a recompute.**  Truncated gzip, malformed JSON,
  a record whose embedded fingerprint disagrees with its filename — every
  such read counts ``corrupt``, deletes the bad object, and reports a miss.
* **Size is bounded on demand.**  :meth:`DiskStore.gc` (``repro store gc
  --max-bytes N``) evicts least-recently-*used* records, by file mtime,
  which every hit refreshes.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import threading
import time
from typing import Any

from repro.store.base import ResultStore, validate_key
from repro.store.keys import canonical_json
from repro.version import __version__

#: Schema tag of each on-disk record envelope.
RECORD_SCHEMA = "repro.store.record/v1"

_OBJECTS_DIR = "objects"
_SUFFIX = ".json.gz"


def _record_matches(record: Any, namespace: str, fingerprint: str) -> bool:
    """Whether a decoded record envelope is the record its address claims.

    Shared by the read path and :meth:`DiskStore.verify` so both always agree
    on what counts as corrupt.
    """
    return (
        isinstance(record, dict)
        and record.get("schema") == RECORD_SCHEMA
        and record.get("namespace") == namespace
        and record.get("fingerprint") == fingerprint
        and "payload" in record
    )


#: A ``.tmp`` file older than this is a crash leftover gc may sweep; younger
#: ones may belong to a writer racing gc (held for milliseconds normally).
_TEMP_STALE_SECONDS = 60.0


class DiskStore(ResultStore):
    """Sharded on-disk store with atomic writes and on-demand LRU eviction.

    Args:
        root: Store directory (created on first use).
    """

    def __init__(self, root: str):
        super().__init__()
        self.root = os.path.abspath(os.fspath(root))
        os.makedirs(os.path.join(self.root, _OBJECTS_DIR), exist_ok=True)
        # The one index: ``namespace/fingerprint`` -> object bytes, for
        # stats() and keys().  Reads never consult it.  Index mutations
        # happen from many threads under `repro serve` (a GET dropping a
        # corrupt object races a POST's write-back).
        self._index = self._scan_entries()
        self._index_lock = threading.Lock()

    # ------------------------------------------------------------ raw access

    def object_path(self, namespace: str, fingerprint: str) -> str:
        """Absolute path of the (possibly absent) object for a key."""
        validate_key(namespace, fingerprint)
        return os.path.join(
            self.root, _OBJECTS_DIR, namespace, fingerprint[:2],
            fingerprint + _SUFFIX,
        )

    def _read(self, namespace: str, fingerprint: str) -> Any | None:
        path = self.object_path(namespace, fingerprint)
        try:
            with gzip.open(path, "rb") as handle:
                record = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, EOFError, ValueError, UnicodeDecodeError):
            # Truncated gzip stream, malformed JSON, half-written garbage:
            # drop the object so the recomputed record can take its place.
            self._drop_corrupt(namespace, fingerprint, path)
            return None
        if not _record_matches(record, namespace, fingerprint):
            # The record is readable but is not the record its address
            # claims (copied into the wrong slot, foreign schema, renamed by
            # hand).
            self._drop_corrupt(namespace, fingerprint, path)
            return None
        self._touch(path)
        return record["payload"]

    def _write(self, namespace: str, fingerprint: str, payload: Any) -> None:
        path = self.object_path(namespace, fingerprint)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        record = {
            "schema": RECORD_SCHEMA,
            "namespace": namespace,
            "fingerprint": fingerprint,
            "version": __version__,
            "payload": payload,
        }
        # mtime=0 keeps the compressed bytes deterministic, so concurrent
        # writers of one fingerprint publish identical files.
        raw = gzip.compress(canonical_json(record).encode("utf-8"), mtime=0)
        try:
            self._publish(raw, path, directory, fingerprint)
        except OSError:
            # Transient OS errors (EINTR, ENOSPC freed by a concurrent GC,
            # NFS hiccups) deserve exactly one more attempt before the
            # caller degrades to uncached serving.
            self.counters.add(retried=1)
            self._publish(raw, path, directory, fingerprint)
        with self._index_lock:
            self._index[f"{namespace}/{fingerprint}"] = len(raw)

    def _publish(self, raw: bytes, path: str, directory: str,
                 fingerprint: str) -> None:
        """One atomic write attempt: temp file in ``directory``, then rename."""
        descriptor, temp_path = tempfile.mkstemp(
            prefix=fingerprint[:8] + ".", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(raw)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def contains(self, namespace: str, fingerprint: str) -> bool:
        return os.path.exists(self.object_path(namespace, fingerprint))

    # -------------------------------------------------------------- scanning

    def _scan_objects(self) -> list[tuple[str, str, str]]:
        """Every object on disk as ``(namespace, fingerprint, path)``."""
        objects = []
        objects_root = os.path.join(self.root, _OBJECTS_DIR)
        for directory, _, filenames in os.walk(objects_root):
            for filename in filenames:
                if not filename.endswith(_SUFFIX):
                    continue
                relative = os.path.relpath(
                    os.path.join(directory, filename), objects_root)
                parts = relative.split(os.sep)
                if len(parts) != 3:
                    continue
                namespace, _, _ = parts
                fingerprint = filename[: -len(_SUFFIX)]
                objects.append(
                    (namespace, fingerprint, os.path.join(directory, filename)))
        return sorted(objects)

    def _scan_entries(self) -> dict[str, int]:
        entries = {}
        for namespace, fingerprint, path in self._scan_objects():
            try:
                entries[f"{namespace}/{fingerprint}"] = os.path.getsize(path)
            except OSError:
                continue
        return entries

    # ------------------------------------------------------------ lifecycle

    def _touch(self, path: str) -> None:
        try:
            os.utime(path)  # refresh mtime: the LRU recency signal
        except OSError:
            pass

    def _drop_corrupt(self, namespace: str, fingerprint: str, path: str) -> None:
        self.counters.add(corrupt=1)
        try:
            os.unlink(path)
        except OSError:
            pass
        with self._index_lock:
            self._index.pop(f"{namespace}/{fingerprint}", None)

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Sweep stray temp files, evict least-recently-used records down to
        ``max_bytes`` when given, and rebuild the index; returns a summary.

        ``max_bytes=0`` empties the store deliberately; negative caps are
        rejected rather than silently behaving like 0.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        removed_temp = 0
        # Only sweep temp files old enough to be crash leftovers: a live
        # writer holds its .tmp for milliseconds between mkstemp and
        # os.replace, and unlinking it would make that replace fail.
        stale_before = time.time() - _TEMP_STALE_SECONDS
        for directory, _, filenames in os.walk(self.root):
            for filename in filenames:
                if not filename.endswith(".tmp"):
                    continue
                path = os.path.join(directory, filename)
                try:
                    if os.path.getmtime(path) >= stale_before:
                        continue
                    os.unlink(path)
                    removed_temp += 1
                except OSError:
                    pass
        aged = []
        for namespace, fingerprint, path in self._scan_objects():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            aged.append((stat.st_mtime, f"{namespace}/{fingerprint}", path,
                         stat.st_size))
        entries = {key: size for _, key, _, size in aged}
        evicted = 0
        if max_bytes is not None:
            total = sum(entries.values())
            for _, key, path, size in sorted(aged):
                if total <= max_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted += 1
                del entries[key]
            self.counters.add(evictions=evicted)
        with self._index_lock:
            self._index = entries
        return {
            "evicted": evicted,
            "temp_files_removed": removed_temp,
            **self._occupancy(),
        }

    def verify(self) -> list[str]:
        """Check every object; delete what cannot be served.

        Unreadable or mislabelled objects are deleted (counted ``corrupt``)
        and the index is rebuilt from the surviving objects.  Returns
        human-readable issue strings (empty means every record was sound).
        """
        issues: list[str] = []
        survivors: dict[str, int] = {}
        for namespace, fingerprint, path in self._scan_objects():
            key = f"{namespace}/{fingerprint}"
            try:
                with gzip.open(path, "rb") as handle:
                    record = json.loads(handle.read().decode("utf-8"))
            except (OSError, EOFError, ValueError, UnicodeDecodeError):
                issues.append(f"unreadable record {key}: removed")
                self.counters.add(corrupt=1)
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            if not _record_matches(record, namespace, fingerprint):
                issues.append(
                    f"record {key} does not match its address "
                    f"(schema={record.get('schema')!r}, "
                    f"fingerprint={str(record.get('fingerprint'))[:16]!r}): removed")
                self.counters.add(corrupt=1)
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            try:
                survivors[key] = os.path.getsize(path)
            except OSError:
                continue
        with self._index_lock:
            self._index = survivors
        return issues

    def keys(self, namespace: str):
        """Sorted fingerprints under ``namespace`` from the index — the
        listing backend of ``repro obs top``."""
        prefix = namespace + "/"
        with self._index_lock:
            found = [key[len(prefix):] for key in self._index
                     if key.startswith(prefix)]
        return iter(sorted(found))

    # ----------------------------------------------------------------- stats

    def _occupancy(self) -> dict[str, Any]:
        """Entries, bytes and per-namespace counts from the index."""
        with self._index_lock:
            entries = list(self._index.items())
        namespaces: dict[str, int] = {}
        for key, _ in entries:
            namespace = key.split("/", 1)[0]
            namespaces[namespace] = namespaces.get(namespace, 0) + 1
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size in entries),
            "namespaces": dict(sorted(namespaces.items())),
        }

    def stats(self) -> dict[str, Any]:
        return {
            "backend": "disk",
            "root": self.root,
            **self._occupancy(),
            **self.counters.to_dict(),
        }
