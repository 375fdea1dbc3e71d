"""Tests for the on-disk content-addressed store: layout, atomicity, LRU
eviction by gc, corruption handling, the in-memory index, and concurrent
writers."""

import gzip
import json
import multiprocessing
import os
import time

import pytest

from repro.store import DiskStore, MemoryStore, RECORD_SCHEMA, canonical_json

FP_A = "a" * 64
FP_B = "b" * 64
FP_C = "c" * 64


@pytest.fixture()
def store(tmp_path):
    return DiskStore(str(tmp_path / "store"))


class TestRoundTrip:
    def test_get_returns_none_on_absence(self, store):
        assert store.get("job", FP_A) is None
        assert store.counters.misses == 1

    def test_put_get_roundtrip(self, store):
        payload = {"kind": "trace", "metrics": {"oae_accuracy": 0.875}}
        store.put("job", FP_A, payload)
        assert store.get("job", FP_A) == payload
        assert store.counters.hits == 1
        assert store.counters.writes == 1

    def test_json_boundary_normalizes_tuples(self, store):
        store.put("job", FP_A, {"pair": ("505.mcf", "519.lbm")})
        assert store.get("job", FP_A) == {"pair": ["505.mcf", "519.lbm"]}

    def test_objects_are_sharded_by_fingerprint_prefix(self, store):
        store.put("job", FP_A, {})
        path = store.object_path("job", FP_A)
        assert os.path.exists(path)
        assert os.sep + os.path.join("objects", "job", "aa") + os.sep in path

    def test_namespaces_are_distinct(self, store):
        store.put("job", FP_A, {"x": 1})
        store.put("envelope", FP_A, {"x": 2})
        assert store.get("job", FP_A) == {"x": 1}
        assert store.get("envelope", FP_A) == {"x": 2}

    def test_invalid_keys_are_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("..", FP_A, {})
        with pytest.raises(ValueError):
            store.get("job", "../escape")
        with pytest.raises(ValueError):
            store.get("job", "short")

    def test_no_temp_files_survive_a_write(self, store):
        store.put("job", FP_A, {"x": 1})
        leftovers = [name for _, _, files in os.walk(store.root)
                     for name in files if name.endswith(".tmp")]
        assert leftovers == []

    def test_identical_writes_produce_identical_bytes(self, store, tmp_path):
        # Content-addressed writes are deterministic, so two processes racing
        # on one fingerprint publish the same file — last-wins is harmless.
        other = DiskStore(str(tmp_path / "other"))
        store.put("job", FP_A, {"metrics": {"x": 1.5}})
        other.put("job", FP_A, {"metrics": {"x": 1.5}})
        with open(store.object_path("job", FP_A), "rb") as a, \
                open(other.object_path("job", FP_A), "rb") as b:
            assert a.read() == b.read()


class TestCorruption:
    def test_truncated_record_degrades_to_a_miss(self, store):
        store.put("job", FP_A, {"metrics": {"x": 1.0}})
        path = store.object_path("job", FP_A)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        assert store.get("job", FP_A) is None
        assert store.counters.corrupt == 1
        assert not os.path.exists(path), "corrupt object must be dropped"
        # The slot is reusable afterwards.
        store.put("job", FP_A, {"metrics": {"x": 2.0}})
        assert store.get("job", FP_A) == {"metrics": {"x": 2.0}}

    def test_garbage_bytes_degrade_to_a_miss(self, store):
        path = store.object_path("job", FP_A)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"this is not gzip")
        assert store.get("job", FP_A) is None
        assert store.counters.corrupt == 1

    def test_record_under_wrong_address_degrades_to_a_miss(self, store):
        # A record whose embedded fingerprint disagrees with its filename
        # (hand-copied, renamed, index drift) must not be served.
        store.put("job", FP_A, {"x": 1})
        import shutil

        target = store.object_path("job", FP_B)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy(store.object_path("job", FP_A), target)
        assert store.get("job", FP_B) is None
        assert store.counters.corrupt == 1
        assert store.get("job", FP_A) == {"x": 1}

    def test_foreign_schema_record_is_rejected(self, store):
        path = store.object_path("job", FP_A)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = {"schema": "someone.elses/v9", "namespace": "job",
                "fingerprint": FP_A, "payload": {"x": 1}}
        with open(path, "wb") as handle:
            handle.write(gzip.compress(canonical_json(body).encode()))
        assert store.get("job", FP_A) is None
        assert store.counters.corrupt == 1


class TestWriteRetry:
    def test_transient_publish_failure_is_retried_once(self, store):
        # NFS-style blips (ESTALE, EINTR-adjacent rename races) deserve one
        # immediate retry before the error propagates.
        real = store._publish
        failures = [OSError("stale file handle")]

        def flaky(*args, **kwargs):
            if failures:
                raise failures.pop()
            return real(*args, **kwargs)

        store._publish = flaky
        store.put("job", FP_A, {"metrics": {"x": 1.0}})
        assert store.get("job", FP_A) == {"metrics": {"x": 1.0}}
        assert store.counters.retried == 1
        assert store.counters.writes == 1

    def test_persistent_publish_failure_raises_after_one_retry(self, store):
        calls = []

        def broken(*args, **kwargs):
            calls.append(1)
            raise OSError("disk full")

        store._publish = broken
        with pytest.raises(OSError, match="disk full"):
            store.put("job", FP_A, {"x": 1})
        assert len(calls) == 2  # the attempt and its single retry
        assert store.counters.retried == 1
        assert store.counters.writes == 0

    def test_retried_counter_is_reported_in_stats(self, store):
        assert store.stats()["retried"] == 0


class TestVerify:
    def test_clean_store_verifies_silently(self, store):
        store.put("job", FP_A, {"x": 1})
        assert store.verify() == []

    def test_verify_removes_unreadable_records(self, store):
        store.put("job", FP_A, {"x": 1})
        store.put("job", FP_B, {"x": 2})
        path = store.object_path("job", FP_B)
        with open(path, "wb") as handle:
            handle.write(b"junk")
        issues = store.verify()
        assert any("unreadable" in issue for issue in issues)
        assert not os.path.exists(path)
        assert store.get("job", FP_A) == {"x": 1}

    @pytest.mark.parametrize("leftover", [
        json.dumps({"schema": "repro.store/v1",
                    "entries": {f"job/{FP_C}": {"bytes": 123}}}).encode(),
        b"{not json",
    ], ids=["stale", "unparseable"])
    def test_leftover_manifest_is_ignored(self, tmp_path, leftover):
        # Older stores kept a manifest.json beside objects/; such a
        # directory must keep working, and the file is never rewritten.
        root = str(tmp_path / "old")
        DiskStore(root).put("job", FP_A, {"x": 1})
        manifest_path = os.path.join(root, "manifest.json")
        with open(manifest_path, "wb") as handle:
            handle.write(leftover)
        store = DiskStore(root)
        assert store.get("job", FP_A) == {"x": 1}
        assert store.stats()["entries"] == 1
        assert list(store.keys("job")) == [FP_A]
        assert store.gc()["entries"] == 1
        assert store.verify() == []
        with open(manifest_path, "rb") as handle:
            assert handle.read() == leftover


class TestEviction:
    def test_gc_evicts_least_recently_used_first(self, store):
        for age, fingerprint in ((300, FP_A), (200, FP_B), (100, FP_C)):
            store.put("job", fingerprint, {"pad": "x" * 50})
            aged = time.time() - age
            os.utime(store.object_path("job", fingerprint), (aged, aged))
        # A hit refreshes the oldest record, leaving FP_B the least recent.
        assert store.get("job", FP_A) == {"pad": "x" * 50}
        kept = sum(os.path.getsize(store.object_path("job", fingerprint))
                   for fingerprint in (FP_A, FP_C))
        summary = store.gc(max_bytes=kept)
        assert summary["evicted"] == 1 and summary["bytes"] == kept
        assert not store.contains("job", FP_B)
        assert store.contains("job", FP_A) and store.contains("job", FP_C)
        assert store.counters.evictions == 1

    def test_gc_with_explicit_cap(self, store):
        for fingerprint in (FP_A, FP_B, FP_C):
            store.put("job", fingerprint, {"pad": "y" * 50})
        summary = store.gc(max_bytes=1)
        assert summary["evicted"] == 3
        assert store.stats()["entries"] == 0

    def test_gc_sweeps_stale_temp_files_only(self, store):
        store.put("job", FP_A, {"x": 1})
        directory = os.path.dirname(store.object_path("job", FP_A))
        stale = os.path.join(directory, "deadbeef.123.tmp")
        fresh = os.path.join(directory, "cafebabe.456.tmp")
        for path in (stale, fresh):
            with open(path, "wb") as handle:
                handle.write(b"partial")
        # Age the crash leftover; the fresh one models a live writer racing
        # gc between mkstemp and os.replace and must survive.
        old = time.time() - 3600
        os.utime(stale, (old, old))
        summary = store.gc()
        assert summary["temp_files_removed"] == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)
        assert store.get("job", FP_A) == {"x": 1}

    def test_gc_rejects_negative_caps(self, store):
        store.put("job", FP_A, {"x": 1})
        with pytest.raises(ValueError):
            store.gc(max_bytes=-5)
        assert store.contains("job", FP_A)

    def test_gc_without_cap_only_reindexes(self, store):
        store.put("job", FP_A, {"x": 1})
        summary = store.gc()
        assert summary["evicted"] == 0
        assert summary["entries"] == 1


def _hammer_store(root: str, fingerprint: str, payload_value: int) -> None:
    store = DiskStore(root)
    for _ in range(25):
        store.put("job", fingerprint, {"metrics": {"x": float(payload_value)}})


class TestConcurrentWriters:
    def test_two_processes_writing_the_same_fingerprint(self, tmp_path):
        # Identical fingerprint => identical content by construction; the
        # store must survive the race with a readable record and no crash.
        root = str(tmp_path / "shared")
        DiskStore(root)  # pre-create so both children race on objects only
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_hammer_store, args=(root, FP_A, 7))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        store = DiskStore(root)
        assert store.get("job", FP_A) == {"metrics": {"x": 7.0}}
        assert store.verify() == []

    def test_distinct_fingerprints_from_two_processes(self, tmp_path):
        root = str(tmp_path / "shared2")
        DiskStore(root)
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_hammer_store, args=(root, fingerprint, value))
            for fingerprint, value in ((FP_A, 1), (FP_B, 2))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        store = DiskStore(root)
        assert store.get("job", FP_A) == {"metrics": {"x": 1.0}}
        assert store.get("job", FP_B) == {"metrics": {"x": 2.0}}
        # Opened after both writers finished, the store's scan indexes both
        # records, and verify's own walk agrees.
        assert store.stats()["entries"] == 2
        assert store.verify() == []
        assert store.stats()["entries"] == 2


class TestMemoryStore:
    def test_roundtrip_and_counters(self):
        store = MemoryStore()
        assert store.get("job", FP_A) is None
        store.put("job", FP_A, {"metrics": {"x": 1.0}})
        assert store.get("job", FP_A) == {"metrics": {"x": 1.0}}
        assert store.counters.hits == 1
        assert store.counters.misses == 1

    def test_mutating_a_hit_does_not_poison_the_store(self):
        store = MemoryStore()
        store.put("job", FP_A, {"metrics": {"x": 1.0}})
        hit = store.get("job", FP_A)
        hit["metrics"]["x"] = 999.0
        assert store.get("job", FP_A) == {"metrics": {"x": 1.0}}

    def test_stats_shape_matches_disk(self, tmp_path):
        memory = MemoryStore()
        disk = DiskStore(str(tmp_path / "s"))
        memory.put("job", FP_A, {"x": 1})
        disk.put("job", FP_A, {"x": 1})
        shared_keys = {"entries", "bytes", "namespaces", "hits", "misses",
                       "writes", "evictions", "corrupt", "backend"}
        assert shared_keys <= set(memory.stats())
        assert shared_keys <= set(disk.stats())


def test_record_schema_constant_is_versioned():
    assert RECORD_SCHEMA.endswith("/v1")
