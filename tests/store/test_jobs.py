"""Tests for :mod:`repro.store.jobs`: queue bounds, the job state machine,
retry/backoff, watchdog supervision and the in-memory job table."""

import os
import threading
import time

import pytest

import repro.store.jobs as jobs_module
from repro.engine.scenario import parse_scenario
from repro.faults import FaultInjector, parse_fault_spec
from repro.obs import metrics as obs_metrics
from repro.store import DiskStore, MemoryStore
from repro.store.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOBS_SCHEMA,
    QUEUED,
    RUNNING,
    SHUTDOWN_ERROR,
    TERMINAL_STATES,
    TIMEOUT,
    JobConflict,
    JobManager,
    QueueFull,
    _Job,
)


def _scenario(name, seed=1):
    return parse_scenario({
        "schema": "repro.scenario/v1",
        "name": name,
        "kind": "trace",
        "models": ["baseline"],
        "workloads": ["505.mcf"],
        "scale": {"branch_count": 400, "warmup_branches": 40, "seed": seed},
    })


def _manager(**kwargs):
    kwargs.setdefault("store", MemoryStore())
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("tick", 0.02)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("abandon_grace", 0.1)
    return JobManager(**kwargs)


def _wedge_injector():
    return FaultInjector(parse_fault_spec("hang=wedge,hang_seconds=60"))


def _counter(name, **labels):
    """One sample of a process-wide counter (0 before its first touch)."""
    family = obs_metrics.registry().snapshot().get(name, {"samples": []})
    return sum(sample["value"] for sample in family["samples"]
               if sample["labels"] == labels)


class TestLifecycle:
    def test_submit_runs_to_done(self):
        manager = _manager()
        try:
            payload, created = manager.submit(_scenario("happy"))
            assert created is True
            assert payload["schema"] == JOBS_SCHEMA
            assert payload["state"] == QUEUED
            fingerprint = payload["fingerprint"]
            final = manager.wait(fingerprint, timeout=30)
            assert final["state"] == DONE
            assert final["attempts"] == 1
            assert final["error"] is None
            assert final["progress"] == {"done": 1, "total": 1}
            assert manager.store.get("envelope", fingerprint)["result"]
        finally:
            manager.close()

    def test_single_flight_dedup(self):
        manager = _manager(workers=1, injector=_wedge_injector(),
                           job_timeout=60)
        try:
            first, created_first = manager.submit(_scenario("wedge-one"))
            second, created_second = manager.submit(_scenario("wedge-one"))
            assert created_first is True and created_second is False
            assert first["fingerprint"] == second["fingerprint"]
            assert second["state"] in (QUEUED, RUNNING)
        finally:
            manager.close()

    def test_payload_has_no_wallclock_fields(self):
        # No timestamps: two reads of an unchanged job are byte-identical.
        manager = _manager()
        try:
            payload, _ = manager.submit(_scenario("payload-shape"))
            assert set(payload) == {
                "schema", "fingerprint", "state", "attempts", "max_attempts",
                "error", "scenario", "kind", "cells", "progress", "version",
            }
        finally:
            manager.close()

    def test_queue_full_raises_with_retry_hint(self):
        manager = _manager(workers=1, queue_depth=1,
                           injector=_wedge_injector(), job_timeout=60)
        try:
            manager.submit(_scenario("wedge-busy"))
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if manager.stats()["workers"]["busy"] >= 1:
                    break
                time.sleep(0.01)
            manager.submit(_scenario("sits-in-queue"))
            with pytest.raises(QueueFull) as info:
                manager.submit(_scenario("bounced"))
            assert info.value.retry_after > 0
            assert "full" in str(info.value)
        finally:
            manager.close()

    def test_submit_after_close_raises(self):
        manager = _manager()
        manager.close()
        with pytest.raises(RuntimeError, match="shut down"):
            manager.submit(_scenario("too-late"))

    def test_close_aborts_running_jobs(self):
        # A worker inside a job must not outlive close(): close aborts the
        # running job, so a wedged worker returns at its next poll instead of
        # holding close for its join timeout and running on afterwards.
        before = set(threading.enumerate())
        manager = _manager(workers=1, injector=_wedge_injector(),
                           job_timeout=60)
        payload, _ = manager.submit(_scenario("wedge-close"))
        deadline = time.monotonic() + 5
        while manager.get(payload["fingerprint"])["state"] != RUNNING:
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        workers = [thread for thread in threading.enumerate()
                   if thread not in before
                   and thread.name.startswith("repro-job-worker-")]
        assert workers
        started = time.monotonic()
        manager.close()
        closed = time.monotonic()
        assert closed - started < 1.0
        for thread in workers:
            thread.join(timeout=max(0.0, closed + 1.0 - time.monotonic()))
        assert not any(thread.is_alive() for thread in workers)

    def test_close_cancels_a_running_job_without_a_deadline_error(self):
        # A job close() aborts ends cancelled with an error that names the
        # shutdown: its 60 s deadline never passed.
        manager = _manager(workers=1, injector=_wedge_injector(),
                           job_timeout=60)
        payload, _ = manager.submit(_scenario("wedge-cancel"))
        fingerprint = payload["fingerprint"]
        deadline = time.monotonic() + 5
        while manager.get(fingerprint)["state"] != RUNNING:
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        before = _counter("repro_jobs_transitions_total", state=CANCELLED)
        manager.close()
        job = manager.get(fingerprint)
        assert job["state"] == CANCELLED
        assert job["error"] == SHUTDOWN_ERROR
        assert "deadline" not in job["error"]
        assert _counter("repro_jobs_transitions_total",
                        state=CANCELLED) == before + 1

    def test_constructor_validation(self):
        store = MemoryStore()
        with pytest.raises(ValueError, match="workers"):
            JobManager(store=store, workers=0)
        with pytest.raises(ValueError, match="queue_depth"):
            JobManager(store=store, queue_depth=0)
        with pytest.raises(ValueError, match="max_attempts"):
            JobManager(store=store, max_attempts=0)
        with pytest.raises(ValueError, match="job_timeout"):
            JobManager(store=store, job_timeout=0)


class TestCancel:
    def test_cancel_queued_then_conflict_then_unknown(self):
        manager = _manager(workers=1, injector=_wedge_injector(),
                           job_timeout=60)
        try:
            manager.submit(_scenario("wedge-head"))
            victim, _ = manager.submit(_scenario("cancel-me"))
            fingerprint = victim["fingerprint"]
            payload = manager.cancel(fingerprint)
            assert payload["state"] == CANCELLED
            assert payload["attempts"] == 0
            # Already terminal: the second cancel is a conflict, not a no-op.
            with pytest.raises(JobConflict) as info:
                manager.cancel(fingerprint)
            assert info.value.state == CANCELLED
            with pytest.raises(KeyError):
                manager.cancel("f" * 64)
        finally:
            manager.close()

    def test_cancel_running_is_a_conflict(self):
        manager = _manager(workers=1, injector=_wedge_injector(),
                           job_timeout=60)
        try:
            payload, _ = manager.submit(_scenario("wedge-running"))
            fingerprint = payload["fingerprint"]
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if manager.get(fingerprint)["state"] == RUNNING:
                    break
                time.sleep(0.01)
            with pytest.raises(JobConflict, match="running"):
                manager.cancel(fingerprint)
        finally:
            manager.close()


class TestRetry:
    @staticmethod
    def _scripted_run(manager, outcomes):
        """Replace ``_run_job`` with a script: each entry is either an
        outcome tuple to report or an exception to die on (exercising the
        crash path); ``"real"`` delegates to the genuine implementation."""
        real = manager._run_job
        calls = []

        def fake(job):
            calls.append(job.fingerprint)
            step = outcomes[min(len(calls), len(outcomes)) - 1]
            if step == "real":
                return real(job)
            if isinstance(step, BaseException):
                raise step
            return step

        manager._run_job = fake
        return calls

    def test_transient_failures_retry_until_success(self):
        manager = _manager(workers=1)
        series = [("repro_jobs_transitions_total", {"state": state})
                  for state in (QUEUED, RUNNING, DONE)]
        series.append(("repro_jobs_retries_total", {}))
        before = [_counter(name, **labels) for name, labels in series]
        try:
            calls = self._scripted_run(manager, [
                ("transient", "OSError: injected"),
                ("transient", "OSError: injected"),
                "real",
            ])
            payload, _ = manager.submit(_scenario("flaky"))
            final = manager.wait(payload["fingerprint"], timeout=30)
            assert final["state"] == DONE
            assert final["attempts"] == 3
            assert len(calls) == 3
        finally:
            manager.close()
        # Queued three times (submit, two retries), running three times,
        # done once; each re-queue with attempts on the clock is a retry.
        after = [_counter(name, **labels) for name, labels in series]
        deltas = [late - early for early, late in zip(before, after)]
        assert deltas == [3, 3, 1, 2]

    def test_transient_exhaustion_fails(self):
        manager = _manager(workers=1, max_attempts=2)
        try:
            self._scripted_run(manager, [("transient", "OSError: down")])
            payload, _ = manager.submit(_scenario("always-flaky"))
            final = manager.wait(payload["fingerprint"], timeout=30)
            assert final["state"] == FAILED
            assert final["attempts"] == 2
            assert "down" in final["error"]
        finally:
            manager.close()

    def test_permanent_failure_does_not_retry(self):
        manager = _manager(workers=1)
        try:
            calls = self._scripted_run(
                manager, [(FAILED, "ValueError: bad scenario cell")])
            payload, _ = manager.submit(_scenario("broken"))
            final = manager.wait(payload["fingerprint"], timeout=30)
            assert final["state"] == FAILED
            assert final["attempts"] == 1
            assert len(calls) == 1
        finally:
            manager.close()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_worker_crash_retries_and_respawns(self):
        # A BaseException escaping execution kills the worker thread; the
        # supervisor must both retry the job and replace the worker.
        manager = _manager(workers=1)
        try:
            self._scripted_run(manager, [
                SystemExit(3), SystemExit(3), "real"])
            payload, _ = manager.submit(_scenario("crashy"))
            final = manager.wait(payload["fingerprint"], timeout=30)
            assert final["state"] == DONE
            assert final["attempts"] == 3
            assert manager.stats()["workers"]["alive"] >= 1
        finally:
            manager.close()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_worker_crash_exhaustion_fails(self):
        manager = _manager(workers=1, max_attempts=2)
        try:
            self._scripted_run(manager, [SystemExit(3), SystemExit(3), "real"])
            payload, _ = manager.submit(_scenario("always-crashy"))
            final = manager.wait(payload["fingerprint"], timeout=30)
            assert final["state"] == FAILED
            assert final["error"] == "worker crashed mid-job"
            # The pool healed: a fresh job still completes.
            follow, _ = manager.submit(_scenario("after-the-crash"))
            assert manager.wait(follow["fingerprint"],
                                timeout=30)["state"] == DONE
        finally:
            manager.close()

    def test_backoff_is_deterministic_exponential_and_capped(self):
        manager = _manager(backoff_base=0.1, backoff_cap=1.0)
        other = _manager(backoff_base=0.1, backoff_cap=1.0)
        try:
            job = _Job("ab12cd34" + "0" * 56, _scenario("backoff"),
                       timeout=1.0, max_attempts=10)
            delays = []
            for attempt in range(1, 8):
                job.attempts = attempt
                delays.append(manager._backoff_delay(job))
                assert manager._backoff_delay(job) == delays[-1]
                assert other._backoff_delay(job) == delays[-1]
            # Jittered exponential: each pre-cap delay sits in
            # [base * 2^(n-1), 2 * base * 2^(n-1)]; the tail hits the cap.
            for attempt, delay in enumerate(delays, start=1):
                floor = 0.1 * (2 ** (attempt - 1))
                assert min(1.0, floor) <= delay <= min(1.0, 2 * floor)
            assert delays[-1] == 1.0
        finally:
            manager.close()
            other.close()


class TestWatchdog:
    def test_deadline_fires_and_pool_recovers(self):
        manager = _manager(workers=1, injector=_wedge_injector(),
                           job_timeout=0.3)
        try:
            payload, _ = manager.submit(_scenario("wedge-deadline"))
            final = manager.wait(payload["fingerprint"], timeout=30)
            assert final["state"] == TIMEOUT
            assert "deadline" in final["error"]
            # The wedged worker was abandoned and replaced; the replacement
            # still drains the queue.
            follow, _ = manager.submit(_scenario("post-recovery"))
            assert manager.wait(follow["fingerprint"],
                                timeout=30)["state"] == DONE
            assert manager.stats()["workers"]["alive"] >= 1
        finally:
            manager.close()

    def test_wait_timeout_returns_live_payload(self):
        manager = _manager(workers=1, injector=_wedge_injector(),
                           job_timeout=60)
        try:
            payload, _ = manager.submit(_scenario("wedge-wait"))
            live = manager.wait(payload["fingerprint"], timeout=0.1)
            assert live["state"] in (QUEUED, RUNNING)
        finally:
            manager.close()


class TestJobTable:
    def test_another_managers_job_is_unknown(self):
        # Job state lives only in the manager that ran the job: a second
        # manager over the same store does not know it, and wait returns
        # at once instead of blocking.
        store = MemoryStore()
        writer = _manager(store=store)
        try:
            payload, _ = writer.submit(_scenario("elsewhere"))
            fingerprint = payload["fingerprint"]
            assert writer.wait(fingerprint, timeout=30)["state"] == DONE
        finally:
            writer.close()
        other = _manager(store=store)
        try:
            assert other.get(fingerprint) is None
            started = time.monotonic()
            assert other.wait(fingerprint, timeout=5) is None
            assert time.monotonic() - started < 1
            assert store.get("envelope", fingerprint)["result"]
        finally:
            other.close()

    def test_completed_job_writes_no_job_state(self, tmp_path):
        store = DiskStore(str(tmp_path))
        manager = _manager(store=store, workers=1)
        try:
            payload, _ = manager.submit(_scenario("namespaces"))
            assert manager.wait(payload["fingerprint"],
                                timeout=30)["state"] == DONE
        finally:
            manager.close()
        assert sorted(os.listdir(tmp_path / "objects")) == [
            "envelope", "job", "obstrace"]

    def test_pruned_jobs_are_forgotten_but_envelopes_still_serve(
            self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_TERMINAL_KEEP", 2)
        manager = _manager(workers=1)
        try:
            fingerprints = []
            for index in range(4):
                payload, _ = manager.submit(_scenario("prune", seed=index))
                fingerprints.append(payload["fingerprint"])
                assert manager.wait(payload["fingerprint"],
                                    timeout=30)["state"] == DONE
            with manager._lock:
                in_memory = set(manager._jobs)
            assert in_memory == set(fingerprints[2:])
            for fingerprint in fingerprints[:2]:
                assert manager.get(fingerprint) is None
                assert manager.wait(fingerprint, timeout=5) is None
            # Envelopes and span trees outlive the job entries.
            for fingerprint in fingerprints:
                assert manager.store.get("envelope", fingerprint)["result"]
                assert manager.trace_for(fingerprint)["fingerprint"] \
                    == fingerprint
        finally:
            manager.close()


class TestEvents:
    def test_events_end_with_the_terminal_payload(self):
        manager = _manager(workers=1)
        try:
            payload, _ = manager.submit(_scenario("evented"))
            events = []
            done = threading.Event()

            def consume():
                for event in manager.events(payload["fingerprint"],
                                            heartbeat=0.05):
                    events.append(event)
                done.set()

            threading.Thread(target=consume, daemon=True).start()
            assert done.wait(timeout=30)
            assert events
            assert events[-1]["state"] in TERMINAL_STATES
            assert events[-1]["state"] == DONE
            versions = [event["version"] for event in events]
            assert versions == sorted(versions)
        finally:
            manager.close()

    def test_events_for_unknown_job_end_immediately(self):
        manager = _manager()
        try:
            assert list(manager.events("d" * 64)) == []
        finally:
            manager.close()

    def test_opt_in_heartbeats_yield_none_between_versions(self):
        # The SSE writer turns None into comment frames to detect dead
        # clients; raw consumers (above) never see them by default.
        manager = _manager(workers=1, injector=_wedge_injector(),
                           job_timeout=60)
        try:
            payload, _ = manager.submit(_scenario("wedge-beat"))
            stream = manager.events(payload["fingerprint"], heartbeat=0.05,
                                    yield_heartbeats=True)
            seen = []
            for event in stream:
                seen.append(event)
                if seen.count(None) >= 2:
                    break
            assert None in seen
            assert all(event is None or "state" in event for event in seen)
        finally:
            manager.close()


class TestTraces:
    def test_done_job_persists_a_deterministic_span_tree(self):
        store = MemoryStore()
        manager = _manager(store=store, workers=1)
        try:
            payload, _ = manager.submit(_scenario("traced"))
            fingerprint = payload["fingerprint"]
            assert manager.wait(fingerprint, timeout=30)["state"] == DONE
            trace = manager.trace_for(fingerprint)
            assert trace is not None
            assert trace["schema"] == "repro.obstrace/v1"
            assert trace["fingerprint"] == fingerprint
            assert trace["root"]["name"] == "scenario"
            assert trace["root"]["attrs"]["scenario"] == "traced"
            # The tree was persisted content-addressed, so any replica
            # sharing the store answers identically from disk.
            assert store.get("obstrace", fingerprint) == trace
        finally:
            manager.close()

    def test_trace_for_unknown_job_is_none(self):
        manager = _manager()
        try:
            assert manager.trace_for("e" * 64) is None
        finally:
            manager.close()

    def test_trace_write_failure_degrades_silently(self):
        class TraceFailingStore(MemoryStore):
            def put(self, namespace, fingerprint, payload):
                if namespace == "obstrace":
                    raise OSError("disk full")
                super().put(namespace, fingerprint, payload)

        manager = _manager(store=TraceFailingStore(), workers=1)
        try:
            payload, _ = manager.submit(_scenario("trace-degraded"))
            fingerprint = payload["fingerprint"]
            assert manager.wait(fingerprint, timeout=30)["state"] == DONE
            # The in-memory copy still serves; the job itself succeeded.
            assert manager.trace_for(fingerprint) is not None
        finally:
            manager.close()
