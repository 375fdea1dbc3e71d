"""The async job subsystem behind ``repro serve``: queue, workers, deadlines.

PR 5's serving tier executed every POST under one global lock — correct, but
one slow STBPU rerandomization sweep blocked the whole service.  This module
replaces the lock with a supervised job pipeline:

* a **bounded FIFO queue** (:class:`QueueFull` carries a ``Retry-After`` hint
  when depth is exceeded),
* a **job state machine** ``queued → running → done | failed | timeout |
  cancelled``, held in the manager's in-memory job table only: a job this
  process does not hold (never submitted here, or pruned) is unknown,
* **worker threads** running each attempt in-thread on a fresh incremental
  :class:`~repro.engine.runner.EngineRunner`,
* a **watchdog** enforcing per-job deadlines (a wedged job is recorded
  ``timeout``, its worker abandoned and replaced so throughput survives),
* **bounded exponential-backoff retry** for transient failures (store
  I/O) — jitter comes from a :class:`random.Random` seeded by the job's
  fingerprint, so chaos runs stay reproducible,
* **single-flight dedup**: concurrent submits of one scenario fingerprint
  share a single execution; nothing holds a lock across execution.

Execution is cooperative: the runner's ``abort_check`` hook raises between
streamed records once the deadline passes or the watchdog fires, so workers
come back promptly even from injected hangs (:mod:`repro.faults`).

A finished job's envelope and span tree are written to the store (namespaces
``envelope`` and ``obstrace``); job state and progress never are.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from collections import deque
from typing import Any, Iterator

from repro.engine.results import ResultFrame
from repro.engine.runner import EngineRunner
from repro.engine.scenario import (
    Scenario,
    ScenarioResult,
    scenario_envelope,
)
from repro.obs import metrics as obs_metrics
from repro.obs.spans import OBSTRACE_SCHEMA, SpanTracer
from repro.store.base import (
    ENVELOPE_NAMESPACE,
    OBSTRACE_NAMESPACE,
    ResultStore,
)
from repro.store.keys import canonical_json, scenario_fingerprint

logger = logging.getLogger(__name__)

#: Versioned schema tag of job payloads.
JOBS_SCHEMA = "repro.job/v1"

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, TIMEOUT, CANCELLED})

#: Exception types worth a retry: the failure is in the machinery (store
#: I/O), not in the scenario itself.
TRANSIENT_ERRORS = (OSError,)

#: Terminal jobs kept in memory; older ones are forgotten (their envelopes
#: and span trees stay in the store).
_TERMINAL_KEEP = 256


class QueueFull(RuntimeError):
    """The bounded job queue rejected a submit; retry after a beat."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"job queue is full ({depth} queued); retry after "
            f"{retry_after:g}s")
        self.depth = depth
        self.retry_after = retry_after


class JobConflict(RuntimeError):
    """The requested transition is invalid for the job's current state."""

    def __init__(self, fingerprint: str, state: str, message: str) -> None:
        super().__init__(message)
        self.fingerprint = fingerprint
        self.state = state


class _Expired(Exception):
    """Internal control flow: the job's deadline passed (or it was aborted)."""


class _ShutDown(_Expired):
    """Internal control flow: :meth:`JobManager.close` aborted the job."""


#: The terminal error of a job that :meth:`JobManager.close` aborted.
SHUTDOWN_ERROR = "cancelled: the job manager shut down"


class _Job:
    """Mutable job entry; every mutation happens under the manager's lock."""

    __slots__ = (
        "fingerprint", "scenario", "cells", "engine_jobs", "state",
        "attempts", "max_attempts", "timeout", "deadline", "not_before",
        "error", "progress_done", "progress_total", "version", "abort",
        "envelope", "trace",
    )

    def __init__(self, fingerprint: str, scenario: Scenario,
                 timeout: float, max_attempts: int) -> None:
        self.fingerprint = fingerprint
        self.scenario = scenario
        self.engine_jobs = scenario.jobs()
        self.cells = len(self.engine_jobs)
        self.state = QUEUED
        self.attempts = 0
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.deadline = 0.0
        self.not_before = 0.0
        self.error: str | None = None
        self.progress_done = 0
        self.progress_total = self.cells
        self.version = 0
        self.abort = threading.Event()
        self.envelope: dict[str, Any] | None = None
        self.trace: dict[str, Any] | None = None


class _WorkerHandle:
    """Bookkeeping for one worker thread (mutated under the manager lock)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.thread: threading.Thread | None = None
        self.fingerprint: str | None = None
        self.retired = False
        self.abandoned_at: float | None = None


class JobManager:
    """Bounded queue + supervised worker pool executing scenarios.

    The manager's :class:`threading.Condition` guards all shared state and is
    *never* held across execution, store I/O or sleeps — workers copy what
    they need under the lock and run outside it.
    """

    def __init__(self, store: ResultStore, workers: int = 2,
                 queue_depth: int = 16, job_timeout: float = 300.0,
                 max_attempts: int = 3, backoff_base: float = 0.1,
                 backoff_cap: float = 30.0, retry_after: float = 1.0,
                 tick: float = 0.05, abandon_grace: float = 1.0,
                 injector: Any | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if job_timeout <= 0:
            raise ValueError("job_timeout must be > 0")
        self.store = store
        self.workers = workers
        self.queue_depth = queue_depth
        self.job_timeout = job_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.retry_after = retry_after
        self.tick = tick
        self.abandon_grace = abandon_grace
        self.injector = injector  # repro.faults.FaultInjector | None
        self._lock = threading.Condition()
        self._jobs: dict[str, _Job] = {}
        self._queue: deque[str] = deque()
        self._delayed: list[str] = []
        self._terminal: deque[str] = deque()
        self._handles: list[_WorkerHandle] = []
        self._next_worker = 0
        self._completed = 0
        self._shutdown = False
        for _ in range(workers):
            self._spawn_worker()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="repro-job-watchdog", daemon=True)
        self._watchdog.start()

    # ------------------------------------------------------------ public API

    def submit(self, scenario: Scenario,
               fingerprint: str | None = None) -> tuple[dict[str, Any], bool]:
        """Enqueue ``scenario``; returns ``(job payload, newly created)``.

        Single-flight: a fingerprint already queued or running returns the
        live job instead of enqueueing a duplicate.  A terminal job is
        re-enqueued (its envelope may have been evicted).  Raises
        :class:`QueueFull` when the bounded queue is at depth.
        """
        if fingerprint is None:
            fingerprint = scenario_fingerprint(scenario)
        with self._lock:
            if self._shutdown:
                raise RuntimeError("job manager is shut down")
            job = self._jobs.get(fingerprint)
            if job is not None and job.state in (QUEUED, RUNNING):
                return self._payload(job), False
            if len(self._queue) + len(self._delayed) >= self.queue_depth:
                raise QueueFull(len(self._queue) + len(self._delayed),
                                self.retry_after)
            job = _Job(fingerprint, scenario, self.job_timeout,
                       self.max_attempts)
            self._jobs[fingerprint] = job
            self._queue.append(fingerprint)
            _count_transition(job)
            self._lock.notify_all()
            payload = self._payload(job)
        obs_metrics.inc("repro_jobs_submitted_total")
        return payload, True

    def get(self, fingerprint: str) -> dict[str, Any] | None:
        """The job payload, or ``None`` for a job this manager does not
        hold (never submitted here, or pruned)."""
        with self._lock:
            job = self._jobs.get(fingerprint)
            return None if job is None else self._payload(job)

    def cancel(self, fingerprint: str) -> dict[str, Any]:
        """Cancel a *queued* job; running/terminal jobs raise
        :class:`JobConflict` (execution is not preemptible mid-cell)."""
        with self._lock:
            job = self._jobs.get(fingerprint)
            if job is None:
                raise KeyError(f"unknown job {fingerprint!r}")
            if job.state != QUEUED:
                raise JobConflict(
                    fingerprint, job.state,
                    f"job is {job.state}; only queued jobs can be cancelled")
            job.state = CANCELLED
            job.error = "cancelled by client"
            job.version += 1
            if fingerprint in self._queue:
                self._queue.remove(fingerprint)
            if fingerprint in self._delayed:
                self._delayed.remove(fingerprint)
            self._remember_terminal(job)
            _count_transition(job)
            self._lock.notify_all()
            return self._payload(job)

    def wait(self, fingerprint: str,
             timeout: float | None = None) -> dict[str, Any] | None:
        """Block until the job reaches a terminal state (or ``timeout``
        elapses); returns the latest payload either way, or ``None`` for a
        job this manager does not hold."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                job = self._jobs.get(fingerprint)
                if job is None:
                    return None
                if job.state in TERMINAL_STATES:
                    return self._payload(job)
                remaining = self.tick * 10
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return self._payload(job)
                self._lock.wait(remaining)

    def events(self, fingerprint: str, heartbeat: float = 1.0,
               yield_heartbeats: bool = False,
               ) -> Iterator[dict[str, Any] | None]:
        """Yield a payload per observable change (progress tick or state
        transition), ending with the terminal payload.  The lock is released
        both while waiting and while the consumer writes to its socket.

        With ``yield_heartbeats``, an idle wait additionally yields ``None``
        every ``heartbeat`` seconds.  A socket-writing consumer (the SSE
        handler) turns those into comment frames, so a disconnected client
        is detected within one heartbeat instead of at the job's next
        version bump — no handler thread parked on a dead socket.
        """
        last_version = -1
        while True:
            with self._lock:
                job = self._jobs.get(fingerprint)
                if job is None:
                    return
                while job.version == last_version \
                        and job.state not in TERMINAL_STATES:
                    self._lock.wait(heartbeat)
                    if yield_heartbeats:
                        break
                if job.version == last_version \
                        and job.state not in TERMINAL_STATES:
                    payload = None
                else:
                    payload = self._payload(job)
                    last_version = job.version
            if payload is None:
                yield None
                continue
            yield payload
            if payload["state"] in TERMINAL_STATES:
                return

    def envelope_for(self, fingerprint: str) -> dict[str, Any] | None:
        """The in-memory envelope of a completed job, if still held —
        the fallback when the envelope's store write degraded."""
        with self._lock:
            job = self._jobs.get(fingerprint)
            if job is not None:
                return job.envelope
        return None

    def trace_for(self, fingerprint: str) -> dict[str, Any] | None:
        """The completed job's span tree — live from memory, else the
        ``obstrace`` record in the store (which outlives the job entry and
        the process that ran it)."""
        with self._lock:
            job = self._jobs.get(fingerprint)
            if job is not None and job.trace is not None:
                return job.trace
        try:
            payload = self.store.get(OBSTRACE_NAMESPACE, fingerprint)
        except OSError:
            logger.warning("trace read failed for %s", fingerprint[:16],
                           exc_info=True)
            return None
        if not isinstance(payload, dict) \
                or payload.get("schema") != OBSTRACE_SCHEMA:
            return None
        return payload

    def stats(self) -> dict[str, Any]:
        """Queue depth, worker liveness and state counts for ``/healthz``."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            alive = sum(
                1 for handle in self._handles
                if not handle.retired and handle.thread is not None
                and handle.thread.is_alive())
            return {
                "queue": {
                    "depth": len(self._queue) + len(self._delayed),
                    "capacity": self.queue_depth,
                },
                "workers": {
                    "configured": self.workers,
                    "alive": alive,
                    "busy": sum(1 for handle in self._handles
                                if handle.fingerprint is not None
                                and not handle.retired),
                },
                "jobs": states,
                "completed": self._completed,
                "healthy": alive > 0 and not self._shutdown,
            }

    def close(self, join_timeout: float = 2.0) -> None:
        """Stop accepting work, abort running jobs and wind the threads down
        (best effort — workers and watchdog are daemons, a wedged worker
        cannot block exit).  An aborted job ends ``cancelled`` with
        :data:`SHUTDOWN_ERROR` once its worker returns."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            for job in self._jobs.values():
                if job.state == RUNNING:
                    job.abort.set()
            self._lock.notify_all()
            threads = [handle.thread for handle in self._handles
                       if handle.thread is not None]
            threads.append(self._watchdog)
        for thread in threads:
            thread.join(timeout=join_timeout)

    # ---------------------------------------------------------- worker side

    def _spawn_worker(self) -> None:
        with self._lock:
            handle = _WorkerHandle(self._next_worker)
            self._next_worker += 1
            handle.thread = threading.Thread(
                target=self._worker_loop, args=(handle,),
                name=f"repro-job-worker-{handle.index}", daemon=True)
            # Start before the watchdog can observe the handle, so a
            # registered-but-unstarted thread is never mistaken for dead.
            handle.thread.start()
            self._handles.append(handle)

    def _worker_loop(self, handle: _WorkerHandle) -> None:
        try:
            while True:
                with self._lock:
                    while not self._queue and not self._shutdown \
                            and not handle.retired:
                        self._lock.wait(self.tick * 10)
                    if self._shutdown or handle.retired:
                        return
                    fingerprint = self._queue.popleft()
                    job = self._jobs.get(fingerprint)
                    if job is None or job.state != QUEUED:
                        continue
                    job.state = RUNNING
                    job.attempts += 1
                    job.deadline = time.monotonic() + job.timeout
                    job.abort.clear()
                    job.version += 1
                    _count_transition(job)
                    handle.fingerprint = fingerprint
                    self._lock.notify_all()
                outcome = self._run_job(job)
                self._finish(handle, job, outcome)
        finally:
            respawn = False
            with self._lock:
                if not handle.retired and not self._shutdown \
                        and handle.fingerprint is not None:
                    # Dying with work still assigned means the thread crashed
                    # out of execution (clean exits cleared the assignment):
                    # apply the retry policy and replace ourselves.
                    self._crashed(handle.fingerprint, time.monotonic())
                    respawn = True
                handle.fingerprint = None
                handle.retired = True
                self._lock.notify_all()
            if respawn:
                self._spawn_worker()

    def _run_job(self, job: _Job) -> tuple[str, Any]:
        """Execute one attempt outside any lock on a runner of its own;
        returns an outcome tag."""
        try:
            if self.injector is not None:
                self.injector.maybe_hang(
                    job.scenario.name,
                    should_abort=lambda: job.abort.is_set()
                    or time.monotonic() >= job.deadline)
            self._check_deadline(job)
            runner = EngineRunner(store=self.store)
            # Span identity comes from the scenario fingerprint plus
            # structural attributes only — attempts, timestamps and worker
            # identity stay out, so a retried or replayed job produces the
            # same tree (durations aside).
            tracer = SpanTracer(job.fingerprint, name="scenario",
                                attrs={"scenario": job.scenario.name,
                                       "kind": job.scenario.kind,
                                       "cells": job.cells})
            records = [
                record for record in runner.iter_records(
                    job.engine_jobs,
                    progress=lambda done, total, record:
                        self._note_progress(job, done, total),
                    abort_check=lambda: self._check_deadline(job),
                    tracer=tracer)
            ]
            frame = ResultFrame(records)
            envelope = json.loads(canonical_json(scenario_envelope(
                ScenarioResult(scenario=job.scenario, frame=frame))))
            trace = json.loads(canonical_json(tracer.payload()))
            self._publish_envelope(job.fingerprint, envelope)
            self._publish_trace(job.fingerprint, trace)
            return DONE, (envelope, trace)
        except _ShutDown as error:
            return CANCELLED, str(error)
        except _Expired as error:
            return TIMEOUT, str(error)
        except TRANSIENT_ERRORS as error:
            return "transient", f"{type(error).__name__}: {error}"
        except Exception as error:  # noqa: BLE001 — job boundary
            message = f"{type(error).__name__}: {error}"
            logger.warning("job %s failed: %s", job.fingerprint[:16], message)
            return FAILED, message

    def _check_deadline(self, job: _Job) -> None:
        if job.abort.is_set() and self._shutdown:
            raise _ShutDown(SHUTDOWN_ERROR)
        if job.abort.is_set() or time.monotonic() >= job.deadline:
            raise _Expired(f"deadline of {job.timeout:g}s exceeded")

    def _note_progress(self, job: _Job, done: int, total: int) -> None:
        with self._lock:
            job.progress_done = done
            job.progress_total = total
            job.version += 1
            self._lock.notify_all()

    def _publish_envelope(self, fingerprint: str,
                          envelope: dict[str, Any]) -> None:
        try:
            self.store.put(ENVELOPE_NAMESPACE, fingerprint, envelope)
        except OSError:
            # Degrade, don't fail: the envelope stays on the job in memory
            # and the serving layer falls back to it.
            logger.warning("envelope write failed for %s; serving from "
                           "memory", fingerprint[:16], exc_info=True)

    def _publish_trace(self, fingerprint: str,
                       trace: dict[str, Any]) -> None:
        try:
            self.store.put(OBSTRACE_NAMESPACE, fingerprint, trace)
        except OSError:
            # Same degradation as the envelope: the trace stays on the job
            # in memory and ``trace_for`` serves it from there.
            logger.warning("trace write failed for %s; serving from memory",
                           fingerprint[:16], exc_info=True)

    def _finish(self, handle: _WorkerHandle, job: _Job,
                outcome: tuple[str, Any]) -> None:
        status, value = outcome
        with self._lock:
            handle.fingerprint = None
            handle.abandoned_at = None
            elapsed = time.monotonic() - (job.deadline - job.timeout)
            if job.state == RUNNING:
                if status == DONE:
                    job.state = DONE
                    job.error = None
                    job.envelope, job.trace = value
                    self._completed += 1
                elif status in (TIMEOUT, CANCELLED):
                    job.state = status
                    job.error = value
                elif status == "transient" and job.attempts < job.max_attempts:
                    job.state = QUEUED
                    job.error = value
                    job.not_before = time.monotonic() + self._backoff_delay(job)
                    self._delayed.append(job.fingerprint)
                else:
                    job.state = FAILED
                    job.error = value
            elif status == DONE:
                # Late completion after a watchdog timeout: the verdict
                # stands, but the envelope is real — keep it reachable.
                job.envelope, job.trace = value
            if job.state in TERMINAL_STATES:
                self._remember_terminal(job)
            job.version += 1
            _count_transition(job)
            self._lock.notify_all()
            obs_metrics.observe("repro_jobs_seconds", elapsed,
                                state=job.state)

    def _backoff_delay(self, job: _Job) -> float:
        """Exponential backoff, jittered by the job's fingerprint-seeded RNG
        (deterministic given the fingerprint and attempt number)."""
        rng = random.Random(int(job.fingerprint[:8], 16) + job.attempts)
        delay = self.backoff_base * (2 ** (job.attempts - 1))
        return min(self.backoff_cap, delay * (1.0 + rng.random()))

    # ------------------------------------------------------------- watchdog

    def _watchdog_loop(self) -> None:
        while True:
            self._watchdog_pass()
            with self._lock:
                if self._shutdown:
                    return
            time.sleep(self.tick)

    def _watchdog_pass(self) -> None:
        """One supervision sweep: fire deadlines, replace dead or abandoned
        workers, release backoff-expired retries."""
        spawn = 0
        with self._lock:
            if self._shutdown:
                return
            now = time.monotonic()
            changed = False
            for handle in self._handles:
                if handle.retired:
                    continue
                job = (self._jobs.get(handle.fingerprint)
                       if handle.fingerprint else None)
                if job is not None and job.state == RUNNING \
                        and now >= job.deadline:
                    job.state = TIMEOUT
                    job.error = f"deadline of {job.timeout:g}s exceeded"
                    job.abort.set()
                    job.version += 1
                    _count_transition(job)
                    self._remember_terminal(job)
                    handle.abandoned_at = now
                    changed = True
                dead = handle.thread is not None and not handle.thread.is_alive()
                stuck = (handle.abandoned_at is not None
                         and now - handle.abandoned_at >= self.abandon_grace)
                if dead or stuck:
                    handle.retired = True
                    spawn += 1
                    if dead and handle.fingerprint:
                        changed |= self._crashed(handle.fingerprint, now)
                        handle.fingerprint = None
            self._handles[:] = [
                handle for handle in self._handles
                if not handle.retired or handle.thread is None
                or handle.thread.is_alive()]
            released = False
            for fingerprint in list(self._delayed):
                job = self._jobs.get(fingerprint)
                if job is None or job.state != QUEUED:
                    self._delayed.remove(fingerprint)
                    continue
                if job.not_before <= now:
                    self._delayed.remove(fingerprint)
                    self._queue.append(fingerprint)
                    released = True
            if released or changed:
                self._lock.notify_all()
        for _ in range(spawn):
            self._spawn_worker()

    def _crashed(self, fingerprint: str, now: float) -> bool:
        """Apply the retry policy to a job whose worker thread died
        mid-attempt: re-queue it with backoff, or fail it once its attempts
        are spent.  Returns whether the job changed.  Callers hold the lock
        already; re-acquiring the RLock under them is free."""
        with self._lock:
            job = self._jobs.get(fingerprint)
            if job is None or job.state != RUNNING:
                return False
            job.error = "worker crashed mid-job"
            if job.attempts < job.max_attempts:
                job.state = QUEUED
                job.not_before = now + self._backoff_delay(job)
                self._delayed.append(fingerprint)
            else:
                job.state = FAILED
                self._remember_terminal(job)
            job.version += 1
            _count_transition(job)
            return True

    # -------------------------------------------------------------- helpers

    def _payload(self, job: _Job) -> dict[str, Any]:
        """The job's JSON payload (caller holds the lock)."""
        return {
            "schema": JOBS_SCHEMA,
            "fingerprint": job.fingerprint,
            "state": job.state,
            "attempts": job.attempts,
            "max_attempts": job.max_attempts,
            "error": job.error,
            "scenario": job.scenario.name,
            "kind": job.scenario.kind,
            "cells": job.cells,
            "progress": {"done": job.progress_done,
                         "total": job.progress_total},
            "version": job.version,
        }

    def _remember_terminal(self, job: _Job) -> None:
        """Bound the in-memory registry: keep the most recent terminal jobs
        and forget the rest.  The Condition wraps an RLock, so re-acquiring
        under a holding caller is free."""
        with self._lock:
            self._terminal.append(job.fingerprint)
            while len(self._terminal) > _TERMINAL_KEEP:
                stale = self._terminal.popleft()
                old = self._jobs.get(stale)
                if old is not None and old.state in TERMINAL_STATES:
                    del self._jobs[stale]


def _count_transition(job: _Job) -> None:
    """Count the state ``job`` just entered (the registry lock is a leaf, so
    callers holding the manager's lock may call this); a re-queue with
    attempts on the clock is by definition a retry."""
    obs_metrics.inc("repro_jobs_transitions_total", state=job.state)
    if job.state == QUEUED and job.attempts > 0:
        obs_metrics.inc("repro_jobs_retries_total")
