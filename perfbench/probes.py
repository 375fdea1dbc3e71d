"""Layer probes for the traced run: wrap each layer's public entry point.

:func:`install` replaces, in the running process, the entry points the
layers call each other through, so every call records a span (name, self
time, children) and the counts measured where the work happens:

* ``repro.engine.workloads.generate_trace``   -> ``synth``
* ``Trace.columns`` / ``TraceColumns.arrays`` -> ``views`` (first build only)
* ``repro.sim.smt.merge_round_robin``         -> ``merge``
* ``repro.engine.runner.build_model``         -> ``build_model``
* ``repro.engine.runner.execute_job``         -> ``execute_job``
* ``TraceSimulator.run`` / ``SMTSimulator.run`` -> ``sim_run``
* ``repro.sim.vector.try_replay_trace`` / ``try_replay_smt`` -> ``try_replay``
  with the boolean result, the kernel it used and the kind of job
* experiment ``post_process`` / ``formatter`` / ``ExperimentSpec.serialize``
  and the serve tier's ``scenario_envelope`` -> ``post``

Nothing under ``src/`` changes; the wrappers call the originals with the
same arguments and return their results untouched, so a traced run must
produce byte-identical output (the benchmark checks that it does).
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace


class _Span:
    __slots__ = ("name", "children", "by_child", "notes")

    def __init__(self, name: str):
        self.name = name
        self.children = 0.0
        self.by_child: dict[str, float] = defaultdict(float)
        self.notes: dict = {}


class LayerTracer:
    """Per-thread span stacks; totals, self times and counts under a lock."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: "(model, job kind)" -> {"accepted": n, "declined": n, "status": ...}
        self.paths: dict[str, dict] = {}
        #: Declined replays as "model|kind|trace".
        self.declines: list[str] = []

    def reset(self) -> None:
        """Forget everything recorded so far (spans in flight still close)."""
        with self._lock:
            for table in (self.total, self.self_time, self.calls, self.counts):
                table.clear()
            self.paths.clear()
            self.declines.clear()

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = _Span(name)
        stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            self._close(span, elapsed, stack)

    def leaf(self, name: str, elapsed: float) -> None:
        """Record an already-timed call that has no traced children."""
        self._close(_Span(name), elapsed, self._stack())

    def _close(self, span: _Span, elapsed: float, stack: list[_Span]) -> None:
        if stack:
            parent = stack[-1]
            parent.children += elapsed
            parent.by_child[span.name] += elapsed
        span.notes["elapsed"] = elapsed
        with self._lock:
            self.total[span.name] += elapsed
            self.self_time[span.name] += elapsed - span.children
            self.calls[span.name] += 1

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, function, after=None):
        """``function`` inside a span; ``after(span, args, kwargs, result)``
        runs once the span has closed."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = function(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        return wrapper

    def record_replay(self, model: str, kind: str, status: str,
                      accepted: bool, trace: str) -> None:
        """Count which path one try-replay took, by (model, job kind)."""
        with self._lock:
            path = self.paths.setdefault(
                f"{model}|{kind}", {"accepted": 0, "declined": 0, "status": status})
            path["accepted" if accepted else "declined"] += 1
            if not accepted:
                self.declines.append(f"{model}|{kind}|{trace}")

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "total": dict(self.total),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "paths": {key: dict(value) for key, value in self.paths.items()},
                "declines": sorted(self.declines),
            }


def install() -> LayerTracer:
    """Wrap every layer entry point in this process; returns the tracer."""
    from repro.engine import runner, spec as spec_module, workloads
    from repro.sim import smt, vector
    from repro.sim.bpu_sim import TraceSimulator
    from repro.sim.smt import SMTSimulator
    from repro.store import jobs
    from repro.trace.branch import Trace, TraceColumns

    tracer = LayerTracer()

    def after_synth(span, args, kwargs, result):
        tracer.add("synth_branches", kwargs.get("branch_count", 0))

    workloads.generate_trace = tracer.wrap(
        "synth", workloads.generate_trace, after_synth)

    original_columns = Trace.columns
    original_arrays = TraceColumns.arrays

    def columns(self):
        before = self._columns
        started = time.perf_counter()
        result = original_columns(self)
        if result is not before:
            tracer.leaf("views", time.perf_counter() - started)
        return result

    def arrays(self):
        before = self._arrays
        started = time.perf_counter()
        result = original_arrays(self)
        if result is not before:
            tracer.leaf("views", time.perf_counter() - started)
        return result

    Trace.columns = columns
    TraceColumns.arrays = arrays

    smt.merge_round_robin = tracer.wrap("merge", smt.merge_round_robin)
    runner.build_model = tracer.wrap("build_model", runner.build_model)

    def after_job(span, args, kwargs, result):
        job = args[0]
        if job.kind in ("trace", "cpu", "smt"):
            traces = 2 if job.kind == "smt" else 1
            tracer.add("replay_branches", traces * job.branch_count)

    runner.execute_job = tracer.wrap("execute_job", runner.execute_job,
                                     after_job)

    def after_run(span, args, kwargs, result):
        accepted = span.notes.get("accepted")
        elapsed = span.notes["elapsed"]
        merge = span.by_child.get("merge", 0.0)
        tracer.add("sim_replay_s", elapsed - merge)
        if accepted is False:
            tracer.add("fallback_s",
                       elapsed - span.by_child.get("try_replay", 0.0) - merge)

    TraceSimulator.run = tracer.wrap("sim_run", TraceSimulator.run, after_run)
    SMTSimulator.run = tracer.wrap("sim_run", SMTSimulator.run, after_run)

    original_kernel_for = vector.kernel_for

    def kernel_for(model):
        kernel = original_kernel_for(model)
        span = tracer.current()
        if span is not None and span.name == "try_replay":
            # kernel_status on a stand-in that returns the kernel this replay
            # used: the public classification, without building a second
            # kernel for the model.
            span.notes["status"] = vector.kernel_status(
                SimpleNamespace(vector_kernel=lambda: kernel))
        return kernel

    vector.kernel_for = kernel_for

    def replay_recorder(kind: str):
        def after_try(span, args, kwargs, result):
            model, trace = args[0], args[1]
            name = getattr(model, "name", type(model).__name__)
            status = span.notes.get("status", "fallback")
            elapsed = span.notes["elapsed"]
            parent = tracer.current()
            if parent is not None and parent.name == "sim_run":
                parent.notes["accepted"] = bool(result)
            tracer.record_replay(name, kind, status, bool(result), trace.name)
            if result:
                tracer.add("vector_s", elapsed)
                if status == "guarded":
                    tracer.add("guarded_s", elapsed)
        return after_try

    vector.try_replay_trace = tracer.wrap(
        "try_replay", vector.try_replay_trace, replay_recorder("trace"))
    vector.try_replay_smt = tracer.wrap(
        "try_replay", vector.try_replay_smt, replay_recorder("smt"))

    for spec in spec_module.list_experiments():
        if spec.post_process is None:
            continue
        spec_module.register_experiment(dataclasses.replace(
            spec,
            post_process=tracer.wrap("post", spec.post_process),
            formatter=tracer.wrap("post", spec.formatter),
        ), replace=True)
    spec_module.ExperimentSpec.serialize = tracer.wrap(
        "post", spec_module.ExperimentSpec.serialize)
    jobs.scenario_envelope = tracer.wrap("post", jobs.scenario_envelope)
    return tracer
