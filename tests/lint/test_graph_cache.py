"""The interprocedural engine.

Covers the pieces the rule tests exercise only indirectly: call-target
resolution through attribute and return types, the taint fixpoint across
module boundaries, the lock/blocking summaries, and the module summaries
themselves.
"""

import json

import pytest

from repro.lint.framework import parse_project
from repro.lint.graph import build_analysis, summarize_module


@pytest.fixture
def analyze(make_tree):
    def run(files):
        root = make_tree(files)
        project, _ = parse_project([root / "repro"])
        return build_analysis(
            [unit for unit in project.modules if unit.tree is not None])
    return run


TREE = {
    "repro/store/keys.py": """\
        def fingerprint_of(payload):
            return hash(payload)  # repro-lint: disable=determinism -- fixture
        """,
    "repro/engine/runner.py": """\
        import threading
        import time
        from concurrent.futures import as_completed

        class Runner:
            def __init__(self, workers: int):
                self._lock = threading.Lock()
                self.workers = workers

            def wait(self, futures):
                return list(as_completed(futures))

            def run(self, futures):
                with self._lock:
                    return self.wait(futures)
        """,
    "repro/store/serve.py": """\
        from repro.engine.runner import Runner

        class Service:
            def __init__(self):
                self._runner = None

            def _ensure_runner(self) -> Runner:
                if self._runner is None:
                    self._runner = Runner(workers=2)
                return self._runner

            def submit(self, futures):
                return self._ensure_runner().run(futures)
        """,
}


class TestCallResolution:
    def test_method_resolution_through_return_types(self, analyze):
        # Service.submit -> _ensure_runner() (annotation + attr type) ->
        # Runner.run -> Runner.wait -> as_completed: the blocking fixpoint
        # must see the whole chain.
        analysis = analyze(TREE)
        blocking = analysis.blocking_functions()
        assert "repro.store.serve:Service.submit" in blocking
        chain = analysis.blocking_chain("repro.store.serve:Service.submit")
        assert chain[-1] == "concurrent.futures.as_completed"
        assert "repro.engine.runner:Runner.wait" in chain

    def test_lock_edges_cross_call_boundaries(self, analyze):
        analysis = analyze(TREE)
        acquires = analysis.transitive_acquires()
        # submit never touches a lock lexically; it inherits Runner.run's.
        assert acquires["repro.store.serve:Service.submit"] == {
            "repro.engine.runner:Runner._lock"}

    def test_import_graph_projects_resolved_calls(self, analyze):
        analysis = analyze(TREE)
        graph = analysis.import_graph()
        assert "repro.engine.runner" in graph["repro.store.serve"]

    def test_tainted_returns_propagate_across_modules(self, analyze):
        analysis = analyze({
            "repro/util/a.py": """\
                import time

                def now():
                    return time.time()
                """,
            "repro/util/b.py": """\
                from repro.util.a import now

                def launder():
                    return now()
                """,
        })
        tainted = analysis.tainted_returns()
        assert tainted["repro.util.a:now"] == {"time.time": None}
        assert tainted["repro.util.b:launder"] == {
            "time.time": "repro.util.a:now"}


class TestSummaries:
    def test_summaries_are_json_serializable(self, make_tree):
        root = make_tree(TREE)
        project, _ = parse_project([root / "repro"])
        for unit in project.modules:
            summary = summarize_module(unit.module, unit.rel, unit.tree)
            assert json.loads(json.dumps(summary)) == summary
