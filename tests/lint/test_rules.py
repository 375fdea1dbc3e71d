"""Good/bad fixture pairs for every domain rule.

Each test builds a miniature ``repro/...`` tree and asserts the rule fires on
the seeded violation (bad) and stays silent on the idiomatic form (good).
"""


def rule_findings(report, rule):
    return [f for f in report.findings if f.rule == rule]


class TestDeterminism:
    def test_wall_clock_on_the_result_path_is_flagged(self, lint_tree):
        report = lint_tree({"repro/engine/timed.py": """\
            import time

            def stamp():
                return time.time()
            """}, rules=["determinism"])
        (finding,) = report.findings
        assert "time.time()" in finding.message
        assert finding.severity == "error"

    def test_aliased_import_is_resolved(self, lint_tree):
        report = lint_tree({"repro/trace/timed.py": """\
            from time import perf_counter as tick

            def stamp():
                return tick()
            """}, rules=["determinism"])
        (finding,) = report.findings
        assert "time.perf_counter()" in finding.message

    def test_unseeded_rng_flagged_seeded_rng_allowed(self, lint_tree):
        report = lint_tree({"repro/engine/rng.py": """\
            import random

            def bad():
                return random.Random()

            def good(seed):
                return random.Random(seed)
            """}, rules=["determinism"])
        assert len(report.findings) == 1
        assert "unseeded" in report.findings[0].message

    def test_module_level_rng_and_numpy_global_rng_flagged(self, lint_tree):
        report = lint_tree({"repro/experiments/draw.py": """\
            import random

            import numpy as np

            def draw():
                return random.randint(0, 7), np.random.rand()
            """}, rules=["determinism"])
        assert len(report.findings) == 2

    def test_seeded_numpy_generator_is_allowed(self, lint_tree):
        report = lint_tree({"repro/trace/gen.py": """\
            import numpy as np

            def generator(seed):
                return np.random.default_rng(seed)
            """}, rules=["determinism"])
        assert report.clean

    def test_builtin_hash_is_flagged(self, lint_tree):
        report = lint_tree({"repro/store/keys.py": """\
            def key_of(value):
                return hash(value)
            """}, rules=["determinism"])
        (finding,) = report.findings
        assert "PYTHONHASHSEED" in finding.message

    def test_set_iteration_flagged_sorted_iteration_allowed(self, lint_tree):
        report = lint_tree({"repro/engine/order.py": """\
            def bad(items):
                return [x for x in set(items)]

            def good(items):
                return [x for x in sorted(set(items))]
            """}, rules=["determinism"])
        (finding,) = report.findings
        assert "no defined order" in finding.message
        assert finding.line == 2

    def test_bench_module_is_out_of_scope(self, lint_tree):
        # A timing harness measures wall time by definition.
        report = lint_tree({"repro/bench.py": """\
            import time

            def measure():
                return time.perf_counter()
            """}, rules=["determinism"])
        assert report.clean


class TestFingerprintCoverage:
    KEYS_OK = """\
        JOB_FINGERPRINT_EXEMPT = frozenset({"index"})

        def job_fingerprint_fields(job):
            return {"kind": job.kind, "seed": job.seed}
        """
    GRID_OK = """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Job:
            index: int
            kind: str
            seed: int
        """

    def test_covered_and_exempted_fields_pass(self, lint_tree):
        report = lint_tree({
            "repro/store/keys.py": self.KEYS_OK,
            "repro/engine/grid.py": self.GRID_OK,
        }, rules=["fingerprint-coverage"])
        assert report.clean

    def test_uncovered_field_is_flagged_at_its_declaration(self, lint_tree):
        report = lint_tree({
            "repro/store/keys.py": self.KEYS_OK,
            "repro/engine/grid.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Job:
                    index: int
                    kind: str
                    seed: int
                    backend: str
                """,
        }, rules=["fingerprint-coverage"])
        (finding,) = report.findings
        assert "Job.backend" in finding.message
        assert finding.path.endswith("repro/engine/grid.py")

    def test_missing_exemption_constant_is_flagged(self, lint_tree):
        report = lint_tree({
            "repro/store/keys.py": """\
                def job_fingerprint_fields(job):
                    return {"kind": job.kind, "seed": job.seed}
                """,
            "repro/engine/grid.py": self.GRID_OK,
        }, rules=["fingerprint-coverage"])
        messages = [f.message for f in report.findings]
        assert any("JOB_FINGERPRINT_EXEMPT is missing" in m for m in messages)
        # Without the constant the index field is uncovered too.
        assert any("Job.index" in m for m in messages)

    def test_stale_exemption_is_flagged(self, lint_tree):
        report = lint_tree({
            "repro/store/keys.py": self.KEYS_OK.replace(
                '{"index"}', '{"index", "ghost"}'),
            "repro/engine/grid.py": self.GRID_OK,
        }, rules=["fingerprint-coverage"])
        (finding,) = report.findings
        assert "'ghost'" in finding.message and "stale" in finding.message

    def test_exempting_a_fingerprinted_field_is_contradictory(self, lint_tree):
        report = lint_tree({
            "repro/store/keys.py": self.KEYS_OK.replace(
                '{"index"}', '{"index", "kind"}'),
            "repro/engine/grid.py": self.GRID_OK,
        }, rules=["fingerprint-coverage"])
        (finding,) = report.findings
        assert "contradictory" in finding.message

    def test_contract_skipped_when_dataclass_module_not_scanned(self, lint_tree):
        report = lint_tree({
            "repro/store/keys.py": self.KEYS_OK,
        }, rules=["fingerprint-coverage"])
        assert report.clean


class TestThreadSafety:
    def test_inconsistently_locked_attribute_is_flagged(self, lint_tree):
        report = lint_tree({"repro/store/counters.py": """\
            import threading

            class Counters:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0

                def add(self):
                    with self._lock:
                        self.hits += 1

                def add_racy(self):
                    self.hits += 1
            """}, rules=["thread-safety"])
        (finding,) = report.findings
        assert "both under its lock and (here) without it" in finding.message
        assert finding.line == 13

    def test_bare_read_modify_write_in_lock_owning_class(self, lint_tree):
        report = lint_tree({"repro/store/counters.py": """\
            import threading

            class Counters:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.writes = 0

                def add_write(self):
                    self.writes += 1
            """}, rules=["thread-safety"])
        (finding,) = report.findings
        assert "bare augassign of self.writes" in finding.message

    def test_module_global_mutated_without_lock(self, lint_tree):
        report = lint_tree({"repro/store/cache.py": """\
            CACHE = {}

            def remember(key, value):
                CACHE[key] = value
            """}, rules=["thread-safety"])
        (finding,) = report.findings
        assert "module-level mutable 'CACHE'" in finding.message

    def test_locked_mutations_everywhere_pass(self, lint_tree):
        report = lint_tree({"repro/store/cache.py": """\
            import threading

            _LOCK = threading.Lock()
            REGISTRY = {}

            def register(key, value):
                with _LOCK:
                    REGISTRY[key] = value

            class Counters:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0

                def add(self):
                    with self._lock:
                        self.hits += 1
            """}, rules=["thread-safety"])
        assert report.clean

    def test_class_without_a_lock_is_not_judged(self, lint_tree):
        # Whether an object is shared is declared by owning a lock.
        report = lint_tree({"repro/store/bag.py": """\
            class Bag:
                def __init__(self):
                    self.items = []

                def push(self, item):
                    self.items.append(item)
            """}, rules=["thread-safety"])
        assert report.clean

    def test_nested_def_does_not_inherit_the_lock_context(self, lint_tree):
        report = lint_tree({"repro/store/deferred.py": """\
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.jobs = 0

                def submit(self, pool):
                    with self._lock:
                        def work():
                            self.jobs += 1
                        pool(work)
            """}, rules=["thread-safety"])
        (finding,) = report.findings
        assert "self.jobs" in finding.message

    def test_dataclass_lock_field_counts_as_owning_a_lock(self, lint_tree):
        report = lint_tree({"repro/store/dc.py": """\
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class Counters:
                hits: int = 0
                _lock: threading.Lock = field(default_factory=threading.Lock)

                def add(self):
                    self.hits += 1
            """}, rules=["thread-safety"])
        (finding,) = report.findings
        assert "bare augassign" in finding.message

    def test_engine_modules_are_out_of_scope(self, lint_tree):
        report = lint_tree({"repro/engine/cache.py": """\
            CACHE = {}

            def remember(key, value):
                CACHE[key] = value
            """}, rules=["thread-safety"])
        assert report.clean

    def test_trace_cache_module_is_in_scope(self, lint_tree):
        # Serve's job-worker threads share the trace cache.
        report = lint_tree({"repro/engine/workloads.py": """\
            import threading

            class TraceCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0

                def get(self):
                    self.hits += 1
            """}, rules=["thread-safety"])
        (finding,) = report.findings
        assert "bare augassign of self.hits" in finding.message


class TestBackendParity:
    def test_provider_overriding_scalar_map_must_define_vector_maps(self, lint_tree):
        report = lint_tree({"repro/bpu/custom.py": """\
            from repro.bpu.mapping import BaselineMappingProvider

            class KeyedProvider(BaselineMappingProvider):
                __slots__ = ()

                def pht_index_1level(self, ip):
                    return ip & 7
            """}, rules=["backend-parity"])
        (finding,) = report.findings
        assert "pht_index_1level" in finding.message
        assert "vector_maps" in finding.message

    def test_explicit_return_none_fallback_passes(self, lint_tree):
        report = lint_tree({"repro/bpu/custom.py": """\
            from repro.bpu.mapping import BaselineMappingProvider

            class KeyedProvider(BaselineMappingProvider):
                __slots__ = ()

                def pht_index_1level(self, ip):
                    return ip & 7

                def vector_maps(self):
                    return None
            """}, rules=["backend-parity"])
        assert report.clean

    def test_ungated_vector_override_is_flagged(self, lint_tree):
        report = lint_tree({"repro/bpu/custom.py": """\
            class Maps:
                __slots__ = ("provider",)

                def __init__(self, provider):
                    self.provider = provider

            class EagerProvider:
                __slots__ = ()

                def vector_maps(self):
                    return Maps(self)
            """}, rules=["backend-parity"])
        (finding,) = report.findings
        assert "EagerProvider.vector_maps()" in finding.message

    def test_exact_class_gate_passes(self, lint_tree):
        report = lint_tree({"repro/bpu/custom.py": """\
            class Maps:
                __slots__ = ("provider",)

                def __init__(self, provider):
                    self.provider = provider

            class GatedProvider:
                __slots__ = ()

                def vector_maps(self):
                    if type(self) is not GatedProvider:
                        return None
                    return Maps(self)
            """}, rules=["backend-parity"])
        assert report.clean

    def test_kernel_factory_delegation_passes(self, lint_tree):
        report = lint_tree({"repro/bpu/model.py": """\
            class WrapperModel:
                __slots__ = ("inner",)

                def vector_kernel(self):
                    from repro.sim import vector

                    return vector.flushing_kernel(self)
            """}, rules=["backend-parity"])
        assert report.clean

    def test_codec_overriding_encode_must_define_vector_encode(self, lint_tree):
        report = lint_tree({"repro/bpu/codec.py": """\
            from repro.bpu.mapping import TargetCodec

            class XorCodec(TargetCodec):
                __slots__ = ()

                def encode(self, target):
                    return target ^ 1

                def decode(self, stored):
                    return stored ^ 1
            """}, rules=["backend-parity"])
        (finding,) = report.findings
        assert "vector_encode" in finding.message

    def test_stepper_missing_protocol_methods_is_flagged(self, lint_tree):
        report = lint_tree({"repro/sim/vector.py": """\
            STEPPER_PROTOCOL = ("begin", "prepare_span", "commit_span",
                                "flush", "finish")

            class _HalfStepper:
                __slots__ = ()

                def begin(self):
                    pass

                def prepare_span(self, span):
                    pass
            """}, rules=["backend-parity"])
        (finding,) = report.findings
        assert "_HalfStepper" in finding.message
        for method in ("commit_span", "finish", "flush"):
            assert method in finding.message

    def test_missing_protocol_constant_is_itself_a_finding(self, lint_tree):
        report = lint_tree({"repro/sim/vector.py": """\
            class _LoneStepper:
                __slots__ = ()

                def begin(self):
                    pass
            """}, rules=["backend-parity"])
        (finding,) = report.findings
        assert "STEPPER_PROTOCOL" in finding.message

    def test_complete_stepper_passes(self, lint_tree):
        report = lint_tree({"repro/sim/vector.py": """\
            STEPPER_PROTOCOL = ("begin", "finish")

            class _FullStepper:
                __slots__ = ()

                def begin(self):
                    pass

                def finish(self):
                    pass
            """}, rules=["backend-parity"])
        assert report.clean


class TestHotPath:
    def test_slotless_class_in_bpu_module_is_flagged(self, lint_tree):
        report = lint_tree({"repro/bpu/thing.py": """\
            class Entry:
                def __init__(self):
                    self.value = 0
            """}, rules=["hot-path"])
        (finding,) = report.findings
        assert "Entry" in finding.message and "__slots__" in finding.message
        assert finding.severity == "warning"

    def test_slots_and_slotted_dataclass_pass(self, lint_tree):
        report = lint_tree({"repro/bpu/thing.py": """\
            from dataclasses import dataclass

            class Entry:
                __slots__ = ("value",)

                def __init__(self):
                    self.value = 0

            @dataclass(slots=True)
            class Key:
                index: int
            """}, rules=["hot-path"])
        assert report.clean

    def test_exception_and_protocol_classes_are_exempt(self, lint_tree):
        report = lint_tree({"repro/bpu/thing.py": """\
            from typing import Protocol

            class ReplayError(Exception):
                pass

            class Steppable(Protocol):
                def begin(self): ...
            """}, rules=["hot-path"])
        assert report.clean

    def test_isinstance_inside_replay_loop_is_flagged_once(self, lint_tree):
        report = lint_tree({"repro/sim/fastpath.py": """\
            def replay(items):
                total = 0
                for batch in items:
                    for item in batch:
                        if isinstance(item, int):
                            total += item
                return total
            """}, rules=["hot-path"])
        # One call, even though it sits inside two nested loops.
        assert len(report.findings) == 1
        assert "isinstance" in report.findings[0].message

    def test_isinstance_outside_loops_is_allowed(self, lint_tree):
        report = lint_tree({"repro/sim/fastpath.py": """\
            def prepare(source):
                if isinstance(source, list):
                    return source
                return list(source)
            """}, rules=["hot-path"])
        assert report.clean

    def test_reference_replay_modules_are_out_of_scope(self, lint_tree):
        report = lint_tree({"repro/sim/bpu_sim.py": """\
            class Replayer:
                def run(self, events):
                    for event in events:
                        if isinstance(event, tuple):
                            pass
            """}, rules=["hot-path"])
        assert report.clean
