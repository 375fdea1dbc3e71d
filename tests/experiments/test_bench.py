"""Tests for the replay-throughput bench command and its JSON artifact.

A quick bench takes seconds, so one real run is shared by every test that
inspects its output (``quick_report``).  Tests of the ``--check`` gate and
of the CLI wiring take a hand-built report (``_fake_report``) instead.
"""

import json

import pytest

from repro import bench as bench_module
from repro.bench import (
    BENCH_SEQUENCE,
    PR1_BASELINE_SECONDS,
    BenchReport,
    BenchTiming,
    bench_grids,
    check_regression,
    format_bench,
    run_bench,
    write_bench,
)
from repro.cli import main
from repro.engine import run_experiment


@pytest.fixture(scope="module")
def quick_report():
    """One real quick bench run, shared by the tests that read its output."""
    return run_bench(quick=True)


def _fake_report(mode="quick"):
    """A hand-built report with every gated block: no timed run."""
    report = BenchReport(mode=mode, backend="vector")
    for name in ("figure3", "cpu", "smt"):
        report.timings.append(BenchTiming(
            name=name, mode=mode, jobs=4, branches=16_000, seconds=0.2,
            result_sha256="0" * 64))
    report.predictors = {"reference": "baseline", "models": {
        "baseline": {"vector": "kernel", "branches_per_second": 250_000.0},
        "TAGE_SC_L_64KB": {"vector": "guarded",
                           "branches_per_second": 70_000.0},
    }}
    report.serve = {"serialized": {"workers": 1, "jobs_per_second": 40.0},
                    "concurrent": {"workers": 4, "jobs_per_second": 60.0}}
    return report


@pytest.fixture
def fake_run(monkeypatch):
    """Make the CLI's ``bench`` command use a hand-built report."""
    report = _fake_report()
    monkeypatch.setattr(bench_module, "run_bench",
                        lambda quick=False, workers=1: report)
    return report


class TestBenchGrids:
    def test_every_grid_has_a_recorded_baseline(self):
        for quick in (True, False):
            mode = "quick" if quick else "full"
            for name in bench_grids(quick):
                assert f"{name}.{mode}" in PR1_BASELINE_SECONDS

    def test_quick_grids_are_smaller(self):
        quick = {name: len(grid.jobs()) for name, grid in bench_grids(True).items()}
        full = {name: len(grid.jobs()) for name, grid in bench_grids(False).items()}
        assert set(quick) == set(full) == {"figure3", "cpu", "smt"}
        assert all(quick[name] <= full[name] for name in quick)


class TestBenchRun:
    def test_quick_bench_artifact_structure(self, quick_report, tmp_path):
        report = quick_report
        path = tmp_path / "BENCH_test.json"
        write_bench(report, str(path))
        payload = json.loads(path.read_text())
        assert payload["format"] == BENCH_SEQUENCE
        assert payload["mode"] == "quick"
        assert payload["backend"] in ("reference", "vector")
        assert set(payload["benches"]) == {"figure3.quick", "cpu.quick", "smt.quick"}
        figure3 = payload["benches"]["figure3.quick"]
        assert figure3["jobs"] == 20
        assert figure3["seconds"] > 0
        assert figure3["branches_per_second"] > 0
        assert len(figure3["result_sha256"]) == 64
        # The speedup against the recorded pre-columnar baseline is tracked.
        assert "speedup" in figure3
        assert figure3["baseline_seconds"] == PR1_BASELINE_SECONDS["figure3.quick"]
        # The bounded trace cache reports its counters into the artifact.
        assert payload["trace_cache"]["capacity"] >= 1
        assert payload["trace_cache"]["misses"] >= 0
        # Format 5: the result-store cold/warm measurement is recorded,
        # keyed by mode (like benches) so cross-mode merges keep both.
        store = payload["store"]["quick"]
        assert store["grid"] == "figure3"
        assert store["hits"] == store["misses"] == store["writes"] == store["jobs"]
        assert store["warm_jobs_executed"] == 0
        assert store["warm_matches_cold"] is True
        timing = store["warm_vs_cold_seconds"]
        assert timing["cold"] > 0 and timing["warm"] >= 0
        # Format 6: the per-model predictors block is recorded, keyed by
        # mode, with each model's kernel class and its gap vs the composite.
        predictors = payload["predictors"]["quick"]
        assert predictors["reference"] == "baseline"
        models = predictors["models"]
        assert set(models) == set(run_experiment("list-models"))
        assert models["baseline"]["vector"] == "kernel"
        assert models["baseline"]["gap_vs_vector"] == 1.0
        assert models["TAGE_SC_L_64KB"]["vector"] == "guarded"
        for entry in models.values():
            assert entry["branches_per_second"] > 0
            assert entry["gap_vs_vector"] > 0
        # Format 7: the async serving tier is measured twice — one worker
        # (the old global-lock behaviour) versus a concurrent pool — with
        # identical envelopes required from both lanes.
        serve = payload["serve"]["quick"]
        assert serve["scenarios"] >= 2
        assert serve["serialized"]["workers"] == 1
        assert serve["concurrent"]["workers"] > 1
        assert serve["serialized"]["jobs_per_second"] > 0
        assert serve["concurrent"]["jobs_per_second"] > 0
        assert serve["all_done"] is True
        assert serve["concurrent_matches_serialized"] is True
        # The obs tracer's per-phase breakdown rides along in each entry.
        phases = figure3["phases"]
        assert set(phases) >= {"partition", "dispatch", "execute", "merge"}
        assert all(seconds >= 0 for seconds in phases.values())
        assert "phases (figure3)" in format_bench(report)
        # Rendering never fails on a populated report.
        assert "figure3" in format_bench(report)
        assert "result store" in format_bench(report)
        assert "predictors" in format_bench(report)
        assert "serve" in format_bench(report)

    def test_write_bench_merges_modes(self, quick_report, tmp_path):
        path = tmp_path / "BENCH_merge.json"
        report = quick_report
        write_bench(report, str(path))
        # A second write of the same mode overwrites in place…
        write_bench(report, str(path))
        payload = json.loads(path.read_text())
        assert set(payload["benches"]) == {"figure3.quick", "cpu.quick", "smt.quick"}
        # …and foreign-mode entries survive a merge, store block included.
        payload["benches"]["figure3.full"] = dict(
            payload["benches"]["figure3.quick"], mode="full")
        payload["store"]["full"] = dict(payload["store"]["quick"])
        payload["predictors"]["full"] = dict(payload["predictors"]["quick"])
        payload["serve"]["full"] = dict(payload["serve"]["quick"])
        path.write_text(json.dumps(payload))
        write_bench(report, str(path))
        merged = json.loads(path.read_text())
        assert "figure3.full" in merged["benches"]
        assert "figure3.quick" in merged["benches"]
        assert set(merged["store"]) == {"full", "quick"}
        assert set(merged["predictors"]) == {"full", "quick"}
        assert set(merged["serve"]) == {"full", "quick"}

    def test_cli_bench_writes_artifact(self, tmp_path, capsys, fake_run):
        output = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--quick", "--output", str(output)]) == 0
        assert output.exists()
        captured = capsys.readouterr()
        assert "bench artifact written" in captured.out
        payload = json.loads(output.read_text())
        assert payload["mode"] == "quick"


class TestBenchCheck:
    def _report_and_artifact(self, tmp_path):
        report = _fake_report()
        path = tmp_path / "BENCH_ref.json"
        write_bench(report, str(path))
        return report, path

    def test_check_passes_against_own_artifact(self, tmp_path):
        report, path = self._report_and_artifact(tmp_path)
        assert check_regression(report, str(path)) == []

    def test_check_fails_on_throughput_drop(self, tmp_path):
        report, path = self._report_and_artifact(tmp_path)
        inflated = json.loads(path.read_text())
        for entry in inflated["benches"].values():
            entry["branches_per_second"] = entry["branches_per_second"] * 10
        path.write_text(json.dumps(inflated))
        failures = [failure for failure in check_regression(report, str(path))
                    if not failure.startswith("predictors.")]
        assert len(failures) == len(report.timings)
        assert "below the recorded" in failures[0]
        # The message names the regressed entry and the measured drop: a
        # 10x-inflated recording makes the run read as a 90% drop.
        assert failures[0].startswith(report.timings[0].key + ":")
        assert "90.0% (tolerance 20%)" in failures[0]

    def test_check_gates_the_predictors_block(self, tmp_path):
        report, path = self._report_and_artifact(tmp_path)
        inflated = json.loads(path.read_text())
        for entry in inflated["predictors"]["quick"]["models"].values():
            entry["branches_per_second"] = entry["branches_per_second"] * 10
        path.write_text(json.dumps(inflated))
        failures = [failure for failure in check_regression(report, str(path))
                    if failure.startswith("predictors.quick.")]
        assert len(failures) == len(report.predictors["models"])

    def test_check_gates_the_serve_block(self, tmp_path):
        report, path = self._report_and_artifact(tmp_path)
        inflated = json.loads(path.read_text())
        for lane in ("serialized", "concurrent"):
            inflated["serve"]["quick"][lane]["jobs_per_second"] *= 10
        path.write_text(json.dumps(inflated))
        failures = [failure for failure in check_regression(report, str(path))
                    if failure.startswith("serve.quick.")]
        assert len(failures) == 2
        assert "jobs/s" in failures[0]

    def test_check_ignores_foreign_modes(self, tmp_path):
        report, path = self._report_and_artifact(tmp_path)
        renamed = json.loads(path.read_text())
        renamed["benches"] = {
            key.replace(".quick", ".full"): dict(entry, branches_per_second=1e12)
            for key, entry in renamed["benches"].items()
        }
        path.write_text(json.dumps(renamed))
        # Only same-mode keys are compared, so the absurd full-mode floor is moot.
        assert check_regression(report, str(path)) == []

    def test_check_reads_reference_before_writing(self, tmp_path, capsys,
                                                  fake_run):
        # --output and --check naming the same artifact must gate against the
        # *previous* contents, not the just-merged run (which would always pass).
        artifact = tmp_path / "BENCH_same.json"
        write_bench(fake_run, str(artifact))
        inflated = json.loads(artifact.read_text())
        for entry in inflated["benches"].values():
            entry["branches_per_second"] = entry["branches_per_second"] * 10
        artifact.write_text(json.dumps(inflated))
        code = main(["bench", "--quick", "--output", str(artifact),
                     "--check", str(artifact)])
        assert code != 0
        assert "bench regression" in capsys.readouterr().err

    def test_check_tolerance_validated_before_running(self, capsys, tmp_path,
                                                      monkeypatch):
        reference = tmp_path / "BENCH_prev.json"
        write_bench(_fake_report(), str(reference))

        def timed_run(quick=False, workers=1):
            pytest.fail("the tolerance must be rejected before the timed run")

        monkeypatch.setattr(bench_module, "run_bench", timed_run)
        code = main(["bench", "--quick", "--output", str(tmp_path / "o.json"),
                     "--check", str(reference), "--check-tolerance", "1.5"])
        assert code != 0
        assert "check-tolerance" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_cli_check_gate_exits_nonzero(self, tmp_path, capsys, fake_run):
        output = tmp_path / "BENCH_out.json"
        reference = tmp_path / "BENCH_prev.json"
        write_bench(fake_run, str(reference))
        inflated = json.loads(reference.read_text())
        for entry in inflated["benches"].values():
            entry["branches_per_second"] = entry["branches_per_second"] * 10
        reference.write_text(json.dumps(inflated))
        code = main(["bench", "--quick", "--output", str(output),
                     "--check", str(reference)])
        assert code != 0
        assert "bench regression" in capsys.readouterr().err

    def test_check_reference_pass_through_cli(self, tmp_path, capsys,
                                              fake_run):
        output = tmp_path / "BENCH_out.json"
        reference = tmp_path / "BENCH_prev.json"
        write_bench(fake_run, str(reference))
        # A recording with lower throughput everywhere (grids, predictors
        # and serve lanes) must pass the gate.
        deflated = json.loads(reference.read_text())
        for entry in deflated["benches"].values():
            entry["branches_per_second"] = entry["branches_per_second"] * 0.1
        for entry in deflated["predictors"]["quick"]["models"].values():
            entry["branches_per_second"] = entry["branches_per_second"] * 0.1
        for lane in ("serialized", "concurrent"):
            deflated["serve"]["quick"][lane]["jobs_per_second"] *= 0.1
        reference.write_text(json.dumps(deflated))
        assert main(["bench", "--quick", "--output", str(output),
                     "--check", str(reference)]) == 0


@pytest.mark.parametrize("quick", [True])
def test_report_backend_recorded(quick, quick_report):
    assert quick_report.mode == ("quick" if quick else "full")
    assert quick_report.backend in ("reference", "vector")
