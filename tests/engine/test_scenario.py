"""Tests for scenario files: loading, validation, execution, CLI round-trips."""

import json
from pathlib import Path

import pytest

from repro.engine import (
    SCENARIO_SCHEMA,
    load_scenario,
    parse_scenario,
    run_scenario,
    scenario_envelope,
)

_QUICK = {
    "schema": SCENARIO_SCHEMA,
    "name": "test-sweep",
    "kind": "trace",
    "models": ["baseline", "ST_SKLCond"],
    "workloads": ["505.mcf", "519.lbm"],
    "scale": {"branch_count": 1500, "warmup_branches": 150, "seed": 13},
    "baseline": "baseline",
    "metrics": ["oae_accuracy"],
}

_QUICK_TOML = """
schema = "repro.scenario/v1"
name = "test-sweep"
kind = "trace"
models = ["baseline", "ST_SKLCond"]
workloads = ["505.mcf", "519.lbm"]
baseline = "baseline"
metrics = ["oae_accuracy"]

[scale]
branch_count = 1500
warmup_branches = 150
seed = 13
"""


class TestLoading:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_QUICK))
        scenario = load_scenario(str(path))
        assert scenario.name == "test-sweep"
        assert [spec.name for spec in scenario.models] == ["baseline", "ST_SKLCond"]
        assert scenario.scale.branch_count == 1500
        assert len(scenario.jobs()) == 4

    def test_toml_round_trip_matches_json(self, tmp_path):
        json_path = tmp_path / "sweep.json"
        json_path.write_text(json.dumps(_QUICK))
        toml_path = tmp_path / "sweep.toml"
        toml_path.write_text(_QUICK_TOML)
        assert load_scenario(str(json_path)).jobs() == load_scenario(str(toml_path)).jobs()

    def test_unsupported_extension_is_rejected(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text("kind: trace")
        with pytest.raises(ValueError, match=".json or .toml"):
            load_scenario(str(path))

    def test_filename_is_the_default_name(self, tmp_path):
        data = dict(_QUICK)
        del data["name"]
        path = tmp_path / "nightly_sweep.json"
        path.write_text(json.dumps(data))
        assert load_scenario(str(path)).name == "nightly_sweep"


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown top-level keys"):
            parse_scenario({**_QUICK, "surprise": 1})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            parse_scenario({**_QUICK, "kind": "quantum"})

    def test_unknown_model_names_the_registry(self):
        with pytest.raises(ValueError, match="registered models"):
            parse_scenario({**_QUICK, "models": ["not-a-model"]})

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="known workloads"):
            parse_scenario({**_QUICK, "workloads": ["not-a-workload"]})

    def test_unknown_seed_policy(self):
        with pytest.raises(ValueError, match="seed_policy"):
            parse_scenario({**_QUICK, "seed_policy": "per_job"})

    def test_unknown_scale_key(self):
        with pytest.raises(ValueError, match="unknown scale keys"):
            parse_scenario({**_QUICK, "scale": {"branches": 100}})

    @pytest.mark.parametrize("scale, message", [
        ({"warmup_branches": -5}, "warmup_branches must not be negative"),
        ({"branch_count": 0}, "branch_count must be positive"),
        ({"branch_count": "2000"}, "branch_count must be an integer"),
        ({"branch_count": 2000.0}, "branch_count must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"workload_limit": 1.5}, "workload_limit must be an integer"),
    ])
    def test_out_of_range_scale_is_rejected(self, scale, message):
        with pytest.raises(ValueError, match=f"invalid scenario: scale {message}"):
            parse_scenario({**_QUICK, "scale": scale})

    def test_out_of_range_scale_fails_the_cli(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "negative.json"
        path.write_text(json.dumps({**_QUICK, "scale": {"warmup_branches": -5}}))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid scenario: scale warmup_branches")
        assert captured.out == ""

    def test_baseline_must_be_a_declared_model(self):
        with pytest.raises(ValueError, match="baseline"):
            parse_scenario({**_QUICK, "baseline": "ST_TAGE_SC_L_8KB"})

    def test_duplicate_model_labels_are_rejected(self):
        with pytest.raises(ValueError, match="not distinct"):
            parse_scenario({**_QUICK, "models": ["baseline", "baseline"],
                            "baseline": "baseline"})

    def test_schema_mismatch(self):
        with pytest.raises(ValueError, match="unsupported schema"):
            parse_scenario({**_QUICK, "schema": "repro.scenario/v99"})

    def test_attack_kind_takes_attacks_not_workloads(self):
        scenario = parse_scenario({
            "kind": "attack",
            "models": ["baseline"],
            "attacks": ["spectre_v2"],
        })
        jobs = scenario.jobs()
        assert len(jobs) == 1
        assert jobs[0].param("attack") == "spectre_v2"
        assert jobs[0].param("attempts") == 150  # engine default budget
        with pytest.raises(ValueError, match="unknown attacks"):
            parse_scenario({"kind": "attack", "models": ["baseline"],
                            "attacks": ["meltdown"]})

    def test_smt_pairs_parse_both_spellings(self):
        scenario = parse_scenario({
            "kind": "smt",
            "models": ["baseline"],
            "workloads": ["505.mcf+519.lbm", ["503.bwaves", "505.mcf"]],
        })
        assert scenario.workloads == [("505.mcf", "519.lbm"), ("503.bwaves", "505.mcf")]


class TestExecution:
    def test_run_scenario_serial_matches_two_workers(self):
        scenario = parse_scenario(_QUICK)
        serial = run_scenario(scenario, workers=1)
        parallel = run_scenario(scenario, workers=2)
        assert serial.frame.to_json() == parallel.frame.to_json()
        normalized = serial.normalized()["oae_accuracy"]
        assert normalized["505.mcf"]["baseline"] == pytest.approx(1.0)

    def test_envelope_is_versioned(self):
        result = run_scenario(parse_scenario(_QUICK))
        envelope = scenario_envelope(result)
        assert envelope["schema"] == SCENARIO_SCHEMA
        assert envelope["spec"] == "scenario"
        assert len(envelope["result"]["records"]) == 4
        assert envelope["result"]["baseline"] == "baseline"


_EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestCheckedInExamples:
    def test_quick_example_runs_through_the_cli(self, capsys, tmp_path):
        from repro.cli import main

        json_path = tmp_path / "scenario.json"
        assert main(["run", str(_EXAMPLES / "scenario_quick.json"),
                     "--workers", "2", "--json", str(json_path)]) == 0
        captured = capsys.readouterr()
        assert "quick-oae-sweep" in captured.out
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == SCENARIO_SCHEMA
        assert payload["result"]["records"]

    def test_smt_example_loads_and_expands(self):
        scenario = load_scenario(str(_EXAMPLES / "scenario_smt_sweep.toml"))
        assert scenario.kind == "smt"
        assert len(scenario.jobs()) == 6
        labels = [spec.display_label for spec in scenario.models]
        assert labels == ["TAGE_SC_L_64KB", "ST[r=0.05]", "ST[r=0.0005]"]
