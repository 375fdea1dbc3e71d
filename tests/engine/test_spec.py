"""Tests for the declarative experiment-spec API and the streaming runner."""

import json

import pytest

from repro.engine import (
    EngineRunner,
    ExperimentScale,
    ExperimentSpec,
    SimulationGrid,
    experiment_spec,
    list_experiments,
    run_experiment,
)

#: Every subcommand of the pre-spec CLI; each must resolve to a spec.
LEGACY_COMMANDS = (
    "figure2", "figure3", "figure4", "figure5", "figure6",
    "tables", "ablation", "attacks", "bench",
    "list-models", "list-workloads",
)

_SMALL_SCALE = ExperimentScale(branch_count=1_500, warmup_branches=150, seed=13)


class TestRegistryCompleteness:
    def test_every_legacy_command_resolves_to_a_spec(self):
        registered = {spec.name for spec in list_experiments()}
        for command in LEGACY_COMMANDS:
            assert command in registered

    def test_unknown_experiment_raises_with_known_names(self):
        with pytest.raises(KeyError, match="registered experiments"):
            experiment_spec("no-such-experiment")

    def test_specs_declare_versioned_schemas(self):
        for spec in list_experiments():
            assert spec.schema == f"repro.{spec.name}/v{spec.schema_version}"

    def test_spec_must_declare_exactly_one_execution_shape(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentSpec(name="broken", description="no builder at all")
        with pytest.raises(ValueError, match="without post_process"):
            ExperimentSpec(name="broken", description="half a grid spec",
                           build_jobs=lambda params: [])


class TestSeedDefaults:
    def test_per_experiment_default_seeds_live_in_the_spec(self):
        # The old CLI hard-coded these fallbacks inside its handlers.
        assert experiment_spec("figure2").default_seed == 0
        assert experiment_spec("attacks").default_seed == 7

    def test_merged_params_apply_the_default_seed(self):
        merged = experiment_spec("attacks").merged_params({})
        assert merged["seed"] == 7
        merged = experiment_spec("attacks").merged_params({"seed": 3})
        assert merged["seed"] == 3

    def test_merged_params_reject_unknown_keys(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            experiment_spec("figure3").merged_params({"bogus": 1})


class TestRunExperiment:
    def test_attacks_by_name_matches_the_legacy_driver(self):
        from repro.experiments.attacks import run_attack_matrix

        via_spec = run_experiment(
            "attacks", {"attacks": ["spectre_v2"], "models": ["baseline"]})
        legacy = run_attack_matrix(attacks=["spectre_v2"], models=["baseline"])
        assert via_spec.frame.to_json() == legacy.frame.to_json()

    def test_meta_experiments_execute_without_jobs(self):
        models = run_experiment("list-models")
        assert "ST_SKLCond" in models
        assert models["ST_SKLCond"] == "kernel"
        assert models["TAGE_SC_L_64KB"] == "guarded"
        assert models["PerceptronBP"] == "guarded"
        table = run_experiment("list-experiments")
        assert set(LEGACY_COMMANDS) <= set(table)

    def test_envelope_wraps_the_serialized_result(self):
        spec = experiment_spec("tables")
        result = run_experiment(spec)
        envelope = spec.serialize(result)
        assert set(envelope) == {"schema", "spec", "result"}
        assert envelope["schema"] == "repro.tables/v1"
        assert envelope["result"] is result  # dict result passes through


def _small_grid() -> SimulationGrid:
    return SimulationGrid(
        kind="trace",
        models=["baseline", "ST_SKLCond"],
        workloads=["505.mcf", "519.lbm"],
        scale=_SMALL_SCALE,
    )


class TestStreamingRunner:
    def test_iter_records_yields_the_same_frame_as_run(self):
        grid = _small_grid()
        streamed = list(EngineRunner(workers=1).iter_records(grid.jobs()))
        assert [record.index for record in streamed] == [0, 1, 2, 3]
        from repro.engine import ResultFrame

        assert ResultFrame(streamed).to_json() == EngineRunner().run(grid).to_json()

    def test_parallel_stream_is_reassembled_into_job_order(self):
        grid = _small_grid()
        serial = list(EngineRunner(workers=1).iter_records(grid.jobs()))
        parallel = list(EngineRunner(workers=2).iter_records(grid.jobs()))
        assert [record.index for record in parallel] == [0, 1, 2, 3]
        from repro.engine import ResultFrame

        assert ResultFrame(serial).to_json() == ResultFrame(parallel).to_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_fires_once_per_job_in_completion_order(self, workers):
        grid = _small_grid()
        seen = []
        frame = EngineRunner(workers=workers).run(
            grid, progress=lambda done, total, record: seen.append((done, total)))
        assert seen == [(index + 1, len(frame)) for index in range(len(frame))]

    def test_records_carry_wall_time_but_never_serialize_it(self):
        grid = _small_grid()
        frame = EngineRunner().run(grid)
        for record in frame:
            assert record.seconds > 0.0
            assert "seconds" not in record.to_dict()


class TestCLIAliases:
    def test_run_experiment_alias_is_byte_identical(self, capsys, tmp_path):
        from repro.cli import main

        options = ["--workload-limit", "1", "--branches", "1200", "--warmup", "100"]
        direct_json = tmp_path / "direct.json"
        assert main(["figure3", *options, "--json", str(direct_json)]) == 0
        direct_out = capsys.readouterr().out
        aliased_json = tmp_path / "aliased.json"
        assert main(["run", "figure3", *options, "--json", str(aliased_json)]) == 0
        aliased_out = capsys.readouterr().out
        assert direct_out.replace(str(direct_json), "X") == \
            aliased_out.replace(str(aliased_json), "X")
        assert json.loads(direct_json.read_text()) == json.loads(aliased_json.read_text())

    @pytest.mark.parametrize("option, value", [("--warmup", "-5"),
                                               ("--branches", "0")])
    def test_out_of_range_scale_option_is_a_cli_error(self, capsys, option, value):
        from repro.cli import main

        assert main(["figure5", "--workload-limit", "1", "--branches", "600",
                     "--warmup", "60", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: scale ")
        assert "Traceback" not in captured.err

    def test_list_experiments_command(self, capsys):
        from repro.cli import main

        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for command in LEGACY_COMMANDS:
            assert command in out

    def test_progress_streams_to_stderr_not_stdout(self, capsys):
        from repro.cli import main

        assert main(["figure3", "--workload-limit", "1", "--branches", "1200",
                     "--warmup", "100", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[5/5]" in captured.err
        assert "[5/5]" not in captured.out
