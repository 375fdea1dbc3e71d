"""Tests for the experiment drivers (small-scale versions of every figure/table)."""

import pytest

from repro.engine.spec import experiment_spec
from repro.experiments.ablation import ablation_jobs
from repro.experiments.attacks import attack_matrix_jobs
from repro.experiments.figure2 import figure2_jobs
from repro.experiments.figure3 import figure3_grid
from repro.experiments.figure4 import figure4_grid
from repro.experiments.figure5 import figure5_grid
from repro.experiments.figure6 import figure6_grid
from repro.experiments.tables import tables_jobs
from repro.experiments import (
    ExperimentScale,
    format_figure3,
    format_figure4,
    format_figure6,
    format_thresholds,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
    run_table2,
    run_table4,
    run_thresholds,
)

_SMALL = ExperimentScale(branch_count=4_000, warmup_branches=400, seed=13)


class TestTables:
    def test_table1_has_all_twelve_cells(self):
        rows = run_table1()
        assert len(rows) == 12
        assert {row["structure"] for row in rows} == {"BTB", "PHT", "RSB"}

    def test_table2_matches_paper_widths(self):
        rows = {row["function"]: row for row in run_table2()}
        assert rows["R1"]["stbpu_input_bits"] == 80
        assert rows["R1"]["output_bits"] == 22
        assert rows["R4"]["baseline_input_bits"] == 50
        assert rows["Rp"]["output_bits"] == 10

    def test_table4_reports_core_configuration(self):
        table = run_table4()
        assert table["btb_entries"] == 4096
        assert table["rob_entries"] == 192
        assert table["issue_width"] == 8

    def test_thresholds_close_to_paper(self):
        report = run_thresholds()
        assert report.complexities.pht_reuse_mispredictions == pytest.approx(8.38e5, rel=0.05)
        assert report.misprediction_threshold_r005 == pytest.approx(4.15e4, rel=0.05)
        assert report.eviction_threshold_r005 == pytest.approx(2.65e4, rel=0.05)
        assert "paper" in format_thresholds(report)


class TestFigure2:
    def test_reference_design_is_single_cycle_and_valid(self):
        result = run_figure2(attempts_per_function=4, uniformity_samples=1_500,
                             avalanche_samples=30)
        assert result.reference_single_cycle
        assert result.reference_critical_path <= 45
        assert 0.35 < result.reference_avalanche_mean < 0.65
        # The generator finds at least one valid candidate for most functions.
        assert len(result.generated) >= 3


class TestFigure3:
    def test_small_run_reproduces_model_ordering(self):
        result = run_figure3(_SMALL, workloads=["505.mcf", "apache2_prefork_c128",
                                                "mysql_64con_50s"])
        averages = result.averages()
        baseline_name = result.model_order[0]
        assert averages[baseline_name] == pytest.approx(1.0)
        # STBPU stays within a few percent of the unprotected baseline ...
        assert averages["ST_SKLCond"] > 0.97
        # ... and beats the flushing-based microcode protections.
        assert averages["ST_SKLCond"] > averages["ucode_protection_1"]
        assert averages["ST_SKLCond"] > averages["ucode_protection_2"]
        assert "average" in format_figure3(result)


class TestFigure4:
    def test_single_workload_deltas_are_small(self):
        result = run_figure4(_SMALL, workloads=("505.mcf", "503.bwaves"),
                             predictors=["SKLCond"])
        assert result.predictors() == ["SKLCond"]
        assert abs(result.average_direction_reduction("SKLCond")) < 0.05
        assert abs(result.average_target_reduction("SKLCond")) < 0.05
        assert 0.9 < result.average_normalized_ipc("SKLCond") < 1.1
        assert "SKLCond" in format_figure4(result)


class TestFigure5:
    def test_smt_pairs_keep_ipc_close_to_unprotected(self):
        result = run_figure5(ExperimentScale(branch_count=3_000, warmup_branches=300, seed=13),
                             pairs=(("503.bwaves", "505.mcf"),),
                             predictors=["SKLCond"])
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert 0.85 < cell.normalized_hmean_ipc < 1.1
        assert abs(cell.direction_reduction) < 0.08


class TestFigure6:
    def test_aggressive_rerandomization_degrades_gracefully(self):
        scale = ExperimentScale(branch_count=3_000, warmup_branches=300, seed=13,
                                workload_limit=1)
        result = run_figure6(scale, r_values=(0.05, 0.00002))
        assert len(result.points) == 2
        relaxed, aggressive = result.points
        assert relaxed.misprediction_threshold > aggressive.misprediction_threshold
        # Much lower thresholds mean at least as many re-randomizations and no
        # better accuracy.
        assert (aggressive.rerandomizations_per_kilo_branch
                >= relaxed.rerandomizations_per_kilo_branch)
        assert aggressive.normalized_direction_accuracy <= relaxed.normalized_direction_accuracy + 0.02
        assert "hmean ipc" in format_figure6(result)


_DRIVER_DEFAULTS = {
    "figure2": figure2_jobs,
    "figure3": lambda: figure3_grid().jobs(),
    "figure4": lambda: figure4_grid().jobs(),
    "figure5": lambda: figure5_grid().jobs(),
    "figure6": lambda: figure6_grid().jobs(),
    "ablation": ablation_jobs,
    "attacks": attack_matrix_jobs,
    "tables": tables_jobs,
}


@pytest.mark.parametrize("name", sorted(_DRIVER_DEFAULTS))
def test_driver_defaults_build_the_cli_jobs(name):
    # A driver called without arguments builds exactly the jobs that
    # `repro <name>` runs with no options.
    spec = experiment_spec(name)
    assert _DRIVER_DEFAULTS[name]() == spec.build_jobs(spec.merged_params({}))
