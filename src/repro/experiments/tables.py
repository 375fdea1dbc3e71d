"""Table reproductions: Table I (attack surface), Table II (remapping I/O),
Table IV (simulation configuration) and the Section VI-A.5 threshold numbers.

:func:`run_tables` routes the four artifacts through the engine as ``"table"``
jobs so the CLI can regenerate and export them like any other grid.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.engine import EngineRunner, ExperimentSpec, Job, register_experiment

from repro.core.remapping import TABLE_II
from repro.security.analysis import (
    AttackComplexitySummary,
    derive_rerandomization_thresholds,
    summarize_attack_complexities,
)
from repro.security.parameters import SKYLAKE_PARAMETERS, AnalysisParameters
from repro.security.taxonomy import table_rows
from repro.sim.config import TABLE_IV_CONFIG, CPUConfig


def run_table1() -> list[dict[str, str]]:
    """Table I: the collision-based attack-surface classification."""
    return table_rows()


def run_table2() -> list[dict[str, object]]:
    """Table II: baseline vs STBPU remapping-function I/O widths."""
    rows = []
    for label, spec in TABLE_II.items():
        rows.append(
            {
                "function": label,
                "baseline_input_bits": spec.baseline_input_bits,
                "stbpu_input_bits": spec.stbpu_input_bits,
                "output_bits": spec.output_bits,
                "output": spec.output_description,
                "compression_ratio": round(spec.compression_ratio, 2),
            }
        )
    return rows


def run_table4(config: CPUConfig = TABLE_IV_CONFIG) -> dict[str, object]:
    """Table IV: the cycle-approximate CPU configuration."""
    return {
        "ISA": "x86-64-like functional branch model",
        "frequency_ghz": config.frequency_ghz,
        "issue_width": config.issue_width,
        "rob_entries": config.rob_entries,
        "iq_entries": config.iq_entries,
        "lq_entries": config.lq_entries,
        "sq_entries": config.sq_entries,
        "btb_entries": config.bpu.btb_entries,
        "btb_ways": config.bpu.btb_ways,
        "rsb_entries": config.bpu.rsb_entries,
        "misprediction_penalty_cycles": config.misprediction_penalty_cycles,
    }


@dataclass(slots=True)
class ThresholdReport:
    """The Section VI-A.5 / VII-A numbers: complexities and derived thresholds."""

    complexities: AttackComplexitySummary
    misprediction_threshold_r005: int
    eviction_threshold_r005: int

    #: The values the paper reports, for side-by-side comparison.
    paper_btb_reuse_mispredictions: float = 6.9e8
    paper_btb_reuse_evictions: float = 2.0 ** 21
    paper_pht_reuse_mispredictions: float = 8.38e5
    paper_btb_eviction_evictions: float = 5.3e5
    paper_injection_mispredictions: float = 2.0 ** 31
    paper_misprediction_threshold_r005: float = 4.15e4
    paper_eviction_threshold_r005: float = 2.65e4


def run_thresholds(parameters: AnalysisParameters = SKYLAKE_PARAMETERS) -> ThresholdReport:
    """Recompute every attack complexity and the r = 0.05 thresholds."""
    complexities = summarize_attack_complexities(parameters)
    config = derive_rerandomization_thresholds(parameters, r=0.05)
    return ThresholdReport(
        complexities=complexities,
        misprediction_threshold_r005=config.misprediction_threshold,
        eviction_threshold_r005=config.eviction_threshold,
    )


def thresholds_payload() -> dict[str, float]:
    """The threshold report flattened to a JSON-able dict (engine table job)."""
    report = run_thresholds()
    payload = {f"measured_{key}": value
               for key, value in asdict(report.complexities).items()}
    payload.update(
        misprediction_threshold_r005=float(report.misprediction_threshold_r005),
        eviction_threshold_r005=float(report.eviction_threshold_r005),
        paper_btb_reuse_mispredictions=report.paper_btb_reuse_mispredictions,
        paper_btb_reuse_evictions=report.paper_btb_reuse_evictions,
        paper_pht_reuse_mispredictions=report.paper_pht_reuse_mispredictions,
        paper_btb_eviction_evictions=report.paper_btb_eviction_evictions,
        paper_injection_mispredictions=report.paper_injection_mispredictions,
        paper_misprediction_threshold_r005=report.paper_misprediction_threshold_r005,
        paper_eviction_threshold_r005=report.paper_eviction_threshold_r005,
    )
    return payload


#: The four table artifacts, in report order.
TABLE_NAMES: tuple[str, ...] = ("table1", "table2", "table4", "thresholds")


def tables_jobs() -> list[Job]:
    """One engine ``table`` job per artifact."""
    return [
        Job(index=index, kind="table", params=(("table", name),))
        for index, name in enumerate(TABLE_NAMES)
    ]


def collect_tables(frame) -> dict[str, object]:
    """Reduce an executed tables frame to ``{table name: payload}``."""
    return {record.workload: record.payload for record in frame}


def run_tables(workers: int = 1) -> dict[str, object]:
    """Regenerate every table artifact through the engine runner."""
    return collect_tables(EngineRunner(workers=workers).run_jobs(tables_jobs()))


def format_tables(result: dict[str, object]) -> str:
    """Render all four table artifacts (JSON dumps plus the threshold table)."""
    lines = []
    for name in ("table1", "table2", "table4"):
        lines.append(f"{name}:")
        lines.append(json.dumps(result[name], indent=2, default=str))
    lines.append(format_thresholds_payload(result["thresholds"]))
    return "\n".join(lines)


def format_thresholds(report: ThresholdReport) -> str:
    c = report.complexities
    lines = [
        "attack complexity (events for 50% success)        measured        paper",
        f"BTB reuse side channel, mispredictions       {c.btb_reuse_mispredictions:14.3g} {report.paper_btb_reuse_mispredictions:12.3g}",
        f"BTB reuse side channel, evictions            {c.btb_reuse_evictions:14.3g} {report.paper_btb_reuse_evictions:12.3g}",
        f"PHT reuse side channel, mispredictions       {c.pht_reuse_mispredictions:14.3g} {report.paper_pht_reuse_mispredictions:12.3g}",
        f"BTB eviction side channel, evictions         {c.btb_eviction_evictions:14.3g} {report.paper_btb_eviction_evictions:12.3g}",
        f"Spectre v2 / RSB injection, mispredictions   {c.injection_mispredictions:14.3g} {report.paper_injection_mispredictions:12.3g}",
        f"misprediction threshold at r=0.05            {report.misprediction_threshold_r005:14d} {report.paper_misprediction_threshold_r005:12.3g}",
        f"eviction threshold at r=0.05                 {report.eviction_threshold_r005:14d} {report.paper_eviction_threshold_r005:12.3g}",
    ]
    return "\n".join(lines)


def format_thresholds_payload(payload: dict[str, float]) -> str:
    """Render the same side-by-side table from a flattened thresholds payload,
    so a caller holding the engine job's result need not recompute the report."""
    rows = [
        ("BTB reuse side channel, mispredictions",
         "measured_btb_reuse_mispredictions", "paper_btb_reuse_mispredictions"),
        ("BTB reuse side channel, evictions",
         "measured_btb_reuse_evictions", "paper_btb_reuse_evictions"),
        ("PHT reuse side channel, mispredictions",
         "measured_pht_reuse_mispredictions", "paper_pht_reuse_mispredictions"),
        ("BTB eviction side channel, evictions",
         "measured_btb_eviction_evictions", "paper_btb_eviction_evictions"),
        ("Spectre v2 / RSB injection, mispredictions",
         "measured_injection_mispredictions", "paper_injection_mispredictions"),
        ("misprediction threshold at r=0.05",
         "misprediction_threshold_r005", "paper_misprediction_threshold_r005"),
        ("eviction threshold at r=0.05",
         "eviction_threshold_r005", "paper_eviction_threshold_r005"),
    ]
    lines = ["attack complexity (events for 50% success)        measured        paper"]
    for label, measured_key, paper_key in rows:
        lines.append(
            f"{label:44s} {payload[measured_key]:14.3g} {payload[paper_key]:12.3g}"
        )
    return "\n".join(lines)


register_experiment(ExperimentSpec(
    name="tables",
    description="Tables I/II/IV and the threshold numbers",
    kind="table",
    build_jobs=lambda params: tables_jobs(),
    post_process=lambda frame, params: collect_tables(frame),
    formatter=format_tables,
))
