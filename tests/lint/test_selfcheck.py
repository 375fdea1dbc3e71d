"""Dogfood self-checks: the shipped tree must satisfy its own linter.

These tests run from the repository root (the suite's working directory) and
pin the facts the CI gate relies on: ``repro lint src/`` and ``repro lint
--project src/`` are both green, the checked-in ``lint-baseline.json`` is
**empty** (the PR 7 grandfathered findings are fixed — the ratchet keeps it
that way), the checked-in ``api-surface.json`` matches a fresh analysis of
the tree, and the inline suppressions in the source tree are all used and
justified.
"""

import json

from repro.cli import main
from repro.lint import analyze_project, baseline_payload, run_lint
from repro.lint.rules.schema_drift import surface_payload

BASELINE_FILE = "lint-baseline.json"
SURFACE_FILE = "api-surface.json"


class TestShippedTree:
    def test_repro_lint_src_is_clean(self, capsys):
        assert main(["lint", "src"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_repro_lint_project_src_is_clean(self, capsys):
        # The full interprocedural gate: lock-order, taint-determinism and
        # schema-drift against the checked-in surface, fresh analysis.
        assert main(["lint", "--project", "src"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_shipped_baseline_is_empty_and_stays_empty(self):
        # The ratchet: PR 8 burned the baseline down to zero entries; any
        # regrowth means a new violation was grandfathered instead of fixed.
        with open(BASELINE_FILE, encoding="utf-8") as handle:
            shipped = json.load(handle)
        assert shipped["entries"] == [], (
            "lint-baseline.json must stay empty: fix new findings instead "
            "of re-baselining them")
        report = run_lint(["src"], baseline=None)
        assert baseline_payload(report.findings) == shipped

    def test_shipped_surface_matches_a_fresh_analysis(self):
        analysis = analyze_project(["src"])
        fresh = surface_payload(analysis)
        with open(SURFACE_FILE, encoding="utf-8") as handle:
            shipped = json.load(handle)
        assert fresh == shipped, (
            "api-surface.json is out of date; if the schema change was "
            "intentional (version bumped), re-record it with "
            "`python -m repro lint --write-surface src/`")

    def test_suppressions_in_src_are_used_and_justified(self):
        # A project run exercises every rule, so every marker is judged for
        # staleness; the counter pins that the runner.py wall-time markers
        # stay live.  (serve.py's old lock-order marker is gone: the async
        # job tier no longer holds a lock across execution.)
        report = run_lint(["src"], baseline=None, project_mode=True)
        assert report.suppressed >= 2
        assert not [f for f in report.findings if f.rule == "suppression"]

    def test_project_envelope_reports_analysis_counters(self, capsys):
        assert main(["lint", "--project", "src", "--json"]) == 0
        project = json.loads(capsys.readouterr().out)["result"]["project"]
        assert project == {"modules": project["modules"],
                           "analyzed": project["modules"]}
        assert project["modules"] > 0
