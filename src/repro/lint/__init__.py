"""``repro.lint`` — AST-based invariant checks for this repository.

The test suite can only spot-check the three invariants the system rests on;
this package encodes them as static-analysis rules so every change is checked
mechanically:

* **determinism** — results are content-addressed by fingerprint (PR 5), so
  any hidden nondeterminism on the fingerprint/result path silently poisons
  the cache;
* **backend parity** — every replay backend must stay bit-identical (PR 4/6),
  so a model must never half-join the vector backend;
* **serve-tier thread safety** — everything reachable from ``repro serve``'s
  threaded handlers must be lock-disciplined.

Module-scoped rules walk one file's AST at a time.  Project-scoped rules
(``repro lint --project``) additionally query the interprocedural analysis in
:mod:`repro.lint.graph` — a call graph plus per-function summaries — to prove
cross-module invariants: lock-order soundness, taint-free fingerprints, and a
stable serialized schema surface (``api-surface.json``).  Nothing is imported
or executed — AST only.  Findings can be suppressed inline (``# repro-lint:
disable=<rule> -- <why>``) or grandfathered in a checked-in baseline file
(``lint-baseline.json``); see :mod:`repro.lint.framework` and
:mod:`repro.lint.baseline`.  The CLI front end is ``python -m repro lint``
(:mod:`repro.lint.cli`).
"""

from repro.lint.baseline import (
    BASELINE_SCHEMA,
    DEFAULT_BASELINE_NAME,
    baseline_payload,
    load_baseline,
)
from repro.lint.findings import LINT_SCHEMA, Finding, Scope, Severity
from repro.lint.framework import (
    LintReport,
    ModuleUnit,
    Project,
    Rule,
    analyze_project,
    list_rules,
    load_builtin_rules,
    register_rule,
    rule_by_id,
    run_lint,
)
from repro.lint.graph import (
    ProjectAnalysis,
    summarize_module,
)

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LINT_SCHEMA",
    "LintReport",
    "ModuleUnit",
    "Project",
    "ProjectAnalysis",
    "Rule",
    "Scope",
    "Severity",
    "analyze_project",
    "baseline_payload",
    "list_rules",
    "load_baseline",
    "load_builtin_rules",
    "register_rule",
    "rule_by_id",
    "run_lint",
    "summarize_module",
]
