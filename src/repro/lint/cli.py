"""``python -m repro lint`` — the CLI front end of :mod:`repro.lint`.

Exit codes follow the convention the CI gate relies on: **0** clean (no
active finding — suppressed and baselined ones do not count), **1** findings,
**2** usage error (unknown rule, missing path, unreadable baseline/surface).

``--json`` emits the versioned ``repro.lint/v2`` envelope — the same
``{"schema", "spec", "result"}`` shape as every other ``--json`` artifact —
to stdout (bare flag) or to a file (``--json PATH``), so CI can upload and
diff reports.  ``--list-rules`` prints the sorted rule registry like the
other pinned listings; ``--write-baseline`` regenerates the grandfathered
findings file from a fresh scan.

``--project`` turns on the interprocedural rules (lock-order,
taint-determinism, schema-drift) on top of the module rules.  Project mode
compares the tree's schema surface against ``--surface`` (default
``api-surface.json`` when present).  ``--write-surface`` re-records the
surface after an intentional schema change — the analysis-side analogue of
``--write-baseline``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    dump_baseline,
    load_baseline,
)
from repro.lint.findings import LINT_SCHEMA
from repro.lint.framework import (
    LintReport,
    analyze_project,
    list_rules,
    run_lint,
)

#: Default schema-surface file (repo-root relative), like the baseline.
DEFAULT_SURFACE_NAME = "api-surface.json"


def lint_envelope(report: LintReport) -> dict[str, Any]:
    """The ``repro.lint/v2`` findings envelope for ``report``."""
    return {"schema": LINT_SCHEMA, "spec": "lint",
            "result": report.to_payload()}


def format_rules() -> str:
    """The sorted rule listing (id, severity, scope, one-line description)."""
    rules = list_rules()
    width = max(len(rule.id) for rule in rules)
    return "\n".join(
        f"{rule.id:{width}s}  {rule.severity.value:7s}  "
        f"{rule.scope.value:7s}  {rule.description}"
        for rule in rules)


def format_report(report: LintReport) -> str:
    lines = [finding.render() for finding in report.findings]
    tally = (f"{len(report.findings)} finding(s), "
             f"{report.suppressed} suppressed, {report.baselined} baselined")
    if report.project is not None:
        stats = report.project
        tally += f"; analysis: {stats.get('analyzed', 0)} analyzed"
    lines.append(f"lint: {tally}" if report.findings
                 else f"lint: clean ({tally})")
    return "\n".join(lines)


def add_lint_parser(subparsers) -> None:
    """Register the ``lint`` subcommand on the main CLI's subparsers."""
    parser = subparsers.add_parser(
        "lint",
        help="run the repository's AST invariant checks "
             "(determinism, fingerprint coverage, thread safety, backend "
             "parity, hot-path hygiene; --project adds lock-order, "
             "taint-determinism, schema-drift)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)")
    parser.add_argument(
        "--rule", action="append", metavar="ID", default=None,
        help="run only this rule (repeatable; default: all rules; selecting "
             "a project rule builds the analysis even without --project)")
    parser.add_argument(
        "--project", action="store_true",
        help="enable the project-scoped interprocedural rules "
             "(lock-order, taint-determinism, schema-drift)")
    parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the repro.lint/v2 findings envelope to PATH "
             "(bare --json: stdout)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the sorted rule registry and exit")
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="grandfathered-findings file "
             f"(default: {DEFAULT_BASELINE_NAME} when present)")
    parser.add_argument(
        "--no-baseline", dest="use_baseline", action="store_false",
        default=True, help="ignore any baseline file")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from this scan's findings and exit 0")
    parser.add_argument(
        "--surface", metavar="PATH", default=None,
        help="schema-surface file for the schema-drift rule "
             f"(default: {DEFAULT_SURFACE_NAME} when present)")
    parser.add_argument(
        "--write-surface", action="store_true",
        help="re-record the schema surface from this scan and exit 0 "
             "(after an intentional schema change)")
    parser.set_defaults(handler=cmd_lint)


def _resolve_baseline(args: argparse.Namespace):
    """The baseline key set for this run (or ``None``), honouring flags."""
    if not args.use_baseline:
        return None, None
    if args.baseline is not None:
        if not os.path.exists(args.baseline) and not args.write_baseline:
            raise ValueError(
                f"baseline file {args.baseline!r} does not exist")
        path = args.baseline
    elif os.path.exists(DEFAULT_BASELINE_NAME):
        path = DEFAULT_BASELINE_NAME
    else:
        return None, None
    if args.write_baseline or not os.path.exists(path):
        return None, path
    return load_baseline(path), path


def _resolve_surface(args: argparse.Namespace):
    """``(surface_doc, surface_path)`` for this run, honouring flags."""
    if args.surface is not None:
        if not os.path.exists(args.surface) and not args.write_surface:
            raise ValueError(
                f"surface file {args.surface!r} does not exist")
        path = args.surface
    elif os.path.exists(DEFAULT_SURFACE_NAME):
        path = DEFAULT_SURFACE_NAME
    else:
        return None, None
    if args.write_surface or not os.path.exists(path):
        return None, path
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"surface file {path!r} is not a JSON object")
    return doc, path


def cmd_lint(args: argparse.Namespace) -> int:
    """Handler for ``repro lint``; returns the process exit code."""
    if args.list_rules:
        print(format_rules())
        return 0
    surface_doc, surface_path = _resolve_surface(args)
    if args.write_surface:
        # Surface recording is its own fast path: build the analysis and
        # serialize what the tree declares today.
        from repro.lint.rules.schema_drift import surface_payload

        analysis = analyze_project(args.paths)
        target = surface_path or args.surface or DEFAULT_SURFACE_NAME
        payload = surface_payload(analysis)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"schema surface written to {target} "
              f"({len(payload['entries'])} entry(ies))")
        return 0
    baseline, baseline_path = _resolve_baseline(args)
    report = run_lint(args.paths, rule_ids=args.rule, baseline=baseline,
                      project_mode=args.project, surface_doc=surface_doc,
                      surface_path=surface_path)
    if args.write_baseline:
        target = baseline_path or args.baseline or DEFAULT_BASELINE_NAME
        count = dump_baseline(report.findings, target)
        print(f"baseline written to {target} ({count} entry(ies))")
        return 0
    if args.json:
        payload = lint_envelope(report)
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"JSON written to {args.json}")
    if args.json != "-":
        print(format_report(report))
    return 0 if report.clean else 1
