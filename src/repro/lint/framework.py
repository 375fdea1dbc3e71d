"""The lint framework: rule registry, module parsing, suppressions, runner.

Rules are :class:`Rule` records registered by id (:func:`register_rule`); each
rule's ``check`` receives the whole parsed :class:`Project` and yields
:class:`~repro.lint.findings.Finding` objects, so cross-module rules (e.g.
fingerprint coverage, which relates ``engine.grid`` to ``store.keys``) use the
same interface as per-module ones.

Suppressions are line-scoped and justified, never file-scoped::

    started = time.perf_counter()  # repro-lint: disable=<rule> -- <why>

The marker suppresses the named rule(s) on that line.  The framework itself
polices suppression hygiene under the always-on ``suppression`` rule: unknown
rule ids, missing ``-- <why>`` justifications, and (when the full rule set
runs) suppressions that no longer suppress anything are findings in their own
right — which is what keeps suppressions narrow and current.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Any, Callable, Iterable, Iterator

from repro.lint.findings import Finding, Scope, Severity

#: Suppression marker: ``# repro-lint: disable=<id>[,<id>...] -- <why>``.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+?)\s*(?:--\s*(.*\S))?\s*$")

#: Mutating container method names several rules reason about.
MUTATING_METHODS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
})


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered lint rule.

    ``check`` is ``None`` only for framework-implemented rules (``syntax``,
    ``suppression``) which the runner handles itself but which still live in
    the registry so ``--list-rules`` shows them and suppression markers can
    validate their ids.

    ``scope`` declares how much of the tree the rule needs:
    :attr:`Scope.MODULE` rules run on every scan, :attr:`Scope.PROJECT` rules
    need the interprocedural analysis and run only under ``--project`` (or
    when selected explicitly with ``--rule``, which forces the analysis).
    """

    id: str
    severity: Severity
    description: str
    check: Callable[["Project"], Iterable[Finding]] | None = None
    scope: Scope = Scope.MODULE


_RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Register ``rule`` under its id; refuses silent overwrites."""
    if rule.id in _RULES:
        raise ValueError(f"lint rule {rule.id!r} is already registered")
    _RULES[rule.id] = rule
    return rule


def rule_by_id(rule_id: str) -> Rule:
    load_builtin_rules()
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(
            f"unknown lint rule {rule_id!r}; registered rules: {known}"
        ) from None


def list_rules() -> list[Rule]:
    """All registered rules, sorted by id (a stable listing like list-models)."""
    load_builtin_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def load_builtin_rules() -> None:
    """Import the modules that register the built-in rules (idempotent)."""
    import repro.lint.rules  # noqa: F401  (import-time registration)


# Framework-implemented rules: registered so their ids are first-class.
SYNTAX_RULE = register_rule(Rule(
    id="syntax",
    severity=Severity.ERROR,
    description="file cannot be parsed as Python (framework rule)",
))

SUPPRESSION_RULE = register_rule(Rule(
    id="suppression",
    severity=Severity.WARNING,
    description="suppression marker is malformed, unjustified, or unused "
                "(framework rule)",
))


@dataclass(slots=True)
class _SuppressionMark:
    """One parsed ``# repro-lint: disable=...`` marker."""

    line: int
    rule_ids: tuple[str, ...]
    justification: str | None
    used: bool = False


@dataclass(slots=True)
class ModuleUnit:
    """One parsed source file.

    ``module`` is the dotted module name derived from the path (everything
    from the last ``repro`` path component on), which is what rules scope on;
    files outside a ``repro`` tree fall back to their stem so fixture snippets
    can still be scanned.
    """

    path: Path
    rel: str
    module: str
    source: str
    tree: ast.Module | None
    suppressions: dict[int, list[_SuppressionMark]] = field(default_factory=dict)

    def lines(self) -> list[str]:
        return self.source.splitlines()


def module_name_for(path: Path) -> str:
    parts = list(path.parts)
    name = path.stem
    if "repro" in parts:
        tail = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        tail[-1] = name
        if name == "__init__":
            tail.pop()
        return ".".join(tail)
    return name


def _parse_suppressions(unit: ModuleUnit) -> None:
    for lineno, line in enumerate(unit.lines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        ids = tuple(part.strip() for part in match.group(1).split(",")
                    if part.strip())
        mark = _SuppressionMark(
            line=lineno, rule_ids=ids, justification=match.group(2))
        unit.suppressions.setdefault(lineno, []).append(mark)


@dataclass(slots=True)
class Project:
    """Every module of one lint run, addressable by dotted name.

    In project mode the runner attaches the interprocedural view before any
    rule runs: ``analysis`` is the :class:`repro.lint.graph.ProjectAnalysis`
    built from the module summaries, and ``surface_doc`` /
    ``surface_path`` carry the loaded ``api-surface.json`` for the
    schema-drift rule.  Module-scope rules ignore all three (``analysis`` is
    ``None`` on a plain scan).
    """

    modules: list[ModuleUnit]
    analysis: Any = None
    surface_doc: dict[str, Any] | None = None
    surface_path: str | None = None

    def by_module(self, name: str) -> ModuleUnit | None:
        for unit in self.modules:
            if unit.module == name:
                return unit
        return None

    def in_scope(self, prefixes: tuple[str, ...]) -> Iterator[ModuleUnit]:
        """Modules whose dotted name matches one of ``prefixes`` (a prefix
        ending in ``.`` matches the subtree; otherwise the exact module)."""
        for unit in self.modules:
            if unit.tree is None:
                continue
            for prefix in prefixes:
                if unit.module == prefix or (
                        prefix.endswith(".") and unit.module.startswith(prefix)):
                    yield unit
                    break


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run, pre-sorted and ready to render."""

    rules: list[str]
    paths: list[str]
    findings: list[Finding]
    suppressed: int
    baselined: int
    timing: dict[str, float] = field(default_factory=dict)
    project: dict[str, Any] | None = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_payload(self) -> dict[str, Any]:
        """The ``result`` half of the ``repro.lint/v2`` envelope.

        ``timing`` maps rule id → seconds spent in its check; ``project``
        (present only when the interprocedural analysis ran) carries the
        module/analyzed counts.
        """
        payload: dict[str, Any] = {
            "rules": list(self.rules),
            "paths": list(self.paths),
            "findings": [finding.to_dict() for finding in self.findings],
            "counts": {
                "active": len(self.findings),
                "suppressed": self.suppressed,
                "baselined": self.baselined,
            },
            "timing": {rule: round(seconds, 6)
                       for rule, seconds in sorted(self.timing.items())},
        }
        if self.project is not None:
            payload["project"] = dict(self.project)
        return payload


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, sorted; rejects missing paths."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(
                candidate for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        else:
            raise ValueError(f"lint path {str(path)!r} does not exist")
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def parse_project(paths: Iterable[str | Path]) -> tuple[Project, list[Finding]]:
    """Parse every file into a :class:`Project`; syntax errors become
    ``syntax`` findings instead of aborting the run."""
    units: list[ModuleUnit] = []
    findings: list[Finding] = []
    for path in discover_files(paths):
        rel = str(PurePosixPath(*path.parts))
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            tree = None
            findings.append(Finding(
                rule=SYNTAX_RULE.id, severity=SYNTAX_RULE.severity,
                path=rel, line=error.lineno or 1, col=(error.offset or 1),
                message=f"file does not parse: {error.msg}"))
        unit = ModuleUnit(path=path, rel=rel, module=module_name_for(path),
                          source=source, tree=tree)
        _parse_suppressions(unit)
        units.append(unit)
    return Project(modules=units), findings


def _resolve_rules(rule_ids: Iterable[str] | None,
                   project_mode: bool = False) -> list[Rule]:
    load_builtin_rules()
    if rule_ids is None:
        return [rule for rule in list_rules()
                if rule.check is not None
                and (project_mode or rule.scope is Scope.MODULE)]
    return [rule_by_id(rule_id) for rule_id in rule_ids]


def _apply_suppressions(project: Project,
                        findings: list[Finding]) -> tuple[list[Finding], int]:
    active: list[Finding] = []
    suppressed = 0
    by_rel = {unit.rel: unit for unit in project.modules}
    for finding in findings:
        unit = by_rel.get(finding.path)
        marks = unit.suppressions.get(finding.line, []) if unit else []
        hit = next((mark for mark in marks if finding.rule in mark.rule_ids),
                   None)
        if hit is not None:
            hit.used = True
            suppressed += 1
        else:
            active.append(finding)
    return active, suppressed


def _suppression_hygiene(project: Project,
                         ran_rule_ids: set[str] | None) -> list[Finding]:
    """Malformed/unknown/unjustified markers are always findings; *unused*
    markers only when every rule the marker names actually ran this scan
    (``ran_rule_ids``) — a marker for a project rule is not stale just
    because this was a module-mode scan, nor under a ``--rule`` filter."""
    load_builtin_rules()
    findings: list[Finding] = []
    for unit in project.modules:
        for marks in unit.suppressions.values():
            for mark in marks:
                for rule_id in mark.rule_ids:
                    if rule_id not in _RULES:
                        findings.append(Finding(
                            rule=SUPPRESSION_RULE.id,
                            severity=SUPPRESSION_RULE.severity,
                            path=unit.rel, line=mark.line, col=1,
                            message=f"suppression names unknown rule "
                                    f"{rule_id!r}"))
                if not mark.rule_ids:
                    findings.append(Finding(
                        rule=SUPPRESSION_RULE.id,
                        severity=SUPPRESSION_RULE.severity,
                        path=unit.rel, line=mark.line, col=1,
                        message="suppression disables no rule"))
                if not mark.justification:
                    findings.append(Finding(
                        rule=SUPPRESSION_RULE.id,
                        severity=SUPPRESSION_RULE.severity,
                        path=unit.rel, line=mark.line, col=1,
                        message="suppression lacks a '-- <why>' justification"))
                if (ran_rule_ids is not None and not mark.used
                        and mark.rule_ids
                        and all(rule_id in ran_rule_ids
                                for rule_id in mark.rule_ids)):
                    findings.append(Finding(
                        rule=SUPPRESSION_RULE.id,
                        severity=SUPPRESSION_RULE.severity,
                        path=unit.rel, line=mark.line, col=1,
                        message="suppression matched no finding; remove it "
                                f"(disable={','.join(mark.rule_ids)})"))
    return findings


def _build_analysis(project: Project):
    """Attach the interprocedural analysis to ``project`` (idempotent)."""
    if project.analysis is not None:
        return project.analysis
    # Local import: the graph is only paid for in project mode.
    from repro.lint.graph import build_analysis

    project.analysis = build_analysis(
        [unit for unit in project.modules if unit.tree is not None])
    return project.analysis


def analyze_project(paths: Iterable[str | Path]):
    """Parse ``paths`` and build just the :class:`ProjectAnalysis` — what
    ``repro lint --write-surface`` uses to record the schema surface."""
    project, _ = parse_project(paths)
    return _build_analysis(project)


def run_lint(paths: Iterable[str | Path],
             rule_ids: Iterable[str] | None = None,
             baseline: set[tuple[str, str, str]] | None = None,
             *,
             project_mode: bool = False,
             surface_doc: dict[str, Any] | None = None,
             surface_path: str | None = None) -> LintReport:
    """Run the (selected) rules over ``paths`` and return a report.

    ``baseline`` is a set of grandfathered finding identities
    (:attr:`Finding.baseline_key`); matching findings are counted but not
    reported as active.  ``project_mode`` enables the project-scoped rules
    and builds the interprocedural analysis; selecting a project rule
    explicitly via ``rule_ids`` forces the analysis too.  ``surface_doc``/``surface_path``
    hand the loaded ``api-surface.json`` to the schema-drift rule.
    """
    rules = _resolve_rules(rule_ids, project_mode)
    project, findings = parse_project(paths)
    project.surface_doc = surface_doc
    project.surface_path = surface_path
    if any(rule.scope is Scope.PROJECT and rule.check is not None
           for rule in rules):
        _build_analysis(project)
    timing: dict[str, float] = {}
    for rule in rules:
        if rule.check is None:
            continue
        started = time.perf_counter()
        for finding in rule.check(project):
            if finding.rule != rule.id:
                raise ValueError(
                    f"rule {rule.id!r} produced a finding labelled "
                    f"{finding.rule!r}")
            findings.append(finding)
        timing[rule.id] = time.perf_counter() - started
    active, suppressed = _apply_suppressions(project, findings)
    # Unused-marker hygiene needs to know which rules ran: under a --rule
    # filter it is disabled entirely (historical behavior — a partial scan
    # proves nothing about other markers), otherwise a marker is stale only
    # if every rule it names was part of this scan.
    ran_for_hygiene = (None if rule_ids is not None
                       else {rule.id for rule in rules})
    active.extend(_suppression_hygiene(project, ran_for_hygiene))
    baselined = 0
    if baseline:
        surviving = []
        for finding in active:
            if finding.baseline_key in baseline:
                baselined += 1
            else:
                surviving.append(finding)
        active = surviving
    active.sort(key=lambda finding: finding.sort_key)
    # With no filter the framework rules (syntax, suppression) ran too; the
    # envelope lists everything that was enforced this scan (project rules
    # only in project mode).
    ran = (sorted({rule.id for rule in rules}
                  | {SYNTAX_RULE.id, SUPPRESSION_RULE.id})
           if rule_ids is None else [rule.id for rule in rules])
    analysis = project.analysis
    return LintReport(
        rules=ran,
        paths=[str(path) for path in paths],
        findings=active,
        suppressed=suppressed,
        baselined=baselined,
        timing=timing,
        project=dict(analysis.stats) if analysis is not None else None,
    )
