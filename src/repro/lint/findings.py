"""Findings: what a lint rule reports, and how reports serialize.

A :class:`Finding` pins one rule violation to a file and line.  Its identity
for baseline matching is ``(rule, path, message)`` — deliberately *without*
the line number, so grandfathered findings survive unrelated edits that shift
lines, while any change to what the rule actually says about the file makes
the entry stale (see :mod:`repro.lint.baseline`).

Schema v2 adds a ``scope`` to every finding: ``"module"`` findings come from
per-file AST rules and hold for any scan set containing the file;
``"project"`` findings come from the interprocedural rules (lock-order,
taint-determinism, schema-drift) and are only meaningful for a whole-project
scan (``repro lint --project``).  The scope is *not* part of baseline
identity, so ``repro.lint-baseline/v1`` files written before v2 keep
matching — their entries simply default to module scope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


#: Schema tag of the ``repro lint --json`` findings envelope.  v2 added the
#: per-finding ``scope`` plus the ``project`` (analysis counters) and
#: ``timing`` (per-rule seconds) result blocks.
LINT_SCHEMA = "repro.lint/v2"


class Severity(str, enum.Enum):
    """How bad a finding is.  Both levels fail the CI gate; severity ranks
    the listing and tells a reader whether the rule claims a live bug
    (``error``) or an invariant erosion (``warning``)."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Scope(str, enum.Enum):
    """How much of the tree a rule (and its findings) needs to see.

    ``MODULE`` rules judge files one at a time (plus fixed cross-references
    like the fingerprint contract); their findings hold for any scan set.
    ``PROJECT`` rules need the whole-program view built by
    :mod:`repro.lint.graph` — call graph, lock graph, taint flow — and only
    run under ``repro lint --project`` (or when selected explicitly).
    """

    MODULE = "module"
    PROJECT = "project"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: Registered rule id (``"determinism"``, ...).
        severity: :class:`Severity` of the violation.
        path: Display path of the file, normalized to forward slashes.
        line: 1-based line of the flagged node.
        col: 1-based column of the flagged node.
        message: Human-readable statement of the violation.  Must be stable
            for a given (rule, file) state — it is part of baseline identity.
        scope: :class:`Scope` of the rule that produced it (``module`` unless
            an interprocedural rule reported it).  Not part of baseline
            identity — pre-v2 baseline entries keep matching.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    scope: Scope = Scope.MODULE

    @property
    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used for baseline matching (line-number free)."""
        return (self.rule, self.path, self.message)

    @property
    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self) -> str:
        """The one-line text form (``path:line:col: severity[rule] message``)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity.value}[{self.rule}] {self.message}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "scope": self.scope.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
