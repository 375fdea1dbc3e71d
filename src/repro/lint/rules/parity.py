"""``backend-parity``: models join the vector backend fully or not at all.

The replay backends are parity-tested byte-identical, and the store answers
for all of them with one fingerprint — so the vector surface must never be
*half*-implemented.  The shapes this rule enforces (see
:mod:`repro.bpu.mapping` and :mod:`repro.sim.vector` for the idiom):

* an override of ``vector_kernel`` / ``vector_maps`` / ``vector_encode``
  must gate on its **exact class** (``type(self) is ...``), delegate to a
  wrapped component / kernel factory, or be a bare ``return None`` — a
  behavioural subclass must never inherit a mismatched kernel;
* a mapping-provider subclass that overrides any scalar map method must
  *decide* its vector story by defining ``vector_maps`` itself (even if that
  is ``return None`` — explicit fallback, not silent inheritance), and a
  codec overriding ``encode``/``decode`` must define ``vector_encode``;
* every span stepper in :mod:`repro.sim.vector` (class name ending
  ``Stepper``) must implement the full ``STEPPER_PROTOCOL`` declared there,
  so a new direction predictor cannot plug in a partial stepper.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.framework import ModuleUnit, Project, Rule, register_rule
from repro.lint.rules._ast import finding_at, string_tuple_constant

#: Modules carrying the vector-backend surface.
SCOPE = ("repro.bpu.", "repro.core.", "repro.sim.vector")

#: The scalar map methods of :class:`repro.bpu.mapping.MappingProvider`;
#: overriding any of them changes table addressing, which the vector maps
#: mirror exactly.
PROVIDER_MAP_METHODS = frozenset({
    "btb_key", "pht_index_1level", "pht_index_2level",
    "tage_index", "tage_tag", "perceptron_index",
})

#: Scalar codec methods mirrored by ``vector_encode``.
CODEC_METHODS = frozenset({"encode", "decode"})

#: Module declaring the span-stepper protocol constant.
VECTOR_MODULE = "repro.sim.vector"
STEPPER_PROTOCOL_NAME = "STEPPER_PROTOCOL"

_VECTOR_OVERRIDES = ("vector_kernel", "vector_maps", "vector_encode")


def _body_statements(func: ast.FunctionDef) -> list[ast.stmt]:
    body = list(func.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]  # docstring
    return [stmt for stmt in body
            if not isinstance(stmt, (ast.Import, ast.ImportFrom))]


def _returns_none_only(func: ast.FunctionDef) -> bool:
    body = _body_statements(func)
    return len(body) == 1 and isinstance(body[0], ast.Return) and (
        body[0].value is None or (
            isinstance(body[0].value, ast.Constant)
            and body[0].value.value is None))


def _has_exact_type_gate(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            operands = [node.left, *node.comparators]
            for operand in operands:
                if isinstance(operand, ast.Call) and isinstance(
                        operand.func, ast.Name) and operand.func.id == "type":
                    return True
    return False


def _delegates(func: ast.FunctionDef) -> bool:
    """Whether the override routes through a component or kernel factory."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in _VECTOR_OVERRIDES or attr.endswith("_kernel"):
                return True
    return False


def _check_override(unit: ModuleUnit, cls: ast.ClassDef,
                    func: ast.FunctionDef) -> Iterator[Finding]:
    if _returns_none_only(func):
        return
    if _has_exact_type_gate(func) or _delegates(func):
        return
    yield finding_at(
        RULE, unit, func,
        f"{cls.name}.{func.name}() neither gates on its exact class "
        "(type(self) is ...) nor delegates to a gated factory/component; a "
        "behavioural subclass would silently inherit a mismatched vector "
        "surface")


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        try:
            names.append(ast.unparse(base))
        except Exception:  # pragma: no cover - unparse of odd bases
            continue
    return names


def _check_half_join(unit: ModuleUnit, cls: ast.ClassDef) -> Iterator[Finding]:
    defined = {stmt.name for stmt in cls.body
               if isinstance(stmt, ast.FunctionDef)}
    bases = _base_names(cls)
    is_provider = any(base.endswith("MappingProvider") for base in bases)
    is_codec = any(base.endswith("TargetCodec") for base in bases)
    if is_provider and defined & PROVIDER_MAP_METHODS \
            and "vector_maps" not in defined:
        overridden = ", ".join(sorted(defined & PROVIDER_MAP_METHODS))
        yield finding_at(
            RULE, unit, cls,
            f"{cls.name} overrides scalar map method(s) {overridden} but "
            "not vector_maps(); define it (return None for an explicit "
            "fallback) so the class cannot half-join the vector backend")
    if is_codec and defined & CODEC_METHODS and "vector_encode" not in defined:
        overridden = ", ".join(sorted(defined & CODEC_METHODS))
        yield finding_at(
            RULE, unit, cls,
            f"{cls.name} overrides codec method(s) {overridden} but not "
            "vector_encode(); define it (return None for an explicit "
            "fallback) so the class cannot half-join the vector backend")


def _check_steppers(unit: ModuleUnit) -> Iterator[Finding]:
    steppers = [node for node in ast.walk(unit.tree)
                if isinstance(node, ast.ClassDef)
                and node.name.endswith("Stepper")]
    if not steppers:
        return
    protocol = string_tuple_constant(unit.tree, STEPPER_PROTOCOL_NAME)
    if protocol is None:
        yield finding_at(
            RULE, unit, unit.tree,
            f"{unit.module} defines span steppers but no "
            f"{STEPPER_PROTOCOL_NAME} constant naming the span-stepper "
            "protocol methods")
        return
    for cls in steppers:
        defined = {stmt.name for stmt in cls.body
                   if isinstance(stmt, ast.FunctionDef)}
        missing = [name for name in protocol if name not in defined]
        if missing:
            yield finding_at(
                RULE, unit, cls,
                f"span stepper {cls.name} is missing span-stepper "
                f"protocol method(s): {', '.join(missing)}")


def _check(project: Project) -> Iterator[Finding]:
    for unit in project.in_scope(SCOPE):
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and \
                        stmt.name in _VECTOR_OVERRIDES:
                    yield from _check_override(unit, node, stmt)
            yield from _check_half_join(unit, node)
        if unit.module == VECTOR_MODULE:
            yield from _check_steppers(unit)


RULE = register_rule(Rule(
    id="backend-parity",
    severity=Severity.ERROR,
    description="vector-backend surface must be exact-class gated and "
                "complete (no half-joined kernels, providers, codecs, or "
                "steppers)",
    check=_check,
))
