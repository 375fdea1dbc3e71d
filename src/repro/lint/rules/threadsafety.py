"""``thread-safety``: serve-tier shared state mutates only under its lock.

``repro serve`` executes scenario POSTs on :class:`ThreadingHTTPServer`
handler threads, so everything in :mod:`repro.store` is multi-thread
reachable — PR 5's review fixed a dozen unlocked-global bugs in that tier by
hand; this rule detects the same shapes mechanically:

* **module-level mutable state** (dicts/lists/sets built at import time)
  mutated inside a function without a held lock;
* **inconsistently locked attributes**: in a class that owns a lock
  (``self._lock = threading.Lock()`` or a ``field(default_factory=
  threading.Lock)`` dataclass field), any attribute that is mutated under a
  ``with ...lock...:`` block somewhere must be mutated under it everywhere —
  one bare mutation reintroduces the lost-increment race the lock exists to
  prevent;
* **bare read-modify-write** (``self.x += ...``, ``self.x[k] = ...``) outside
  any lock in a lock-owning class — the ``StoreCounters`` bug shape.

``__init__`` is exempt (construction is single-threaded), and classes without
a lock are not judged — whether an object is shared across threads is a
design fact the lock attribute declares.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.framework import (
    MUTATING_METHODS,
    ModuleUnit,
    Project,
    Rule,
    register_rule,
)
from repro.lint.rules._ast import dotted_name, finding_at, self_attribute_chain

#: Modules reachable from the threaded serve tier.  The metrics registry
#: (``repro.obs``) is mutated from every request handler and job worker, so
#: it carries the same lock discipline as the store, and so does the trace
#: cache (``repro.engine.workloads``) that every job worker reads and fills.
SCOPE = ("repro.store", "repro.store.", "repro.obs", "repro.obs.",
         "repro.engine.workloads")

#: Callables whose result is shared mutable module state when assigned at
#: module level.
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter",
})

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore"})


def _is_lock_value(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _LOCK_FACTORIES:
            return True
        # dataclasses: field(default_factory=threading.Lock)
        for keyword in node.keywords:
            if keyword.arg == "default_factory":
                factory = dotted_name(keyword.value)
                if factory is not None and \
                        factory.split(".")[-1] in _LOCK_FACTORIES:
                    return True
    return False


def _owns_lock(node: ast.ClassDef) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Assign) and _is_lock_value(child.value):
            return True
        if isinstance(child, ast.AnnAssign) and child.value is not None \
                and _is_lock_value(child.value):
            return True
    return False


def _with_holds_lock(node: ast.With) -> bool:
    for item in node.items:
        if "lock" in ast.unparse(item.context_expr).lower():
            return True
    return False


@dataclass(slots=True)
class _Mutation:
    """One mutation site: which first-level attr/global, where, how."""

    name: str
    node: ast.AST
    kind: str  # "augassign" | "subscript" | "delete" | "call"
    locked: bool


def _walk_mutations(func: ast.AST, *, of_self: bool,
                    globals_: frozenset[str] = frozenset(),
                    locked: bool = False) -> Iterator[_Mutation]:
    """Yield mutation events in ``func``, tracking ``with <lock>`` regions.

    ``of_self=True`` reports mutations rooted at ``self``; otherwise
    mutations of the module-level names in ``globals_``.
    """

    def root_name(target: ast.AST) -> str | None:
        if of_self:
            return self_attribute_chain(target)
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name) and node.id in globals_:
            return node.id
        return None

    def visit(node: ast.AST, locked: bool) -> Iterator[_Mutation]:
        if isinstance(node, ast.With):
            inner = locked or _with_holds_lock(node)
            for child in node.body:
                yield from visit(child, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs run later, possibly on another thread; judge their
            # bodies without the enclosing lock context.
            for child in node.body:
                yield from visit(child, False)
            return
        if isinstance(node, ast.AugAssign):
            name = root_name(node.target)
            if name is not None:
                yield _Mutation(name, node, "augassign", locked)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Subscript,)):
                    name = root_name(target)
                    if name is not None:
                        yield _Mutation(name, node, "subscript", locked)
                elif not of_self and isinstance(target, ast.Name) \
                        and target.id in globals_:
                    yield _Mutation(target.id, node, "rebind", locked)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    name = root_name(target)
                    if name is not None:
                        yield _Mutation(name, node, "delete", locked)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                name = root_name(node.func.value)
                if name is not None:
                    yield _Mutation(name, node, "call", locked)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, locked)

    yield from visit(func, locked)


def _module_globals(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set))
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            mutable = name is not None and \
                name.split(".")[-1] in _MUTABLE_FACTORIES
        if mutable:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return frozenset(names)


def _check_module_globals(unit: ModuleUnit) -> Iterator[Finding]:
    globals_ = _module_globals(unit.tree)
    if not globals_:
        return
    for node in unit.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        for mutation in _walk_mutations(node, of_self=False, globals_=globals_):
            if mutation.locked:
                continue
            yield finding_at(
                RULE, unit, mutation.node,
                f"module-level mutable {mutation.name!r} is mutated without "
                "a held lock; serve-tier handler threads share module state")


def _check_class(unit: ModuleUnit, node: ast.ClassDef) -> Iterator[Finding]:
    if not _owns_lock(node):
        return
    events: list[_Mutation] = []
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name in ("__init__", "__new__", "__post_init__"):
            continue
        events.extend(_walk_mutations(method, of_self=True))
    guarded = {event.name for event in events if event.locked}
    for event in events:
        if event.locked:
            continue
        if event.name in guarded:
            yield finding_at(
                RULE, unit, event.node,
                f"attribute self.{event.name} of lock-owning class "
                f"{node.name} is mutated both under its lock and (here) "
                "without it; hold the lock for every mutation")
        elif event.kind in ("augassign", "subscript", "delete"):
            yield finding_at(
                RULE, unit, event.node,
                f"bare {event.kind} of self.{event.name} in lock-owning "
                f"class {node.name}; read-modify-write on shared objects "
                "loses updates across threads — mutate under the lock")


def _check(project: Project) -> Iterator[Finding]:
    for unit in project.in_scope(SCOPE):
        yield from _check_module_globals(unit)
        for node in unit.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from _check_class(unit, node)


RULE = register_rule(Rule(
    id="thread-safety",
    severity=Severity.ERROR,
    description="serve-tier shared state (module globals, lock-owning "
                "classes in repro.store, repro.obs and the trace cache) "
                "mutated without its lock",
    check=_check,
))
