"""Project-wide interprocedural analysis: summaries, call graph, fixpoints.

This module is what turns :mod:`repro.lint` from a per-file AST scanner into
a whole-program analysis.  It works in two phases:

1. **Summarization** (:func:`summarize_module`) — one pass over a module's
   AST produces a plain-JSON *module summary*: every function's calls (with
   resolution hints), the locks it acquires and holds at each call site,
   taint atoms describing which nondeterminism sources / parameters / callee
   results flow into each call argument and return value, class attribute
   types, schema-tagged constants, and envelope dict literals.  Summaries
   depend only on the module's own source.

2. **Analysis** (:class:`ProjectAnalysis`) — the summaries of every scanned
   module are stitched into a project view: call targets are resolved against
   the project's modules/classes (name resolution over module attributes,
   class-local method resolution, attribute- and return-type candidates,
   conservative fallback on dynamic calls), and the interprocedural facts the
   project rules query are computed as fixpoints over the call graph:
   transitive lock acquisition (lock-order), transitive blocking I/O
   (lock-order), tainted returns and sink-reaching parameters
   (taint-determinism).

Nothing here is imported or executed from the analyzed tree — like the rest
of ``repro.lint`` this is AST-only.

**Call target mini-language.**  Summaries record call targets as strings so
they serialize; resolution happens at analysis time:

========================  ====================================================
``l:<qual>``              module-local def (``helper`` or ``Cls.method``)
``d:<dotted>``            canonical dotted name through the import map
                          (``repro.store.keys.fingerprint_of``, ``time.time``)
``a:<Cls>:<attr>:<m>``    method ``m`` on ``self.<attr>`` in local class
                          ``Cls`` (resolved via the class's attribute types)
``t:<dotted-type>:<m>``   method ``m`` on a value of known class type
``r:<m>|<inner-target>``  method ``m`` on the result of another call
                          (resolved via the callee's return types)
``u:``                    dynamic/unresolvable — the conservative fallback
========================  ====================================================

**Taint atoms** (per call argument and per return value):

``s:<name>``  a nondeterminism source call appears in the expression;
``p:<i>``     the enclosing function's parameter ``i`` appears in it;
``c:<tgt>``   the result of a call to ``<tgt>`` appears in it.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Iterable, Iterator

#: Canonical call name → why its value is nondeterministic.  The taint rule
#: treats these as sources wherever they appear in the project (the
#: module-scoped ``determinism`` rule additionally bans them outright inside
#: the fingerprint-path modules).
NONDETERMINISM_SOURCES = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "time.monotonic": "process-relative time",
    "time.monotonic_ns": "process-relative time",
    "time.perf_counter": "process-relative time",
    "time.perf_counter_ns": "process-relative time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    "os.urandom": "kernel entropy",
    "uuid.uuid1": "host/time-derived identity",
    "uuid.uuid4": "kernel entropy",
    "hash": "per-process randomized hashing (PYTHONHASHSEED)",
}

#: External callables that block the calling thread (network, sleep,
#: subprocesses, worker-pool waits).  Entries ending in ``.`` match the whole
#: dotted prefix.  Local file I/O is deliberately absent: it completes in
#: bounded time, so a lock held across it is a design choice, not a bug.
BLOCKING_CALLS = (
    "time.sleep",
    "concurrent.futures.as_completed",
    "concurrent.futures.wait",
    "subprocess.",
    "socket.",
    "urllib.request.",
    "http.client.",
    "requests.",
    "select.",
)

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore"})


def is_blocking_call(name: str) -> bool:
    """Whether a canonical dotted external name is in :data:`BLOCKING_CALLS`."""
    return any(name == entry or (entry.endswith(".")
                                 and name.startswith(entry))
               for entry in BLOCKING_CALLS)

#: Pseudo-function name for statements at module level.
MODULE_BODY = "<module>"

#: Constant-name / value patterns that mark a schema-tagged constant.
_SCHEMA_TAG_RE = re.compile(r"^[a-z][a-z0-9_.\-]*/v\d+$")
_SCHEMA_NAME_RE = re.compile(r"SCHEMA")


# --------------------------------------------------------------------------
# Summarization: one module's AST → a plain-JSON summary
# --------------------------------------------------------------------------


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name != "*":
                    aliases[name.asname or name.name] = (
                        f"{node.module}.{name.name}")
    return aliases


class _ModuleContext:
    """Shared per-module state the summarizer threads through its walks."""

    __slots__ = ("module", "aliases", "local_defs", "local_classes")

    def __init__(self, module: str, tree: ast.Module):
        self.module = module
        self.aliases = _import_aliases(tree)
        self.local_defs: set[str] = set()
        self.local_classes: set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.local_defs.add(node.name)
                self.local_classes.add(node.name)

    def canonical(self, name: str) -> str:
        """Resolve the head of a dotted name through the import map."""
        head, _, rest = name.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            if head in self.local_classes:
                origin = f"{self.module}.{head}"
            else:
                return name
        return f"{origin}.{rest}" if rest else origin


def _annotation_types(node: ast.AST | None, ctx: _ModuleContext) -> list[str]:
    """Candidate class types named by an annotation (``T | None`` → ``[T]``)."""
    if node is None:
        return []
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_annotation_types(node.left, ctx)
                + _annotation_types(node.right, ctx))
    if isinstance(node, ast.Constant):
        return []  # None / string annotations: no candidate
    if isinstance(node, ast.Subscript):
        return _annotation_types(node.value, ctx)
    name = _dotted(node)
    if name is None or name in ("None", "Any", "Optional"):
        return []
    return [ctx.canonical(name)]


def _value_types(node: ast.AST, ctx: _ModuleContext,
                 param_types: dict[str, list[str]]) -> list[str]:
    """Candidate class types of an assigned expression (flow-insensitive)."""
    if isinstance(node, ast.IfExp):
        return (_value_types(node.body, ctx, param_types)
                + _value_types(node.orelse, ctx, param_types))
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name is not None:
            return [ctx.canonical(name)]
        return []
    if isinstance(node, ast.Name):
        return list(param_types.get(node.id, ()))
    if isinstance(node, ast.BoolOp):
        types: list[str] = []
        for value in node.values:
            types.extend(_value_types(value, ctx, param_types))
        return types
    return []


def _lock_kind(node: ast.AST) -> str | None:
    """``"Lock"``/``"RLock"``/... when ``node`` constructs a lock."""
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name is not None and name.split(".")[-1] in _LOCK_FACTORIES:
            return name.split(".")[-1]
        for keyword in node.keywords:
            if keyword.arg == "default_factory":
                factory = _dotted(keyword.value)
                if factory is not None and \
                        factory.split(".")[-1] in _LOCK_FACTORIES:
                    return factory.split(".")[-1]
    return None


class _FunctionSummarizer:
    """Summarize one function (or the module body): calls, locks, taint."""

    def __init__(self, ctx: _ModuleContext, qual: str,
                 func: ast.FunctionDef | ast.AsyncFunctionDef | None,
                 body: list[ast.stmt], class_name: str | None,
                 class_methods: set[str], module_locks: dict[str, str]):
        self.ctx = ctx
        self.qual = qual
        self.class_name = class_name
        self.class_methods = class_methods
        self.module_locks = module_locks
        self.body = body
        self.params: list[str] = []
        self.param_types: dict[str, list[str]] = {}
        if func is not None:
            args = func.args
            for arg in (*args.posonlyargs, *args.args):
                self.params.append(arg.arg)
                types = _annotation_types(arg.annotation, ctx)
                if types:
                    self.param_types[arg.arg] = types
        self.locks: list[dict[str, Any]] = []
        self.lock_edges: list[dict[str, Any]] = []
        self.calls: list[dict[str, Any]] = []
        self.returns: set[str] = set()
        self.return_types: set[str] = set()
        self.var_types: dict[str, list[str]] = dict(self.param_types)
        self._bindings: dict[str, list[ast.AST]] = {}
        self._atom_cache: dict[str, set[str] | None] = {}
        self._collect_bindings()

    # ---------------------------------------------------------------- setup

    def _collect_bindings(self) -> None:
        """Name → bound expressions and local variable types, one pass."""
        for node in self._walk_own(self.body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._bindings.setdefault(target.id, []).append(
                            node.value)
                        for typ in _value_types(node.value, self.ctx,
                                                self.param_types):
                            self.var_types.setdefault(target.id, [])
                            if typ not in self.var_types[target.id]:
                                self.var_types[target.id].append(typ)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                if node.value is not None:
                    self._bindings.setdefault(node.target.id, []).append(
                        node.value)
                for typ in _annotation_types(node.annotation, self.ctx):
                    self.var_types.setdefault(node.target.id, [])
                    if typ not in self.var_types[node.target.id]:
                        self.var_types[node.target.id].append(typ)

    def _walk_own(self, body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements without descending into nested def/class bodies."""
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    continue
                stack.append(child)

    # ------------------------------------------------------------- targets

    def _targets_of(self, func: ast.AST) -> list[str]:
        """Resolution hints for a call's function expression."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.ctx.local_defs:
                return [f"l:{name}"]
            return [f"d:{self.ctx.canonical(name)}"]
        if isinstance(func, ast.Attribute):
            method = func.attr
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and self.class_name is not None:
                    if method in self.class_methods:
                        return [f"l:{self.class_name}.{method}"]
                    return ["u:"]
                types = self.var_types.get(base.id)
                if types:
                    return [f"t:{typ}:{method}" for typ in types]
                dotted = _dotted(func)
                if dotted is not None:
                    return [f"d:{self.ctx.canonical(dotted)}"]
                return ["u:"]
            if isinstance(base, ast.Attribute):
                chain = _dotted(base)
                if chain is not None and chain.startswith("self.") and \
                        self.class_name is not None:
                    parts = chain.split(".")
                    if len(parts) == 2:
                        return [f"a:{self.class_name}:{parts[1]}:{method}"]
                    return ["u:"]
                dotted = _dotted(func)
                if dotted is not None:
                    return [f"d:{self.ctx.canonical(dotted)}"]
                return ["u:"]
            if isinstance(base, ast.Call):
                inner = self._targets_of(base.func)
                return [f"r:{method}|{target}" for target in inner
                        if target != "u:"] or ["u:"]
            return ["u:"]
        return ["u:"]

    # ---------------------------------------------------------------- atoms

    def _source_of(self, target: str, node: ast.Call) -> str | None:
        """The nondeterminism source a call target names, if any."""
        if not target.startswith("d:"):
            return None
        name = target[2:]
        if name in ("random.Random", "numpy.random.default_rng"):
            return None if node.args else name
        if name in NONDETERMINISM_SOURCES:
            return name
        if name.startswith("secrets."):
            return name
        if name.startswith("random.") or name.startswith("numpy.random."):
            return name
        return None

    def _name_atoms(self, name: str, visiting: set[str]) -> set[str]:
        if name in visiting:
            return set()
        cached = self._atom_cache.get(name)
        if cached is not None:
            return cached
        visiting.add(name)
        atoms: set[str] = set()
        for bound in self._bindings.get(name, ()):
            atoms |= self._atoms(bound, visiting)
        visiting.discard(name)
        self._atom_cache[name] = atoms
        return atoms

    def _atoms(self, node: ast.AST, visiting: set[str] | None = None) -> set[str]:
        """Taint atoms of an expression (flow-insensitive, over-approximate:
        any call/source/parameter appearing anywhere in the expression —
        including call arguments — marks the whole value)."""
        visiting = visiting if visiting is not None else set()
        atoms: set[str] = set()
        stack: list[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                continue
            if isinstance(current, ast.Call):
                for target in self._targets_of(current.func):
                    source = self._source_of(target, current)
                    if source is not None:
                        atoms.add(f"s:{source}")
                    elif target != "u:":
                        atoms.add(f"c:{target}")
                # The func expression can hide nested calls of its own
                # (``os.urandom(8).hex()``): traverse it too.
                stack.append(current.func)
                stack.extend(current.args)
                stack.extend(kw.value for kw in current.keywords)
                continue
            if isinstance(current, ast.Name):
                if current.id in self.params:
                    atoms.add(f"p:{self.params.index(current.id)}")
                elif current.id in self._bindings:
                    atoms |= self._name_atoms(current.id, visiting)
                continue
            stack.extend(ast.iter_child_nodes(current))
        return atoms

    # ----------------------------------------------------------------- walk

    def _lock_id(self, expr: ast.AST) -> str | None:
        """Canonical id of the lock a ``with`` item acquires, if it looks
        like one (the heuristic: the expression mentions "lock")."""
        text = ast.unparse(expr)
        if "lock" not in text.lower() and "sem" not in text.lower():
            return None
        module = self.ctx.module
        chain = _dotted(expr)
        if chain is not None:
            if chain.startswith("self.") and self.class_name is not None:
                return f"{module}:{self.class_name}.{chain.split('.')[1]}"
            head = chain.split(".")[0]
            if head in self.module_locks:
                return f"{module}:{head}"
            return f"{module}:{chain}"
        return f"{module}:{text}"

    def run(self) -> dict[str, Any]:
        self._visit_body(self.body, held=())
        return {
            "line": getattr(self.body[0], "lineno", 1) if self.body else 1,
            "params": self.params,
            "locks": self.locks,
            "lock_edges": self.lock_edges,
            "calls": self.calls,
            "returns": sorted(self.returns),
            "return_types": sorted(self.return_types),
        }

    def _visit_body(self, body: Iterable[ast.stmt],
                    held: tuple[str, ...]) -> None:
        for stmt in body:
            self._visit(stmt, held)

    def _visit(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs later, possibly on another thread or outside
            # the lock: judge its body with nothing held.
            self._visit_body(node.body, held=())
            return
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                lock = self._lock_id(item.context_expr)
                if lock is not None:
                    line = item.context_expr.lineno
                    self.locks.append({"id": lock, "line": line})
                    for outer in held:
                        if outer != lock:
                            self.lock_edges.append(
                                {"from": outer, "to": lock, "line": line})
                    acquired.append(lock)
                else:
                    self._scan_expr(item.context_expr, held)
                if item.optional_vars is not None:
                    self._scan_expr(item.optional_vars, held)
            inner = held + tuple(lock for lock in acquired
                                 if lock not in held)
            self._visit_body(node.body, inner)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                self.returns |= self._atoms(node.value)
                self._record_return_types(node.value)
                self._scan_expr(node.value, held)
            return
        # Generic statement: scan its expressions for calls, then recurse
        # into compound bodies with the same held set.
        for field_name, value in ast.iter_fields(node):
            if field_name in ("body", "orelse", "finalbody", "handlers"):
                items = value if isinstance(value, list) else [value]
                for item in items:
                    if isinstance(item, ast.ExceptHandler):
                        self._visit_body(item.body, held)
                    elif isinstance(item, ast.AST):
                        self._visit(item, held)
                continue
            if isinstance(value, ast.AST):
                self._scan_expr(value, held)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self._scan_expr(item, held)

    def _record_return_types(self, expr: ast.AST) -> None:
        if isinstance(expr, ast.IfExp):
            self._record_return_types(expr.body)
            self._record_return_types(expr.orelse)
            return
        if isinstance(expr, ast.Call):
            name = _dotted(expr.func)
            if name is not None:
                self.return_types.add(f"d:{self.ctx.canonical(name)}")
            return
        if isinstance(expr, ast.Attribute) and isinstance(
                expr.value, ast.Name) and expr.value.id == "self":
            self.return_types.add(f"sa:{expr.attr}")
            return
        if isinstance(expr, ast.Name):
            for typ in self.var_types.get(expr.id, ()):
                self.return_types.add(f"d:{typ}")

    def _scan_expr(self, expr: ast.AST, held: tuple[str, ...]) -> None:
        """Record every call in an expression with the current held set."""
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if not isinstance(node, ast.Call):
                continue
            targets = self._targets_of(node.func)
            args = [sorted(self._atoms(arg)) for arg in node.args]
            kwargs = {kw.arg: sorted(self._atoms(kw.value))
                      for kw in node.keywords if kw.arg is not None}
            self.calls.append({
                "targets": targets,
                "line": node.lineno,
                "col": node.col_offset + 1,
                "held": list(held),
                "args": args,
                "kwargs": kwargs,
            })


def _summarize_class(ctx: _ModuleContext, node: ast.ClassDef,
                     module_locks: dict[str, str],
                     functions: dict[str, dict[str, Any]]) -> dict[str, Any]:
    methods = {child.name for child in node.body
               if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))}
    attr_types: dict[str, list[str]] = {}
    lock_attrs: dict[str, str] = {}
    is_dataclass = False
    for decorator in node.decorator_list:
        name = _dotted(decorator.func if isinstance(decorator, ast.Call)
                       else decorator)
        if name is not None and name.split(".")[-1] == "dataclass":
            is_dataclass = True
    fields: list[str] = []
    for child in node.body:
        if isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name):
            if not child.target.id.startswith("_"):
                fields.append(child.target.id)
            kind = _lock_kind(child.value) if child.value is not None else None
            if kind is not None:
                lock_attrs[child.target.id] = kind
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    kind = _lock_kind(child.value)
                    if kind is not None:
                        lock_attrs[target.id] = kind
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        summarizer = functions.get(f"{node.name}.{method.name}")
        param_types = {}
        args = method.args
        for arg in (*args.posonlyargs, *args.args):
            types = _annotation_types(arg.annotation, ctx)
            if types:
                param_types[arg.arg] = types
        for sub in ast.walk(method):
            targets: list[tuple[str, ast.AST | None]] = []
            if isinstance(sub, ast.Assign):
                targets = [(t, sub.value) for t in sub.targets]
            elif isinstance(sub, ast.AnnAssign):
                targets = [(sub.target, sub.value)]
                ann_types = _annotation_types(sub.annotation, ctx)
            for target, value in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                kind = _lock_kind(value) if value is not None else None
                if kind is not None:
                    lock_attrs[attr] = kind
                candidates: list[str] = []
                if value is not None:
                    candidates.extend(_value_types(value, ctx, param_types))
                if isinstance(sub, ast.AnnAssign):
                    candidates.extend(ann_types)
                for typ in candidates:
                    attr_types.setdefault(attr, [])
                    if typ not in attr_types[attr]:
                        attr_types[attr].append(typ)
    del functions  # summaries already hold method records
    bases = []
    for base in node.bases:
        name = _dotted(base)
        if name is not None:
            bases.append(ctx.canonical(name))
    return {
        "line": node.lineno,
        "methods": sorted(methods),
        "bases": bases,
        "attr_types": {key: sorted(val) for key, val in
                       sorted(attr_types.items())},
        "lock_attrs": dict(sorted(lock_attrs.items())),
        "is_dataclass": is_dataclass,
        "fields": fields,
    }


def _schema_constants(tree: ast.Module) -> dict[str, dict[str, Any]]:
    constants: dict[str, dict[str, Any]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Constant):
            continue
        value = node.value.value
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            tagged = (isinstance(value, str)
                      and _SCHEMA_TAG_RE.match(value) is not None)
            versioned = (name.endswith("SCHEMA_VERSION")
                         and isinstance(value, (int, str)))
            if tagged or versioned:
                constants[name] = {"value": str(value), "line": node.lineno}
    return constants


def _envelope_sites(ctx: _ModuleContext,
                    tree: ast.Module) -> list[dict[str, Any]]:
    """Dict literals that reference a schema-looking constant by name.

    Only the reference *names* are recorded; whether they resolve to an
    actual schema constant is decided at analysis time with the whole
    project's constant registry in hand.
    """
    sites: list[dict[str, Any]] = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name if owner == MODULE_BODY else f"{owner}.{node.name}"
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                visit(child, node.name)
            return
        if isinstance(node, ast.Dict):
            refs: list[str] = []
            for value in node.values:
                dotted = _dotted(value)
                if dotted is None:
                    continue
                if _SCHEMA_NAME_RE.search(dotted.split(".")[-1]):
                    refs.append(ctx.canonical(dotted))
            if refs:
                keys: list[str] = []
                dynamic = False
                for key in node.keys:
                    if key is None:
                        dynamic = True  # ** expansion
                    elif isinstance(key, ast.Constant) and isinstance(
                            key.value, str):
                        keys.append(key.value)
                    else:
                        dynamic = True
                sites.append({
                    "owner": owner,
                    "line": node.lineno,
                    "constants": sorted(set(refs)),
                    "keys": sorted(set(keys)),
                    "dynamic": dynamic,
                })
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in tree.body:
        visit(top, MODULE_BODY)
    return sites


def summarize_module(module: str, rel: str, tree: ast.Module) -> dict[str, Any]:
    """The serializable whole-module summary the project analysis consumes."""
    ctx = _ModuleContext(module, tree)
    module_locks: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            kind = _lock_kind(node.value)
            if kind is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        module_locks[target.id] = kind

    functions: dict[str, dict[str, Any]] = {}

    def summarize_function(qual: str, func, body, class_name, methods) -> None:
        summarizer = _FunctionSummarizer(
            ctx, qual, func, body, class_name, methods, module_locks)
        record = summarizer.run()
        if func is not None:
            record["line"] = func.lineno
        functions[qual] = record

    module_level = [stmt for stmt in tree.body
                    if not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
    summarize_function(MODULE_BODY, None, module_level, None, set())
    classes: dict[str, dict[str, Any]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarize_function(node.name, node, node.body, None, set())
        elif isinstance(node, ast.ClassDef):
            methods = {child.name for child in node.body if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))}
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summarize_function(f"{node.name}.{child.name}", child,
                                       child.body, node.name, methods)
            classes[node.name] = _summarize_class(
                ctx, node, module_locks, functions)

    return {
        "module": module,
        "path": rel,
        "functions": functions,
        "classes": classes,
        "module_locks": module_locks,
        "schema_constants": _schema_constants(tree),
        "envelopes": _envelope_sites(ctx, tree),
    }


# --------------------------------------------------------------------------
# Project analysis: summaries → call graph → interprocedural fixpoints
# --------------------------------------------------------------------------


class ProjectAnalysis:
    """The whole-program view the project-scoped rules query.

    Function ids are ``"<module>:<qualname>"`` (``repro.store.serve:
    ExperimentService.submit``); lock ids are ``"<module>:<Class>.<attr>"``
    or ``"<module>:<NAME>"`` for module-level locks.
    """

    def __init__(self, summaries: dict[str, dict[str, Any]],
                 stats: dict[str, Any] | None = None):
        self.summaries = summaries
        self.stats = dict(stats or {})
        self.functions: dict[str, dict[str, Any]] = {}
        self.classes: dict[str, dict[str, Any]] = {}
        self.paths: dict[str, str] = {}
        self.constants: dict[str, str] = {}
        for module, summary in summaries.items():
            self.paths[module] = summary["path"]
            for qual, record in summary["functions"].items():
                self.functions[f"{module}:{qual}"] = record
            for name, record in summary["classes"].items():
                self.classes[f"{module}.{name}"] = record
            for name, record in summary["schema_constants"].items():
                self.constants[f"{module}:{name}"] = record["value"]
        self._resolve_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        self._acquires: dict[str, set[str]] | None = None
        self._blocking: dict[str, tuple[str, str | None]] | None = None
        self._tainted: dict[str, dict[str, str | None]] | None = None

    # ------------------------------------------------------------ utilities

    def module_of(self, fn_id: str) -> str:
        return fn_id.partition(":")[0]

    def path_of(self, fn_id: str) -> str:
        return self.paths.get(self.module_of(fn_id), "?")

    def function(self, fn_id: str) -> dict[str, Any] | None:
        return self.functions.get(fn_id)

    def iter_functions(self) -> Iterator[tuple[str, dict[str, Any]]]:
        for fn_id in sorted(self.functions):
            yield fn_id, self.functions[fn_id]

    def lock_kind(self, lock_id: str) -> str | None:
        module, _, rest = lock_id.partition(":")
        summary = self.summaries.get(module)
        if summary is None:
            return None
        cls, _, attr = rest.partition(".")
        if attr:
            record = summary["classes"].get(cls)
            if record is not None:
                return record["lock_attrs"].get(attr)
            return None
        return summary["module_locks"].get(rest)

    # ------------------------------------------------------------ resolution

    def _method_on(self, class_path: str, method: str,
                   seen: frozenset[str] = frozenset()) -> str | None:
        """Resolve ``method`` on a dotted class path (base classes walked)."""
        record = self.classes.get(class_path)
        if record is None or class_path in seen:
            return None
        module = class_path.rsplit(".", 1)[0]
        # The class path embeds the module: strip class name, the remainder
        # must be a scanned module for the method to be project-internal.
        for candidate_module in self.summaries:
            if class_path.startswith(candidate_module + "."):
                cls = class_path[len(candidate_module) + 1:]
                if "." in cls:
                    continue
                if method in record["methods"]:
                    return f"{candidate_module}:{cls}.{method}"
        for base in record["bases"]:
            found = self._method_on(base, method, seen | {class_path})
            if found is not None:
                return found
        return None

    def _resolve_dotted(self, dotted: str) -> tuple[str, ...]:
        """A dotted name → project fn ids, or itself (external) if unknown."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.summaries:
                continue
            rest = parts[cut:]
            summary = self.summaries[module]
            if len(rest) == 1:
                name = rest[0]
                if name in summary["classes"]:
                    ctor = f"{module}:{name}.__init__"
                    return (ctor,) if ctor in self.functions else ()
                if name in summary["functions"]:
                    return (f"{module}:{name}",)
                return ()  # a constant or re-export: not a call edge
            if len(rest) == 2 and rest[0] in summary["classes"]:
                found = self._method_on(f"{module}.{rest[0]}", rest[1])
                return (found,) if found is not None else ()
            return ()
        return (dotted,)  # external

    def _class_of_target(self, module: str, target: str) -> tuple[str, ...]:
        """Class paths a call target constructs (for return-type chaining)."""
        if target.startswith("l:"):
            name = target[2:]
            if name in self.summaries.get(module, {}).get("classes", {}):
                return (f"{module}.{name}",)
            return ()
        if target.startswith("d:"):
            dotted = target[2:]
            if dotted in self.classes:
                return (dotted,)
        return ()

    def _return_classes(self, fn_id: str) -> tuple[str, ...]:
        record = self.functions.get(fn_id)
        if record is None:
            return ()
        module = self.module_of(fn_id)
        qual = fn_id.partition(":")[2]
        results: list[str] = []
        for ref in record["return_types"]:
            if ref.startswith("d:"):
                dotted = ref[2:]
                if dotted in self.classes:
                    results.append(dotted)
            elif ref.startswith("sa:") and "." in qual:
                cls = qual.split(".")[0]
                class_record = self.summaries[module]["classes"].get(cls)
                if class_record is not None:
                    for typ in class_record["attr_types"].get(ref[3:], ()):
                        if typ in self.classes:
                            results.append(typ)
        return tuple(dict.fromkeys(results))

    def resolve(self, module: str, target: str) -> tuple[str, ...]:
        """Resolve one call-target string to project fn ids and/or external
        dotted names (externals keep their dotted form; dynamic → empty)."""
        key = (module, target)
        cached = self._resolve_cache.get(key)
        if cached is not None:
            return cached
        self._resolve_cache[key] = ()  # cycle guard for r: chains
        resolved: tuple[str, ...] = ()
        if target.startswith("l:"):
            qual = target[2:]
            summary = self.summaries.get(module)
            if summary is not None:
                if qual in summary["classes"]:
                    ctor = f"{module}:{qual}.__init__"
                    resolved = (ctor,) if ctor in self.functions else ()
                elif qual in summary["functions"]:
                    resolved = (f"{module}:{qual}",)
        elif target.startswith("d:"):
            resolved = self._resolve_dotted(target[2:])
        elif target.startswith("a:"):
            _, cls, attr, method = target.split(":", 3)
            record = self.summaries.get(module, {}).get(
                "classes", {}).get(cls)
            if record is not None:
                found = []
                for typ in record["attr_types"].get(attr, ()):
                    fn = self._method_on(typ, method)
                    if fn is not None:
                        found.append(fn)
                resolved = tuple(found)
        elif target.startswith("t:"):
            _, typ, method = target.split(":", 2)
            fn = self._method_on(typ, method)
            resolved = (fn,) if fn is not None else ()
        elif target.startswith("r:"):
            method, _, inner = target[2:].partition("|")
            found = []
            for inner_id in self.resolve(module, inner):
                if ":" not in inner_id:
                    continue  # external result: unknown type
                for class_path in (self._class_of_target(
                        module, f"d:{inner_id.replace(':', '.', 1)}")
                        or self._return_classes(inner_id)):
                    fn = self._method_on(class_path, method)
                    if fn is not None:
                        found.append(fn)
                # Constructor chain: Cls(...).method()
                if inner_id.endswith(".__init__"):
                    class_path = inner_id.replace(":", ".", 1)[:-len(".__init__")]
                    fn = self._method_on(class_path, method)
                    if fn is not None:
                        found.append(fn)
            resolved = tuple(dict.fromkeys(found))
        self._resolve_cache[key] = resolved
        return resolved

    def resolve_call(self, module: str,
                     call: dict[str, Any]) -> tuple[list[str], list[str]]:
        """``(project fn ids, external dotted names)`` for one call record."""
        internal: list[str] = []
        external: list[str] = []
        for target in call["targets"]:
            for resolved in self.resolve(module, target):
                if ":" in resolved:
                    internal.append(resolved)
                else:
                    external.append(resolved)
        return internal, external

    # -------------------------------------------------------------- imports

    def import_graph(self) -> dict[str, set[str]]:
        """Module → project modules it calls into (resolved call graph
        projected onto modules)."""
        graph: dict[str, set[str]] = {module: set() for module in self.summaries}
        for fn_id, record in self.functions.items():
            module = self.module_of(fn_id)
            for call in record["calls"]:
                internal, _ = self.resolve_call(module, call)
                for callee in internal:
                    target_module = self.module_of(callee)
                    if target_module != module:
                        graph[module].add(target_module)
        return graph

    # ------------------------------------------------------------ fixpoints

    def transitive_acquires(self) -> dict[str, set[str]]:
        """Locks a call to each function may end up acquiring (transitive)."""
        if self._acquires is not None:
            return self._acquires
        acquires: dict[str, set[str]] = {}
        for fn_id, record in self.functions.items():
            acquires[fn_id] = {lock["id"] for lock in record["locks"]}
        changed = True
        while changed:
            changed = False
            for fn_id, record in self.functions.items():
                module = self.module_of(fn_id)
                for call in record["calls"]:
                    internal, _ = self.resolve_call(module, call)
                    for callee in internal:
                        extra = acquires.get(callee, set()) - acquires[fn_id]
                        if extra:
                            acquires[fn_id] |= extra
                            changed = True
        self._acquires = acquires
        return acquires

    def lock_order_edges(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Directed ``held → acquired`` lock pairs with one witness each."""
        acquires = self.transitive_acquires()
        edges: dict[tuple[str, str], dict[str, Any]] = {}

        def record_edge(held: str, acquired: str, fn_id: str, line: int,
                        via: str | None) -> None:
            if held == acquired:
                return
            key = (held, acquired)
            if key not in edges:
                edges[key] = {"fn": fn_id, "path": self.path_of(fn_id),
                              "line": line, "via": via}

        for fn_id, record in self.iter_functions():
            for edge in record["lock_edges"]:
                record_edge(edge["from"], edge["to"], fn_id, edge["line"],
                            None)
            module = self.module_of(fn_id)
            for call in record["calls"]:
                if not call["held"]:
                    continue
                internal, _ = self.resolve_call(module, call)
                for callee in sorted(set(internal)):
                    for lock in sorted(acquires.get(callee, ())):
                        for held in call["held"]:
                            record_edge(held, lock, fn_id, call["line"],
                                        callee)
        return edges

    def lock_cycles(self) -> list[tuple[str, ...]]:
        """Cycles in the lock-order graph (each as a sorted lock-id tuple)."""
        edges = self.lock_order_edges()
        graph: dict[str, set[str]] = {}
        for held, acquired in edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        # Tarjan SCC, iterative.
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        cycles: list[tuple[str, ...]] = []

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(graph[root])))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index:
                        index[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(sorted(graph[child]))))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        cycles.append(tuple(sorted(component)))

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        return sorted(cycles)

    def blocking_functions(self) -> dict[str, tuple[str, str | None]]:
        """Functions that (transitively) call into blocking I/O:
        fn id → (blocking external name, direct callee on the path or None)."""
        if self._blocking is not None:
            return self._blocking
        blocking: dict[str, tuple[str, str | None]] = {}
        for fn_id, record in self.iter_functions():
            module = self.module_of(fn_id)
            for call in record["calls"]:
                _, external = self.resolve_call(module, call)
                for name in sorted(external):
                    if is_blocking_call(name):
                        blocking.setdefault(fn_id, (name, None))
        changed = True
        while changed:
            changed = False
            for fn_id, record in self.iter_functions():
                if fn_id in blocking:
                    continue
                module = self.module_of(fn_id)
                for call in record["calls"]:
                    internal, _ = self.resolve_call(module, call)
                    for callee in sorted(set(internal)):
                        if callee in blocking and callee != fn_id:
                            blocking[fn_id] = (blocking[callee][0], callee)
                            changed = True
                            break
                    if fn_id in blocking:
                        break
        self._blocking = blocking
        return blocking

    def blocking_chain(self, fn_id: str) -> list[str]:
        """Readable call chain from ``fn_id`` down to the blocking call."""
        blocking = self.blocking_functions()
        chain: list[str] = []
        seen: set[str] = set()
        current: str | None = fn_id
        while current is not None and current not in seen:
            seen.add(current)
            chain.append(current)
            name, via = blocking[current]
            if via is None:
                chain.append(name)
                break
            current = via
        return chain

    def tainted_returns(self) -> dict[str, dict[str, str | None]]:
        """Functions whose return value may carry a nondeterminism source:
        fn id → {source name: laundering callee or None (direct)}."""
        if self._tainted is not None:
            return self._tainted
        tainted: dict[str, dict[str, str | None]] = {}
        for fn_id, record in self.iter_functions():
            direct = {atom[2:]: None for atom in record["returns"]
                      if atom.startswith("s:")}
            if direct:
                tainted[fn_id] = dict(direct)
        changed = True
        while changed:
            changed = False
            for fn_id, record in self.iter_functions():
                module = self.module_of(fn_id)
                for atom in record["returns"]:
                    if not atom.startswith("c:"):
                        continue
                    for callee in self.resolve(module, atom[2:]):
                        if ":" not in callee:
                            continue
                        for source in sorted(tainted.get(callee, ())):
                            current = tainted.setdefault(fn_id, {})
                            if source not in current:
                                current[source] = callee
                                changed = True
        self._tainted = tainted
        return tainted

    def sink_params(self, roots: Iterable[str]) -> dict[str, set[int]]:
        """Parameter indices of each function that flow into a fingerprint
        sink (transitively).  ``roots`` are fully-sinking fn ids: every
        parameter of a root reaches the sink by definition."""
        sinking: dict[str, set[int]] = {}
        for root in roots:
            record = self.functions.get(root)
            if record is not None:
                sinking[root] = set(range(len(record["params"])))
        changed = True
        while changed:
            changed = False
            for fn_id, record in self.iter_functions():
                module = self.module_of(fn_id)
                for call in record["calls"]:
                    internal, _ = self.resolve_call(module, call)
                    for callee in internal:
                        callee_sinks = sinking.get(callee)
                        if not callee_sinks:
                            continue
                        callee_params = self.functions[callee]["params"]
                        offset = 1 if callee_params[:1] == ["self"] else 0
                        for position, atoms in enumerate(call["args"]):
                            if position + offset not in callee_sinks:
                                continue
                            for atom in atoms:
                                if atom.startswith("p:"):
                                    index = int(atom[2:])
                                    mine = sinking.setdefault(fn_id, set())
                                    if index not in mine:
                                        mine.add(index)
                                        changed = True
                        for name, atoms in call["kwargs"].items():
                            if name not in callee_params:
                                continue
                            if callee_params.index(name) not in callee_sinks:
                                continue
                            for atom in atoms:
                                if atom.startswith("p:"):
                                    index = int(atom[2:])
                                    mine = sinking.setdefault(fn_id, set())
                                    if index not in mine:
                                        mine.add(index)
                                        changed = True
        return sinking

    def sink_flows(self, roots: Iterable[str]) -> list[dict[str, Any]]:
        """Every call site where a nondeterminism source reaches a
        fingerprint sink, directly or laundered through a call chain.

        A *flow* is a call whose argument (a) feeds a sink parameter of the
        callee — the callee is a root or passes that parameter down to one —
        and (b) carries a source atom: the source call appears in the
        argument expression itself (``via is None``) or the argument calls a
        function whose return is (transitively) tainted (``via`` names it).
        """
        sinking = self.sink_params(roots)
        tainted = self.tainted_returns()
        flows: list[dict[str, Any]] = []
        seen: set[tuple[str, str, str, int]] = set()
        for fn_id, record in self.iter_functions():
            module = self.module_of(fn_id)
            for call in record["calls"]:
                internal, _ = self.resolve_call(module, call)
                for callee in sorted(set(internal)):
                    callee_sinks = sinking.get(callee)
                    if not callee_sinks:
                        continue
                    callee_params = self.functions[callee]["params"]
                    offset = 1 if callee_params[:1] == ["self"] else 0

                    def sink_atoms() -> Iterator[list[str]]:
                        for position, atoms in enumerate(call["args"]):
                            if position + offset in callee_sinks:
                                yield atoms
                        for name, atoms in call["kwargs"].items():
                            if (name in callee_params and
                                    callee_params.index(name) in callee_sinks):
                                yield atoms

                    for atoms in sink_atoms():
                        for atom in atoms:
                            if atom.startswith("s:"):
                                hits: list[tuple[str, str | None]] = [
                                    (atom[2:], None)]
                            elif atom.startswith("c:"):
                                hits = []
                                for target in self.resolve(module, atom[2:]):
                                    for source in sorted(
                                            tainted.get(target, ())):
                                        hits.append((source, target))
                            else:
                                continue
                            for source, via in hits:
                                key = (fn_id, callee, source, call["line"])
                                if key in seen:
                                    continue
                                seen.add(key)
                                flows.append({
                                    "fn": fn_id, "path": self.path_of(fn_id),
                                    "line": call["line"], "col": call["col"],
                                    "sink": callee, "source": source,
                                    "via": via,
                                })
        flows.sort(key=lambda flow: (flow["path"], flow["line"],
                                     flow["sink"], flow["source"]))
        return flows

    # --------------------------------------------------------- schema surface

    def surface_entries(self) -> list[dict[str, Any]]:
        """The schema surface of the scanned tree: envelope dict literals and
        dataclasses tied to each schema-tagged constant, with their field
        sets.  ``line``/``path`` are for anchoring findings and are stripped
        by :func:`repro.lint.rules.schema_drift.surface_payload`."""
        entries: dict[str, dict[str, Any]] = {}
        for module in sorted(self.summaries):
            summary = self.summaries[module]
            for site in summary["envelopes"]:
                refs: dict[str, str] = {}
                for dotted in site["constants"]:
                    constant = self._constant_id(module, dotted)
                    if constant is not None:
                        refs[constant] = self.constants[constant]
                if not refs:
                    continue
                entry_id = f"{module}:{site['owner']}"
                keys = list(site["keys"]) + (["*"] if site["dynamic"] else [])
                entry = entries.get(entry_id)
                if entry is None:
                    entries[entry_id] = {
                        "id": entry_id, "kind": "envelope",
                        "constants": dict(refs),
                        "fields": sorted(set(keys)),
                        "path": summary["path"], "line": site["line"],
                    }
                else:
                    entry["constants"].update(refs)
                    entry["fields"] = sorted(set(entry["fields"]) | set(keys))
            if summary["schema_constants"]:
                module_constants = {
                    f"{module}:{name}": record["value"]
                    for name, record in sorted(
                        summary["schema_constants"].items())
                }
                for cls in sorted(summary["classes"]):
                    record = summary["classes"][cls]
                    if not record["is_dataclass"]:
                        continue
                    entries[f"{module}:{cls}"] = {
                        "id": f"{module}:{cls}", "kind": "dataclass",
                        "constants": dict(module_constants),
                        "fields": sorted(record["fields"]),
                        "path": summary["path"], "line": record["line"],
                    }
        return [entries[key] for key in sorted(entries)]

    def _constant_id(self, module: str, dotted: str) -> str | None:
        """Resolve a recorded constant reference to a registry id."""
        if "." not in dotted:
            candidate = f"{module}:{dotted}"
            return candidate if candidate in self.constants else None
        head, _, name = dotted.rpartition(".")
        candidate = f"{head}:{name}"
        if candidate in self.constants:
            return candidate
        return None


def build_analysis(units: Iterable[Any]) -> ProjectAnalysis:
    """Summarize ``units`` (parsed :class:`~repro.lint.framework.ModuleUnit`
    objects) into a :class:`ProjectAnalysis`.

    The module counts land in ``analysis.stats`` and, via the framework, in
    the ``repro.lint/v2`` envelope's ``project`` block.
    """
    summaries = {unit.module: summarize_module(unit.module, unit.rel, unit.tree)
                 for unit in units if unit.tree is not None}
    stats = {"modules": len(summaries), "analyzed": len(summaries)}
    return ProjectAnalysis(summaries, stats)
