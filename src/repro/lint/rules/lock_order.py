"""``lock-order`` (project): deadlock-shaped lock usage across modules.

``repro serve`` runs handlers on :class:`ThreadingHTTPServer` threads; each
one may take the service's execution lock, the disk store's index lock, and
the counters' lock on a single request path.  The module-scoped
``thread-safety`` rule proves each mutation is *locked*; this rule proves the
locks compose: it builds the project-wide lock-acquisition graph — an edge
``A → B`` wherever ``B`` is acquired while ``A`` is held, whether the
acquisition is lexically nested or buried three calls deep — and reports:

* **cycles** in that graph (two threads taking the same pair of locks in
  opposite orders is the classic deadlock; the fix is a documented global
  order);
* **blocking I/O under a lock**: a held-lock call chain that reaches
  ``time.sleep``, a socket/HTTP request, a subprocess, or a worker-pool wait
  (:data:`repro.lint.graph.BLOCKING_CALLS`) serializes every other thread
  behind an unbounded wait.  Local file I/O is deliberately not "blocking":
  it completes in bounded time.

Lock identities come from the analysis summaries: ``module:Class.attr`` for
``self._lock``-style locks, ``module:NAME`` for module-level ones.  Findings
anchor at the witness call; messages stay line-free so baselines survive
unrelated edits.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding, Scope, Severity
from repro.lint.framework import Project, Rule, register_rule
from repro.lint.rules._ast import project_finding


def _lock_display(analysis, lock_id: str) -> str:
    kind = analysis.lock_kind(lock_id)
    return f"{lock_id} ({kind})" if kind else lock_id


def _check(project: Project) -> Iterator[Finding]:
    analysis = project.analysis
    if analysis is None:
        return
    edges = analysis.lock_order_edges()

    # Deadlock cycles: one finding per strongly-connected lock set, anchored
    # at the lexically-first witness edge inside the cycle.
    for cycle in analysis.lock_cycles():
        members = set(cycle)
        witnesses = sorted(
            (edge for pair, edge in edges.items()
             if pair[0] in members and pair[1] in members),
            key=lambda edge: (edge["path"], edge["line"]))
        order = " vs ".join(
            f"{held} -> {acquired}"
            for held, acquired in sorted(pair for pair in edges
                                         if pair[0] in members
                                         and pair[1] in members))
        anchor = witnesses[0]
        yield project_finding(
            RULE, anchor["path"], anchor["line"],
            f"potential deadlock: locks {', '.join(cycle)} are acquired in "
            f"conflicting orders ({order}); establish and document a single "
            "global acquisition order")

    # Blocking I/O while holding a lock: direct externals and call chains.
    blocking = analysis.blocking_functions()
    from repro.lint.graph import is_blocking_call

    reported: set[tuple[str, str, str]] = set()
    for fn_id, record in analysis.iter_functions():
        module = analysis.module_of(fn_id)
        for call in record["calls"]:
            if not call["held"]:
                continue
            internal, external = analysis.resolve_call(module, call)
            hits: list[tuple[str, str]] = []  # (blocking name, chain text)
            for name in sorted(set(external)):
                if is_blocking_call(name):
                    hits.append((name, f"{fn_id} -> {name}"))
            for callee in sorted(set(internal)):
                if callee in blocking:
                    chain = [fn_id] + analysis.blocking_chain(callee)
                    hits.append((blocking[callee][0], " -> ".join(chain)))
            for name, chain in hits:
                for lock in call["held"]:
                    key = (lock, name, fn_id)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield project_finding(
                        RULE, analysis.path_of(fn_id), call["line"],
                        f"blocking call {name} is reachable while holding "
                        f"{_lock_display(analysis, lock)}: {chain}; every "
                        "other thread contending for the lock waits behind "
                        "this I/O", col=call["col"])


RULE = register_rule(Rule(
    id="lock-order",
    severity=Severity.ERROR,
    description="project-wide lock-acquisition graph has a cycle (potential "
                "deadlock) or blocking I/O runs under a held lock",
    check=_check,
    scope=Scope.PROJECT,
))
