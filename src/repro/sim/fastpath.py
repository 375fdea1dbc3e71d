"""Process-wide replay-backend switch: ``reference`` / ``vector``.

The simulators keep two equivalent replay implementations:

* ``reference`` — the straightforward per-item loop, the specification every
  faster path is checked against; and
* ``vector`` — the NumPy array-at-a-time backend in :mod:`repro.sim.vector`
  (the default), which replays spans of branches with array kernels for
  models that provide one; a kernel accepts every trace, SMT co-runs
  included.  When a model has no kernel, the replay runs the ``reference``
  loop and the decline is counted in ``repro_replay_declines_total``.

Both produce byte-identical result frames — the parity tests pin that — so
the switch only ever changes wall-clock time.  The process-wide backend is
``vector`` until changed programmatically with :func:`set_backend` (or
:func:`forced_backend`), or per run with the CLI's ``--backend`` option.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: Recognised backend names, slowest first.
BACKENDS = ("reference", "vector")

DEFAULT_BACKEND = "vector"

_BACKEND = DEFAULT_BACKEND


def backend() -> str:
    """The active replay backend name."""
    return _BACKEND


def set_backend(name: str) -> None:
    """Select the process-wide replay backend."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    global _BACKEND
    _BACKEND = name


@contextmanager
def forced_backend(name: str) -> Iterator[None]:
    """Temporarily force a specific replay backend (parity tests)."""
    previous = _BACKEND
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def vector_enabled() -> bool:
    """Whether simulators should try the NumPy vector backend first."""
    return _BACKEND == "vector"
