"""``python -m repro`` — command-line front end for the simulation engine.

Every subcommand, its ``--help`` text, and its options are generated from the
experiment registry (:mod:`repro.engine.spec`); there are no hand-written
per-experiment argparse blocks.  The canonical entry point is::

    python -m repro run figure3 --workers 4 --scale fast
    python -m repro run my_sweep.json --workers 8        # scenario file
    python -m repro run sweeps/rerand.toml

with every experiment name also kept as a top-level alias
(``python -m repro figure3`` ≡ ``python -m repro run figure3``).

Shared options: ``--workers`` (process-pool size; results are bit-identical
to serial runs), ``--backend`` (replay backend: ``reference`` or
``vector``; results are bit-identical across backends), ``--progress``
(stream per-job completions to stderr), ``--scale`` (fidelity preset),
``--seed``, ``--workload-limit``, ``--branches``/``--warmup`` (preset
overrides), ``--json PATH`` (dump the result inside a versioned
``{"schema", "spec", "result"}`` envelope), and ``--store DIR`` /
``--no-store`` (content-addressed result cache; defaults to ``$REPRO_STORE``
when set).  Beyond the registry-generated experiment subcommands there are
three hand-written ones: ``run`` (scenario files), ``store``
(``stats``/``gc``/``verify`` maintenance of a store directory) and ``serve``
(the HTTP front-end over the store).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

from repro.engine import (
    SCALE_PRESETS,
    ExperimentSpec,
    format_scenario,
    list_experiments,
    load_builtin_specs,
    load_scenario,
    run_experiment,
    run_scenario,
    scenario_envelope,
)
from repro.lint.cli import add_lint_parser
from repro.obs.cli import add_obs_parser
from repro.sim import fastpath
from repro.store import DiskStore, default_store_path, open_store
from repro.version import __version__


def _emit(args: argparse.Namespace, text: str, payload: Any) -> None:
    # Write the JSON artifact before printing: if stdout is a pipe that closes
    # early (| head), the file must still exist.
    json_path = getattr(args, "json", None)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
    print(text)
    if json_path:
        print(f"JSON written to {json_path}")


def _progress_printer() -> Callable:
    """Per-job completion lines on stderr (completion order, timings included)."""
    def progress(done: int, total: int, record) -> None:
        what = " ".join(part for part in (record.model, record.workload) if part)
        print(f"[{done}/{total}] {record.kind} {what} "
              f"({record.seconds * 1000.0:.0f} ms)", file=sys.stderr)
    return progress


def _apply_backend(args: argparse.Namespace) -> None:
    """Install the requested replay backend for this process (and, via fork,
    any worker processes the runner starts)."""
    backend = getattr(args, "backend", None)
    if backend:
        fastpath.set_backend(backend)


def _resolve_store(args: argparse.Namespace):
    """The result store this invocation should use (or ``None``).

    ``--no-store`` always wins; an explicit ``--store DIR`` beats the
    ``$REPRO_STORE`` default.
    """
    return open_store(
        path=getattr(args, "store", None),
        enabled=getattr(args, "use_store", True),
    )


def _report_store(store) -> None:
    """One cache-effectiveness line on stderr (stdout stays byte-identical)."""
    if store is None:
        return
    # Counters live in memory; stats() would os.walk the whole objects tree
    # just to print this one line.
    counters = store.counters
    print(
        f"store: {counters.hits} hits, {counters.misses} misses, "
        f"{counters.writes} writes ({getattr(store, 'root', 'memory')})",
        file=sys.stderr,
    )


def _cmd_experiment(args: argparse.Namespace) -> None:
    """Generic handler: every registered experiment dispatches through here."""
    _apply_backend(args)
    spec: ExperimentSpec = args.spec
    # argparse already applied the option defaults; run_experiment does the
    # one and only merged_params pass (seed defaulting, unknown-key checks).
    params = {option.dest: getattr(args, option.dest)
              for option in spec.cli_options()}
    if spec.note is not None:
        note = spec.note(params)
        if note:
            print(note, file=sys.stderr)
    progress = _progress_printer() if getattr(args, "progress", False) else None
    # Only grid experiments run through the incremental store; custom-execute
    # specs (bench, listings) manage their own execution.
    if spec.build_jobs is not None:
        store = _resolve_store(args)
    else:
        store = None
        if getattr(args, "store", None):
            print(f"note: {spec.name} does not run engine grids; "
                  "--store is ignored", file=sys.stderr)
    result = run_experiment(
        spec, params, workers=getattr(args, "workers", 1), progress=progress,
        store=store,
    )
    _emit(args, spec.formatter(result), spec.serialize(result))
    _report_store(store)
    if spec.epilogue is not None:
        line = spec.epilogue(result, params)
        if line:
            print(line)


def _cmd_run_scenario(args: argparse.Namespace) -> None:
    """``run <path>.json|.toml`` — execute a user-authored scenario file."""
    _apply_backend(args)
    target = args.target
    if not os.path.exists(target):
        raise ValueError(
            f"{target!r} is neither a registered experiment nor a scenario "
            f"file; experiments: {', '.join(spec.name for spec in list_experiments())}"
        )
    scenario = load_scenario(target)
    progress = _progress_printer() if args.progress else None
    store = _resolve_store(args)
    result = run_scenario(scenario, workers=args.workers, progress=progress,
                          store=store)
    _emit(args, format_scenario(result), scenario_envelope(result))
    _report_store(store)


def _require_store_dir(args: argparse.Namespace) -> DiskStore:
    path = args.store or default_store_path()
    if not path:
        raise ValueError(
            "no store directory: pass --store DIR or set $REPRO_STORE")
    # Maintenance commands inspect an *existing* store; auto-creating one for
    # a typo'd path would report a fresh empty store as consistent.
    if not os.path.isdir(path):
        raise ValueError(f"store directory {path!r} does not exist")
    return DiskStore(path)


def _cmd_store(args: argparse.Namespace) -> None:
    """``store stats|gc|verify`` — inspect and maintain a store directory."""
    store = _require_store_dir(args)
    if args.store_command == "stats":
        # Hit/miss counters live on the in-process instance; this fresh one
        # would report zeros, so print occupancy only.
        counters = store.counters.to_dict()
        occupancy = {key: value for key, value in store.stats().items()
                     if key not in counters}
        print(json.dumps(occupancy, indent=2, sort_keys=True))
    elif args.store_command == "gc":
        summary = store.gc(max_bytes=args.max_bytes)
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:  # verify
        issues = store.verify()
        for issue in issues:
            print(issue)
        occupancy = store.stats()
        print(f"verified {occupancy['entries']} records "
              f"({occupancy['bytes']} bytes): "
              f"{len(issues)} issue(s) found" + (", healed" if issues else ""))
        if issues:
            raise ValueError(f"store had {len(issues)} inconsistent record(s)")


def _cmd_serve(args: argparse.Namespace) -> None:
    """``serve`` — run the HTTP front-end over the (incremental) store."""
    from repro.faults import parse_fault_spec, plan_from_env, wrap_store
    from repro.store.memory import MemoryStore
    from repro.store.serve import serve_forever

    _apply_backend(args)
    store = open_store(path=args.store, enabled=args.use_store)
    plan = (parse_fault_spec(args.faults) if args.faults
            else plan_from_env())
    store, injector = wrap_store(store if store is not None else MemoryStore(),
                                 plan)
    serve_forever(host=args.host, port=args.port, store=store,
                  workers=args.workers, queue_depth=args.queue_depth,
                  job_timeout=args.job_timeout,
                  max_attempts=args.max_attempts, injector=injector)


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    """The result-store options every job-running command accepts."""
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="content-addressed result store directory "
                             "(default: $REPRO_STORE when set); cached jobs "
                             "merge from it, fresh jobs write back")
    parser.add_argument("--no-store", dest="use_store", action="store_false",
                        default=True,
                        help="ignore $REPRO_STORE and run without a cache")


def _add_runtime_options(parser: argparse.ArgumentParser,
                         progress_default: bool) -> None:
    """The shared execution options every job-running command accepts."""
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--backend", choices=list(fastpath.BACKENDS),
                        default=None,
                        help="replay backend (default: "
                             f"{fastpath.DEFAULT_BACKEND}); results are "
                             "identical across backends")
    parser.add_argument("--progress", action=argparse.BooleanOptionalAction,
                        default=progress_default,
                        help="stream per-job completions to stderr")
    _add_store_options(parser)


def _add_option(parser: argparse.ArgumentParser, option) -> None:
    kwargs: dict[str, Any] = {"default": option.default, "help": option.help}
    if option.action is not None:
        kwargs["action"] = option.action
    else:
        if option.type is not None:
            kwargs["type"] = option.type
        if option.nargs is not None:
            kwargs["nargs"] = option.nargs
        if option.choices is not None:
            kwargs["choices"] = list(option.choices)
        if option.metavar is not None:
            kwargs["metavar"] = option.metavar
    parser.add_argument(f"--{option.flag}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    load_builtin_specs()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and tables on the simulation engine.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="run a registered experiment by name, or a .json/.toml scenario file",
    )
    run_parser.add_argument(
        "target",
        help="experiment name (aliases the top-level subcommand) or scenario path",
    )
    _add_runtime_options(run_parser, progress_default=True)
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="also dump the result as JSON to PATH")
    run_parser.set_defaults(handler=_cmd_run_scenario)

    store_parser = subparsers.add_parser(
        "store", help="inspect and maintain a content-addressed result store")
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("stats", "print occupancy as JSON"),
        ("gc", "evict LRU records down to a byte cap and sweep temp files"),
        ("verify", "check every record; delete the ones that cannot be served"),
    ):
        sub = store_sub.add_parser(name, help=help_text)
        sub.add_argument("--store", metavar="DIR", default=None,
                         help="store directory (default: $REPRO_STORE)")
        if name == "gc":
            sub.add_argument("--max-bytes", type=int, default=None,
                             help="evict least-recently-used records until "
                                  "total size fits")
        sub.set_defaults(handler=_cmd_store)

    serve_parser = subparsers.add_parser(
        "serve",
        help="HTTP front-end: POST scenarios, GET cached envelopes (ETag/304)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="bind port (default: 8765; 0 = ephemeral)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="concurrent job workers (default: 2)")
    serve_parser.add_argument("--queue-depth", type=int, default=16,
                              help="bounded job queue depth; a full queue "
                                   "answers 429 + Retry-After (default: 16)")
    serve_parser.add_argument("--job-timeout", type=float, default=300.0,
                              help="per-job deadline in seconds; exceeding "
                                   "it records state 'timeout' (default: 300)")
    serve_parser.add_argument("--max-attempts", type=int, default=3,
                              help="attempts per job across transient "
                                   "failures, with backoff (default: 3)")
    serve_parser.add_argument("--faults", metavar="SPEC", default=None,
                              help="fault injection, e.g. 'error=0.1,"
                                   "latency=0.05,corrupt=0.1,seed=7' "
                                   "(default: $REPRO_FAULTS)")
    serve_parser.add_argument("--backend", choices=list(fastpath.BACKENDS),
                              default=None, help="replay backend override")
    _add_store_options(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    add_lint_parser(subparsers)
    add_obs_parser(subparsers)

    for spec in list_experiments():
        sub = subparsers.add_parser(spec.name, help=spec.description)
        if spec.takes_workers:
            _add_runtime_options(sub, progress_default=False)
        sub.add_argument("--json", metavar="PATH", default=None,
                         help="also dump the result as JSON to PATH")
        for option in spec.cli_options():
            _add_option(sub, option)
        sub.set_defaults(handler=_cmd_experiment, spec=spec)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    load_builtin_specs()
    # `run <experiment>` is an exact alias of the top-level subcommand: rewrite
    # before parsing so both routes share one parser (and one option set).
    if len(argv) >= 2 and argv[0] == "run" and any(
        spec.name == argv[1] for spec in list_experiments()
    ):
        argv = argv[1:]
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int | None] = args.handler
    try:
        # Handlers may return an exit code (``lint`` exits 1 on findings);
        # None means success.
        status = handler(args)
        # Flush inside the try: with buffered stdout the EPIPE from a closed
        # pipe (| head) would otherwise only surface at interpreter shutdown,
        # as "Exception ignored" noise and exit code 120.
        sys.stdout.flush()
    except BrokenPipeError:
        # Output was piped into something like `head`; exit quietly.  Point
        # stdout at devnull so the shutdown flush cannot hit EPIPE again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (KeyError, ValueError, OSError) as error:
        # Registry lookups and option validation raise with helpful messages;
        # present them as CLI errors rather than tracebacks.  str(KeyError)
        # wraps the message in quotes, so unwrap its single argument instead.
        message = (error.args[0]
                   if isinstance(error, KeyError) and error.args else str(error))
        print(f"error: {message}", file=sys.stderr)
        return 2
    return status if isinstance(status, int) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
