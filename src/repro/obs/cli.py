"""``repro obs`` — render metrics snapshots and stored span traces.

Three subcommands:

* ``repro obs metrics [--url URL]`` — Prometheus text: scraped from a
  running serve instance with ``--url``, otherwise the current process's
  registry (useful after an in-process run).
* ``repro obs trace <fingerprint> (--store DIR | --url URL) [--json]`` —
  one job's span tree, indented with per-span seconds and percent-of-root.
* ``repro obs top --store DIR [--limit N]`` — per-phase profile across
  every stored trace: total seconds per span name plus the slowest traces.

Store access goes through the normal store protocol (``obstrace``
namespace), so a trace outlives the server process that ran its job.
"""

from __future__ import annotations

import argparse
import json
import urllib.request
from typing import Any

from repro.obs import metrics as obs_metrics
from repro.obs.spans import OBSTRACE_SCHEMA, format_tree, phase_seconds


def add_obs_parser(subparsers) -> None:
    """Register the ``obs`` subcommand on the main CLI's subparsers."""
    parser = subparsers.add_parser(
        "obs",
        help="observability: metrics snapshots, span traces, profiles",
        description="Render the metrics registry and persisted span traces.")
    commands = parser.add_subparsers(dest="obs_command", required=True)

    metrics_parser = commands.add_parser(
        "metrics", help="Prometheus-text snapshot of the metrics registry")
    metrics_parser.add_argument(
        "--url", default=None, metavar="URL",
        help="scrape GET /v1/metrics of a running serve instance "
             "instead of this process's registry")
    metrics_parser.set_defaults(handler=_cmd_metrics)

    trace_parser = commands.add_parser(
        "trace", help="render one job's span tree from the store or serve")
    trace_parser.add_argument("fingerprint", help="job fingerprint")
    trace_parser.add_argument("--store", default=None, metavar="DIR",
                              help="read the obstrace record from this "
                                   "store directory")
    trace_parser.add_argument("--url", default=None, metavar="URL",
                              help="fetch via GET /v1/jobs/<fp>/trace")
    trace_parser.add_argument("--json", action="store_true", dest="as_json",
                              help="emit the raw span payload as JSON")
    trace_parser.set_defaults(handler=_cmd_trace)

    top_parser = commands.add_parser(
        "top", help="per-phase timing profile across all stored traces")
    top_parser.add_argument("--store", required=True, metavar="DIR",
                            help="store directory to profile")
    top_parser.add_argument("--limit", type=int, default=10,
                            help="slowest traces to list (default: 10)")
    top_parser.set_defaults(handler=_cmd_top)


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.url:
        text = _fetch_text(args.url.rstrip("/") + "/v1/metrics")
    else:
        text = obs_metrics.render_prometheus()
    print(text, end="" if text.endswith("\n") or not text else "\n")
    return 0


def _load_trace(args: argparse.Namespace) -> dict[str, Any]:
    if args.url:
        from repro.client import ReproClient
        return ReproClient(args.url).trace(args.fingerprint)
    if args.store:
        from repro.store.base import OBSTRACE_NAMESPACE
        from repro.store.disk import DiskStore
        payload = DiskStore(args.store).get(OBSTRACE_NAMESPACE,
                                            args.fingerprint)
        if payload is None:
            raise KeyError(
                f"no trace for {args.fingerprint!r} in {args.store!r}")
        return payload
    raise ValueError("repro obs trace needs --store DIR or --url URL")


def _cmd_trace(args: argparse.Namespace) -> int:
    payload = _load_trace(args)
    if payload.get("schema") != OBSTRACE_SCHEMA:
        raise ValueError(
            f"unexpected trace schema {payload.get('schema')!r}")
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_tree(payload))
    phases = phase_seconds(payload)
    if phases:
        print("phases: " + "  ".join(
            f"{name}={seconds:.4f}s" for name, seconds in phases.items()))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.store.base import OBSTRACE_NAMESPACE
    from repro.store.disk import DiskStore
    store = DiskStore(args.store)
    totals: dict[str, float] = {}
    traces: list[tuple[float, str, str]] = []
    count = 0
    for fingerprint in store.keys(OBSTRACE_NAMESPACE):
        payload = store.get(OBSTRACE_NAMESPACE, fingerprint)
        if not isinstance(payload, dict) or \
                payload.get("schema") != OBSTRACE_SCHEMA:
            continue
        count += 1
        root = payload.get("root", {})
        seconds = float(root.get("seconds", 0.0))
        attrs = root.get("attrs") or {}
        traces.append((seconds, fingerprint,
                       str(attrs.get("scenario", root.get("name", "?")))))
        for name, phase_total in phase_seconds(payload).items():
            totals[name] = totals.get(name, 0.0) + phase_total
    if not count:
        print(f"no traces in {args.store}")
        return 0
    grand = sum(seconds for seconds, _, _ in traces)
    print(f"{count} trace(s), {grand:.3f}s total")
    print("per-phase totals:")
    for name, seconds in sorted(totals.items(),
                                key=lambda item: (-item[1], item[0])):
        share = seconds / grand * 100 if grand > 0 else 0.0
        print(f"  {name:12s} {seconds:10.4f}s {share:5.1f}%")
    print(f"slowest traces (top {args.limit}):")
    traces.sort(key=lambda item: (-item[0], item[1]))
    for seconds, fingerprint, scenario in traces[:args.limit]:
        print(f"  {seconds:10.4f}s  {fingerprint}  {scenario}")
    return 0


def _fetch_text(url: str) -> str:
    with urllib.request.urlopen(url) as response:  # noqa: S310 (CLI tool)
        return response.read().decode("utf-8", "replace")
