"""``repro serve`` — a stdlib HTTP front-end over the experiment store.

The server accepts scenario files (the ``repro.scenario/v1`` format) over
POST and hands them to the async job subsystem (:mod:`repro.store.jobs`):
a bounded queue feeds supervised worker threads, each running the scenario
through the incremental runner (so overlapping scenarios share job records)
under a per-job deadline with bounded retry.  Finished envelopes are cached
under the scenario's content-addressed fingerprint and served with
strong-ETag / ``304 Not Modified`` semantics.  Being pure
:mod:`http.server`, it needs no dependency the repository does not already
have.

Endpoints (all JSON)::

    GET    /                      service info: version, config, endpoints
    GET    /healthz               liveness: queue depth, worker liveness;
                                  503 once the worker pool is dead
    GET    /v1/store/stats        live store counters and occupancy
    POST   /v1/experiments        body = scenario JSON; 200 on a cache hit,
                                  202 + job envelope otherwise
                                  (?wait=1[&timeout=s] blocks synchronously)
    GET    /v1/experiments/<fp>   cached envelope by fingerprint; ETag/304
    GET    /v1/jobs/<fp>          job state; 404 for a job this process
                                  does not hold (never ran it, or pruned it)
    DELETE /v1/jobs/<fp>          cancel a queued job (running → 409)
    GET    /v1/jobs/<fp>/events   SSE-style chunked progress stream
    GET    /v1/jobs/<fp>/trace    completed job's span tree (obstrace)
    GET    /v1/metrics            Prometheus text: the process-wide registry

Envelope responses carry ``X-Repro-Cache: hit|miss`` (whether the envelope
was served from the store or computed for this request), ``Location`` (the
canonical GET URL) and the same ``ETag`` the GET would return.  Job
responses carry ``Location: /v1/jobs/<fp>`` and ``X-Repro-Job-State``.
A full queue answers 429 with a ``Retry-After`` hint.  Every error response
is a JSON document with an ``error`` field.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator
from urllib.parse import parse_qs, urlparse

from repro.engine.scenario import (
    SCENARIO_SCHEMA,
    Scenario,
    parse_scenario,
)
from repro.obs import metrics as obs_metrics
from repro.store.base import ENVELOPE_NAMESPACE, ResultStore, validate_key
from repro.store.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    TIMEOUT,
    JobConflict,
    JobManager,
    QueueFull,
)
from repro.store.keys import scenario_fingerprint
from repro.store.memory import MemoryStore
from repro.version import __version__

logger = logging.getLogger("repro.store.serve")

#: Schema tag of the service-info and error payloads.  v3: observability —
#: ``/v1/metrics`` + ``/v1/jobs/<fp>/trace`` endpoints, healthz gained a
#: ``store`` occupancy block.  (v2 added the async job API.)
SERVE_SCHEMA = "repro.serve/v3"

#: Largest accepted POST body.  Scenario files are a few KB; anything close
#: to this is not a scenario, and an unbounded read would let one request
#: allocate arbitrary memory or park a handler thread.
MAX_BODY_BYTES = 8 * 1024 * 1024


def envelope_bytes(envelope: dict[str, Any]) -> bytes:
    """The canonical wire form of an envelope (stable across cold/warm)."""
    return (json.dumps(envelope, indent=2, sort_keys=True) + "\n").encode("utf-8")


def envelope_etag(body: bytes) -> str:
    """Strong ETag of an envelope's canonical bytes."""
    return '"' + hashlib.sha256(body).hexdigest() + '"'


def _valid_envelope(payload: Any) -> bool:
    """Whether a store read actually returned a scenario envelope (injected
    or on-disk corruption that slips past the backend's checks fails here)."""
    return (isinstance(payload, dict)
            and payload.get("schema") == SCENARIO_SCHEMA
            and payload.get("spec") == "scenario"
            and "result" in payload)


class ExperimentService:
    """The store-backed serving core: envelopes, gauges and service info.

    Thread-safe and lock-free at this layer: envelope lookups hit the store
    concurrently and execution is owned by :attr:`manager` (the
    :class:`JobManager`, which the HTTP handler calls directly for job
    routes) — no request ever holds a lock across a simulation.
    """

    def __init__(self, store: ResultStore | None = None, workers: int = 2,
                 queue_depth: int = 16, job_timeout: float = 300.0,
                 max_attempts: int = 3, injector: Any | None = None,
                 tick: float = 0.05):
        self.store = store if store is not None else MemoryStore()
        self.manager = JobManager(
            store=self.store, workers=workers, queue_depth=queue_depth,
            job_timeout=job_timeout, max_attempts=max_attempts, tick=tick,
            injector=injector)

    def close(self) -> None:
        """Wind down the job manager (service lifetime, not per request)."""
        self.manager.close()

    # ------------------------------------------------------------ envelopes

    def prepare(self, scenario_data: Any) -> tuple[Scenario, str]:
        """Validate and fingerprint a scenario (ValueError → handler 400)."""
        scenario = parse_scenario(scenario_data)
        return scenario, scenario_fingerprint(scenario)

    def cached_envelope(self, fingerprint: str) -> dict[str, Any] | None:
        """The envelope for ``fingerprint`` — from the store if it holds a
        valid one, else the job manager's in-memory copy (covers degraded
        envelope writes), else ``None``."""
        try:
            payload = self.store.get(ENVELOPE_NAMESPACE, fingerprint)
        except OSError:
            logger.warning("envelope read failed for %s; degrading",
                           fingerprint[:16], exc_info=True)
            payload = None
        if payload is not None and not _valid_envelope(payload):
            # The backend counted a hit for bytes that are not this
            # envelope; reclassify so the counters describe what was served.
            self.store.counters.add(hits=-1, misses=1)
            logger.warning("envelope %s is corrupt; degrading to recompute",
                           fingerprint[:16])
            payload = None
        if payload is not None:
            return payload
        return self.manager.envelope_for(fingerprint)

    # ---------------------------------------------------------------- meta

    def refresh_gauges(self,
                       stats: dict[str, Any] | None = None) -> dict[str, Any]:
        """Push queue/worker/occupancy gauges into the metrics registry.

        Counters stream in as events happen; these few point-in-time values
        are instead sampled on every scrape and health probe so the registry
        never serves a stale depth.  Returns the store occupancy block.
        """
        stats = stats if stats is not None else self.manager.stats()
        live = self.store.stats()
        occupancy = {
            "entries": int(live.get("entries", 0)),
            "bytes": int(live.get("bytes", 0)),
        }
        obs_metrics.set_gauge("repro_jobs_queue_depth",
                              stats["queue"]["depth"])
        obs_metrics.set_gauge("repro_jobs_workers_alive",
                              stats["workers"]["alive"])
        obs_metrics.set_gauge("repro_jobs_running", stats["workers"]["busy"])
        obs_metrics.set_gauge("repro_store_entries", occupancy["entries"])
        obs_metrics.set_gauge("repro_store_bytes", occupancy["bytes"])
        return occupancy

    def metrics_text(self) -> str:
        """Prometheus text exposition of the process-wide registry."""
        self.refresh_gauges()
        return obs_metrics.render_prometheus()

    def healthz(self) -> tuple[bool, dict[str, Any]]:
        """``(healthy, payload)`` for the liveness probe: degraded (503)
        once no worker is alive to drain the queue."""
        stats = self.manager.stats()
        occupancy = self.refresh_gauges(stats)
        healthy = bool(stats["healthy"])
        return healthy, {
            "schema": SERVE_SCHEMA,
            "status": "ok" if healthy else "degraded",
            "version": __version__,
            "queue": stats["queue"],
            "workers": stats["workers"],
            "jobs": stats["jobs"],
            "store": occupancy,
        }

    def info(self) -> dict[str, Any]:
        stats = self.manager.stats()
        return {
            "schema": SERVE_SCHEMA,
            "service": "repro.serve",
            "version": __version__,
            "endpoints": {
                "GET /": "this document",
                "GET /healthz": "liveness probe: queue depth, worker liveness",
                "GET /v1/store/stats": "store counters and occupancy",
                "POST /v1/experiments":
                    "run a repro.scenario/v1 file: 200 on cache hit, "
                    "202 + job envelope otherwise (?wait=1 to block)",
                "GET /v1/experiments/<fingerprint>": "cached envelope; ETag/304",
                "GET /v1/jobs/<fingerprint>": "job state by fingerprint",
                "DELETE /v1/jobs/<fingerprint>": "cancel a queued job",
                "GET /v1/jobs/<fingerprint>/events": "SSE progress stream",
                "GET /v1/jobs/<fingerprint>/trace":
                    "completed job's span tree (repro.obstrace/v1)",
                "GET /v1/metrics": "Prometheus text exposition (0.0.4)",
            },
            "config": {
                "workers": self.manager.workers,
                "queue_depth": self.manager.queue_depth,
                "job_timeout": self.manager.job_timeout,
                "max_attempts": self.manager.max_attempts,
            },
            "store": self.store.stats(),
            "jobs": stats["jobs"],
            "runs": stats["completed"],
        }


def _route_template(path: str) -> str:
    """Collapse a request path to its route template for metric labels.

    Fingerprints are unbounded, so labelling by raw path would grow the
    registry without limit; unknown paths all share one ``<other>`` label
    for the same reason.
    """
    path = path.split("?", 1)[0].rstrip("/") or "/"
    if path.startswith("/v1/experiments/"):
        return "/v1/experiments/<fp>"
    if path.startswith("/v1/jobs/"):
        if path.endswith("/events"):
            return "/v1/jobs/<fp>/events"
        if path.endswith("/trace"):
            return "/v1/jobs/<fp>/trace"
        return "/v1/jobs/<fp>"
    known = ("/", "/v1", "/healthz", "/v1/store/stats", "/v1/metrics",
             "/v1/experiments")
    return path if path in known else "<other>"


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        logger.info("%s %s", self.address_string(), format % args)

    # ------------------------------------------------------------- plumbing

    def send_response(self, code: int, message: str | None = None) -> None:
        # Remember the status for the request-metrics label; multiplexing
        # through send_response covers every reply path (JSON, envelope,
        # 304, SSE) without touching each one.
        self._obs_status = code
        super().send_response(code, message)

    @contextmanager
    def _observed(self, method: str) -> Iterator[None]:
        """Time one request and record it in the metrics registry."""
        self._obs_status = 0
        started = time.perf_counter()
        try:
            yield
        finally:
            route = _route_template(self.path)
            obs_metrics.observe("repro_http_request_seconds",
                                time.perf_counter() - started, route=route)
            obs_metrics.inc("repro_http_requests_total", method=method,
                            route=route,
                            status=str(getattr(self, "_obs_status", 0) or 0))

    def _send_json(self, status: int, payload: Any,
                   extra_headers: dict[str, str] | None = None) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str,
                         extra_headers: dict[str, str] | None = None) -> None:
        self._send_json(status, {"schema": SERVE_SCHEMA, "error": message},
                        extra_headers)

    def _send_envelope(self, fingerprint: str, envelope: dict[str, Any],
                       extra_headers: dict[str, str] | None = None,
                       conditional: bool = False) -> None:
        body = envelope_bytes(envelope)
        etag = envelope_etag(body)
        # RFC 9110 defines 304 for conditional GET/HEAD only; a POST always
        # gets the full envelope (with its Location/fingerprint headers).
        if conditional and self._etag_matches(etag):
            self.send_response(304)
            self.send_header("ETag", etag)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("ETag", etag)
        self.send_header("X-Repro-Fingerprint", fingerprint)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_job(self, status: int, payload: dict[str, Any]) -> None:
        fingerprint = payload["fingerprint"]
        body = dict(payload)
        body["links"] = {
            "self": f"/v1/jobs/{fingerprint}",
            "result": f"/v1/experiments/{fingerprint}",
            "events": f"/v1/jobs/{fingerprint}/events",
        }
        self._send_json(status, body, {
            "Location": f"/v1/jobs/{fingerprint}",
            "X-Repro-Fingerprint": fingerprint,
            "X-Repro-Job-State": payload["state"],
        })

    def _etag_matches(self, etag: str) -> bool:
        candidates = self.headers.get("If-None-Match")
        if not candidates:
            return False
        if candidates.strip() == "*":
            return True
        # RFC 9110 §13.1.2: If-None-Match uses weak comparison — a proxy may
        # have weakened our strong ETag (e.g. on-the-fly gzip), so strip the
        # W/ prefix before comparing.
        entries = [entry.strip() for entry in candidates.split(",")]
        return any(
            etag == (entry[2:] if entry.startswith("W/") else entry)
            for entry in entries
        )

    def _query(self) -> dict[str, list[str]]:
        return parse_qs(urlparse(self.path).query)

    def _valid_fingerprint(self, fingerprint: str) -> bool:
        """Whether a path's fingerprint is well formed; a malformed one is
        answered 400 here."""
        try:
            validate_key(ENVELOPE_NAMESPACE, fingerprint)
        except ValueError as error:
            self._send_error_json(400, str(error))
            return False
        return True

    # -------------------------------------------------------------- routing

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        # Same catch-all as do_POST: a store-layer failure (read-only mount,
        # disk full) must come back as a JSON 500, not a dropped connection.
        with self._observed("GET"):
            try:
                self._route_get()
            except Exception:
                logger.exception("GET %s failed", self.path)
                try:
                    self._send_error_json(500,
                                          "internal error; see server log")
                except OSError:  # pragma: no cover - client already gone
                    pass

    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path in ("/", "/v1"):
            self._send_json(200, self.service.info())
        elif path == "/healthz":
            healthy, payload = self.service.healthz()
            self._send_json(200 if healthy else 503, payload)
        elif path == "/v1/store/stats":
            self._send_json(200, self.service.store.stats())
        elif path == "/v1/metrics":
            body = self.service.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path.startswith("/v1/experiments/"):
            fingerprint = path[len("/v1/experiments/"):]
            if not self._valid_fingerprint(fingerprint):
                return
            envelope = self.service.cached_envelope(fingerprint)
            if envelope is None:
                self._send_error_json(
                    404, f"no cached envelope for fingerprint {fingerprint!r}")
                return
            self._send_envelope(fingerprint, envelope,
                                {"X-Repro-Cache": "hit"}, conditional=True)
        elif path.startswith("/v1/jobs/") and path.endswith("/events"):
            fingerprint = path[len("/v1/jobs/"):-len("/events")]
            self._stream_events(fingerprint)
        elif path.startswith("/v1/jobs/") and path.endswith("/trace"):
            fingerprint = path[len("/v1/jobs/"):-len("/trace")]
            if not self._valid_fingerprint(fingerprint):
                return
            payload = self.service.manager.trace_for(fingerprint)
            if payload is None:
                self._send_error_json(
                    404, f"no trace for job {fingerprint!r}")
                return
            self._send_json(200, payload,
                            {"X-Repro-Fingerprint": fingerprint})
        elif path.startswith("/v1/jobs/"):
            fingerprint = path[len("/v1/jobs/"):]
            if not self._valid_fingerprint(fingerprint):
                return
            payload = self.service.manager.get(fingerprint)
            if payload is None:
                self._send_error_json(404, f"unknown job {fingerprint!r}")
                return
            self._send_job(200, payload)
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        with self._observed("DELETE"):
            try:
                self._route_delete()
            except Exception:
                logger.exception("DELETE %s failed", self.path)
                try:
                    self._send_error_json(500,
                                          "internal error; see server log")
                except OSError:  # pragma: no cover - client already gone
                    pass

    def _route_delete(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith("/v1/jobs/"):
            self._send_error_json(404, f"unknown path {path!r}")
            return
        fingerprint = path[len("/v1/jobs/"):]
        if not self._valid_fingerprint(fingerprint):
            return
        try:
            payload = self.service.manager.cancel(fingerprint)
        except KeyError:
            self._send_error_json(404, f"unknown job {fingerprint!r}")
        except JobConflict as error:
            self._send_error_json(409, str(error))
        else:
            self._send_job(200, payload)

    def _stream_events(self, fingerprint: str) -> None:
        if not self._valid_fingerprint(fingerprint):
            return
        manager = self.service.manager
        if manager.get(fingerprint) is None:
            self._send_error_json(404, f"unknown job {fingerprint!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        # The stream ends the response body; close rather than risk a
        # desynced keep-alive if the client stops reading mid-stream.
        self.close_connection = True
        try:
            for payload in manager.events(fingerprint, yield_heartbeats=True):
                if payload is None:
                    # Heartbeat: an SSE comment frame.  Clients ignore it;
                    # writing it raises OSError once the client is gone, so
                    # an abandoned stream releases this handler thread
                    # within one heartbeat instead of idling until the job
                    # finishes.
                    self._write_chunk(b": heartbeat\n\n")
                    continue
                data = ("data: " + json.dumps(payload, sort_keys=True)
                        + "\n\n").encode("utf-8")
                self._write_chunk(data)
            self._write_chunk(b"")
        except OSError:  # pragma: no cover - client went away mid-stream
            pass

    def _write_chunk(self, data: bytes) -> None:
        if data:
            self.wfile.write(f"{len(data):X}\r\n".encode("ascii")
                             + data + b"\r\n")
        else:
            self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        with self._observed("POST"):
            try:
                self._route_post()
            except Exception:
                logger.exception("POST %s failed", self.path)
                try:
                    self._send_error_json(500,
                                          "internal error; see server log")
                except OSError:  # pragma: no cover - client already gone
                    pass

    def _route_post(self) -> None:
        # Drain the declared body before any reply: with keep-alive (the
        # HTTP/1.1 default) unread body bytes would be parsed as the next
        # request line, desyncing the connection on every error response.
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            # Too large to drain; reply and drop the connection instead of
            # reading an attacker-chosen number of bytes into memory.
            self.close_connection = True
            self._send_error_json(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return
        raw = self.rfile.read(length) if length > 0 else b""
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/experiments":
            self._send_error_json(404, f"unknown path {path!r}")
            return
        if not raw:
            self._send_error_json(400, "request body must be a scenario JSON")
            return
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self._send_error_json(400, f"request body is not JSON: {error}")
            return
        try:
            scenario, fingerprint = self.service.prepare(data)
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        envelope = self.service.cached_envelope(fingerprint)
        if envelope is not None:
            self._send_envelope(fingerprint, envelope, {
                "X-Repro-Cache": "hit",
                "Location": f"/v1/experiments/{fingerprint}",
            })
            return
        try:
            payload, _created = self.service.manager.submit(scenario,
                                                            fingerprint)
        except QueueFull as error:
            self._send_error_json(429, str(error), {
                "Retry-After": f"{max(1, round(error.retry_after))}",
            })
            return
        query = self._query()
        if query.get("wait", ["0"])[0] in ("", "0", "false"):
            self._send_job(202, payload)
            return
        try:
            wait_timeout = float(query["timeout"][0]) if "timeout" in query \
                else None
        except ValueError:
            self._send_error_json(400, "timeout must be a number of seconds")
            return
        payload = self.service.manager.wait(
            fingerprint, timeout=wait_timeout) or payload
        state = payload["state"]
        if state == DONE:
            envelope = self.service.cached_envelope(fingerprint)
            if envelope is None:  # pragma: no cover - done implies envelope
                self._send_error_json(
                    500, "job completed but its envelope is unavailable")
                return
            self._send_envelope(fingerprint, envelope, {
                "X-Repro-Cache": "miss",
                "Location": f"/v1/experiments/{fingerprint}",
            })
        elif state == FAILED:
            self._send_error_json(
                500, f"scenario execution failed: {payload.get('error')}")
        elif state == TIMEOUT:
            self._send_error_json(
                504, f"job exceeded its deadline: {payload.get('error')}")
        elif state == CANCELLED:
            self._send_error_json(409, "job was cancelled while waiting")
        else:
            # Client-side wait timeout: hand back the live job envelope.
            self._send_job(202, payload)


def make_server(host: str = "127.0.0.1", port: int = 8765,
                store: ResultStore | None = None, workers: int = 2,
                queue_depth: int = 16, job_timeout: float = 300.0,
                max_attempts: int = 3,
                injector: Any | None = None) -> ThreadingHTTPServer:
    """Build (but do not start) the threaded HTTP server.

    ``port=0`` binds an ephemeral port (tests); the bound address is on
    ``server.server_address``.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = ExperimentService(  # type: ignore[attr-defined]
        store=store, workers=workers, queue_depth=queue_depth,
        job_timeout=job_timeout, max_attempts=max_attempts, injector=injector)
    return server


def serve_forever(host: str = "127.0.0.1", port: int = 8765,
                  store: ResultStore | None = None, workers: int = 2,
                  queue_depth: int = 16, job_timeout: float = 300.0,
                  max_attempts: int = 3,
                  injector: Any | None = None) -> None:
    """Run the server until interrupted (the ``repro serve`` entry point)."""
    server = make_server(host=host, port=port, store=store, workers=workers,
                         queue_depth=queue_depth, job_timeout=job_timeout,
                         max_attempts=max_attempts, injector=injector)
    bound_host, bound_port = server.server_address[:2]
    backend = server.service.store.stats().get("backend")  # type: ignore[attr-defined]
    print(f"repro serve {__version__} listening on "
          f"http://{bound_host}:{bound_port} (store backend: {backend}, "
          f"workers: {workers}, queue: {queue_depth}, "
          f"job timeout: {job_timeout:g}s)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.service.close()  # type: ignore[attr-defined]
        server.server_close()
