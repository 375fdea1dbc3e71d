"""A thin stdlib client for the ``repro serve`` HTTP API.

Mirrors the service/client split of heavyweight-pipeline REST services: the
server owns execution, the client owns patience.  :class:`ReproClient`
submits scenarios (sync or async), polls job state with backoff, streams
SSE progress, and retries transient transport failures (connection refused,
5xx, 429-with-``Retry-After``) a bounded number of times.

POST retries are safe by construction: ``/v1/experiments`` is
content-addressed and single-flight, so re-submitting a scenario never
duplicates work.

Quickstart::

    from repro.client import ReproClient
    client = ReproClient("http://127.0.0.1:8765")
    submitted = client.submit(scenario_data)         # 202 + job handle
    job = client.wait(submitted.fingerprint)          # poll to terminal
    envelope, etag = client.result(submitted.fingerprint)
"""

from __future__ import annotations

import json
import logging
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Iterator

from repro.store.jobs import TERMINAL_STATES

logger = logging.getLogger(__name__)

#: HTTP statuses worth retrying: the request may succeed once the
#: transient condition (a full queue, a store fault) clears.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class ServeError(RuntimeError):
    """A non-2xx response that survived the client's retry budget."""

    def __init__(self, status: int, message: str,
                 payload: dict[str, Any] | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


@dataclass(slots=True)
class Submitted:
    """Outcome of one submit: either an envelope (hit / sync) or a job."""

    fingerprint: str
    envelope: dict[str, Any] | None
    job: dict[str, Any] | None
    cache: str | None
    etag: str | None

    @property
    def completed(self) -> bool:
        return self.envelope is not None


class ReproClient:
    """Blocking client with bounded retry/backoff around ``repro serve``."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 3, backoff: float = 0.2,
                 poll_interval: float = 0.2):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.poll_interval = poll_interval

    # ------------------------------------------------------------ transport

    def _request(self, method: str, path: str, body: bytes | None = None,
                 headers: dict[str, str] | None = None,
                 retry: bool = True) -> tuple[int, dict[str, str], Any]:
        """One logical request: returns ``(status, headers, json payload)``.

        Transport errors and retryable statuses are retried with linear
        backoff (honouring ``Retry-After`` when the server sent one) up to
        the retry budget; whatever happens last is raised or returned.
        """
        attempts = (self.retries if retry else 0) + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._delay(attempt, last_error))
            request = urllib.request.Request(
                self.base_url + path, data=body, method=method,
                headers={"Content-Type": "application/json",
                         **(headers or {})})
            try:
                with urllib.request.urlopen(request,
                                            timeout=self.timeout) as response:
                    return (response.status, dict(response.headers),
                            self._decode(response.read()))
            except urllib.error.HTTPError as error:
                payload = self._decode(error.read())
                if error.code in RETRYABLE_STATUSES and attempt < attempts - 1:
                    last_error = error
                    logger.debug("retrying %s %s after HTTP %s",
                                 method, path, error.code)
                    continue
                message = (payload or {}).get("error", error.reason) \
                    if isinstance(payload, dict) else str(error.reason)
                raise ServeError(error.code, str(message),
                                 payload if isinstance(payload, dict)
                                 else None) from error
            except urllib.error.URLError as error:
                if attempt < attempts - 1:
                    last_error = error
                    logger.debug("retrying %s %s after %s", method, path, error)
                    continue
                raise ServeError(0, f"transport failure: {error.reason}") \
                    from error
        raise AssertionError("unreachable")  # pragma: no cover

    def _delay(self, attempt: int, last_error: Exception | None) -> float:
        if isinstance(last_error, urllib.error.HTTPError):
            retry_after = last_error.headers.get("Retry-After")
            if retry_after:
                try:
                    return max(float(retry_after), self.backoff)
                except ValueError:
                    pass
        return self.backoff * attempt

    @staticmethod
    def _decode(raw: bytes) -> Any:
        if not raw:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None

    # ------------------------------------------------------------- API calls

    def submit(self, scenario_data: dict[str, Any], wait: bool = False,
               timeout: float | None = None) -> Submitted:
        """POST a scenario.  Async by default (202 + job handle); ``wait``
        blocks server-side until the job is terminal."""
        path = "/v1/experiments"
        if wait:
            path += "?wait=1"
            if timeout is not None:
                path += f"&timeout={timeout:g}"
        body = json.dumps(scenario_data).encode("utf-8")
        status, headers, payload = self._request("POST", path, body=body)
        fingerprint = headers.get("X-Repro-Fingerprint", "")
        if status == 202:
            return Submitted(fingerprint=payload.get("fingerprint", fingerprint),
                             envelope=None, job=payload,
                             cache=None, etag=None)
        return Submitted(fingerprint=fingerprint, envelope=payload, job=None,
                         cache=headers.get("X-Repro-Cache"),
                         etag=headers.get("ETag"))

    def job(self, fingerprint: str) -> dict[str, Any]:
        """GET the job's current state."""
        _status, _headers, payload = self._request(
            "GET", f"/v1/jobs/{fingerprint}")
        return payload

    def wait(self, fingerprint: str,
             timeout: float | None = None) -> dict[str, Any]:
        """Poll the job until it is terminal (client-side, with backoff).

        Raises :class:`TimeoutError` if ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        interval = self.poll_interval
        while True:
            payload = self.job(fingerprint)
            if payload.get("state") in TERMINAL_STATES:
                return payload
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {fingerprint[:16]} still {payload.get('state')!r} "
                    f"after {timeout:g}s")
            time.sleep(interval)
            interval = min(interval * 1.5, 2.0)

    def cancel(self, fingerprint: str) -> dict[str, Any]:
        """DELETE (cancel) a queued job."""
        _status, _headers, payload = self._request(
            "DELETE", f"/v1/jobs/{fingerprint}", retry=False)
        return payload

    def result(self, fingerprint: str,
               etag: str | None = None) -> tuple[dict[str, Any] | None, str | None]:
        """GET the cached envelope; ``(None, etag)`` on a 304 revalidation."""
        headers = {"If-None-Match": etag} if etag else None
        try:
            _status, response_headers, payload = self._request(
                "GET", f"/v1/experiments/{fingerprint}", headers=headers)
        except ServeError as error:
            if error.status == 304:
                return None, etag
            raise
        return payload, response_headers.get("ETag")

    def stream(self, fingerprint: str) -> Iterator[dict[str, Any]]:
        """Iterate the job's SSE progress events until it is terminal."""
        request = urllib.request.Request(
            f"{self.base_url}/v1/jobs/{fingerprint}/events")
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            for line in response:
                line = line.strip()
                if line.startswith(b"data: "):
                    yield json.loads(line[len(b"data: "):].decode("utf-8"))

    def trace(self, fingerprint: str) -> dict[str, Any]:
        """GET the completed job's span tree (``repro.obstrace/v1``)."""
        _status, _headers, payload = self._request(
            "GET", f"/v1/jobs/{fingerprint}/trace")
        return payload

    def metrics(self) -> str:
        """GET ``/v1/metrics`` as raw Prometheus text (not JSON)."""
        request = urllib.request.Request(self.base_url + "/v1/metrics")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServeError(error.code, str(error.reason)) from error
        except urllib.error.URLError as error:
            raise ServeError(0, f"transport failure: {error.reason}") \
                from error

    def health(self) -> dict[str, Any]:
        """GET ``/healthz`` (no retry — a probe should see degradation)."""
        try:
            _status, _headers, payload = self._request(
                "GET", "/healthz", retry=False)
        except ServeError as error:
            if error.payload:
                return error.payload
            raise
        return payload

    def info(self) -> dict[str, Any]:
        _status, _headers, payload = self._request("GET", "/")
        return payload
