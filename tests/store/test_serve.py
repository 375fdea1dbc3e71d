"""Tests for the ``repro serve`` HTTP front-end: async job submission,
synchronous ``?wait=1`` POSTs, cached envelope GETs, ETag/304 revalidation,
fault-injected degradation, and JSON error mapping."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.scenario import parse_scenario
from repro.faults import FaultInjector, FaultyStore, parse_fault_spec
from repro.store import DiskStore, MemoryStore, scenario_fingerprint
from repro.store.serve import (
    MAX_BODY_BYTES,
    SERVE_SCHEMA,
    ExperimentService,
    envelope_bytes,
    envelope_etag,
    make_server,
)

SCENARIO = {
    "schema": "repro.scenario/v1",
    "name": "serve-test",
    "kind": "trace",
    "models": ["baseline"],
    "workloads": ["505.mcf"],
    "scale": {"branch_count": 600, "warmup_branches": 60, "seed": 7},
}


def _scenario(name, seed, **overrides):
    data = dict(SCENARIO, name=name)
    data["scale"] = dict(SCENARIO["scale"], seed=seed)
    data.update(overrides)
    return data


def _serve(store=None, **kwargs):
    # `is not None`, not `store or ...`: a store passed in is used whatever
    # its truthiness.
    instance = make_server(port=0,
                           store=store if store is not None else MemoryStore(),
                           **kwargs)
    threading.Thread(target=instance.serve_forever, daemon=True).start()
    host, port = instance.server_address[:2]
    return instance, f"http://{host}:{port}"


def _shutdown(instance):
    instance.shutdown()
    instance.server_close()
    instance.service.close()


@pytest.fixture(scope="module")
def server():
    instance, _ = _serve()
    yield instance
    _shutdown(instance)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _request(base_url, method, path, body=None, headers=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base_url + path, data=data, method=method,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _poll_terminal(base_url, fingerprint, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, body = _request(base_url, "GET", f"/v1/jobs/{fingerprint}")
        payload = json.loads(body)
        if payload.get("state") in ("done", "failed", "timeout", "cancelled"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job {fingerprint} never reached a terminal state")


class TestAsyncLifecycle:
    def test_post_is_202_with_job_envelope(self, base_url):
        status, headers, body = _request(
            base_url, "POST", "/v1/experiments", _scenario("async-basic", 100))
        assert status == 202
        job = json.loads(body)
        fingerprint = job["fingerprint"]
        assert headers["Location"] == f"/v1/jobs/{fingerprint}"
        assert headers["X-Repro-Job-State"] == job["state"]
        assert job["schema"] == "repro.job/v1"
        assert job["state"] in ("queued", "running")
        assert job["links"]["result"] == f"/v1/experiments/{fingerprint}"

        final = _poll_terminal(base_url, fingerprint)
        assert final["state"] == "done"
        assert final["progress"] == {"done": 1, "total": 1}

        status, headers, body = _request(
            base_url, "GET", f"/v1/experiments/{fingerprint}")
        assert status == 200
        assert json.loads(body)["result"]["records"]

    def test_second_post_of_done_scenario_is_a_200_hit(self, base_url):
        scenario = _scenario("async-hit", 101)
        _, _, body = _request(base_url, "POST", "/v1/experiments", scenario)
        _poll_terminal(base_url, json.loads(body)["fingerprint"])
        status, headers, _ = _request(
            base_url, "POST", "/v1/experiments", scenario)
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"

    def test_concurrent_posts_single_flight_on_one_fingerprint(self, base_url):
        scenario = _scenario("async-dedup", 102)
        results = []

        def post():
            results.append(_request(
                base_url, "POST", "/v1/experiments", scenario))

        threads = [threading.Thread(target=post) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fingerprints = set()
        for status, headers, body in results:
            assert status in (200, 202)
            payload = json.loads(body)
            fingerprints.add(payload.get("fingerprint")
                             or headers.get("X-Repro-Fingerprint"))
        assert len(fingerprints) == 1
        final = _poll_terminal(base_url, fingerprints.pop())
        assert final["state"] == "done" and final["attempts"] == 1

    def test_sse_events_stream_to_terminal(self, base_url):
        _, _, body = _request(base_url, "POST", "/v1/experiments",
                              _scenario("async-events", 103))
        fingerprint = json.loads(body)["fingerprint"]
        events = []
        with urllib.request.urlopen(
                f"{base_url}/v1/jobs/{fingerprint}/events", timeout=30) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            for line in resp:
                line = line.strip()
                if line.startswith(b"data: "):
                    events.append(json.loads(line[len(b"data: "):]))
        assert events, "stream produced no events"
        assert events[-1]["state"] == "done"
        assert events[-1]["progress"]["done"] == events[-1]["progress"]["total"]

    def test_events_for_unknown_job_is_404_json(self, base_url):
        status, _, body = _request(
            base_url, "GET", "/v1/jobs/" + "0" * 64 + "/events")
        assert status == 404
        assert "error" in json.loads(body)


class TestSyncWait:
    def test_wait_post_matches_old_synchronous_contract(self, base_url):
        scenario = _scenario("sync-contract", 110)
        status, headers, body = _request(
            base_url, "POST", "/v1/experiments?wait=1", scenario)
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        fingerprint = headers["X-Repro-Fingerprint"]
        assert headers["Location"] == f"/v1/experiments/{fingerprint}"
        etag = headers["ETag"]
        envelope = json.loads(body)
        assert envelope["schema"] == "repro.scenario/v1"
        assert envelope["result"]["records"]

        # Second POST: envelope-level cache hit, byte-identical body.
        status, headers2, body2 = _request(
            base_url, "POST", "/v1/experiments?wait=1", scenario)
        assert status == 200
        assert headers2["X-Repro-Cache"] == "hit"
        assert body2 == body and headers2["ETag"] == etag

        # GET by fingerprint: same bytes, same ETag; conditional GET → 304.
        status, headers3, body3 = _request(
            base_url, "GET", f"/v1/experiments/{fingerprint}")
        assert status == 200 and body3 == body and headers3["ETag"] == etag
        status, headers4, body4 = _request(
            base_url, "GET", f"/v1/experiments/{fingerprint}",
            headers={"If-None-Match": etag})
        assert status == 304 and body4 == b""
        assert headers4["ETag"] == etag

        # A stale ETag still gets the full body; W/-weakened revalidates.
        status, _, body5 = _request(
            base_url, "GET", f"/v1/experiments/{fingerprint}",
            headers={"If-None-Match": '"deadbeef"'})
        assert status == 200 and body5 == body
        status, _, body6 = _request(
            base_url, "GET", f"/v1/experiments/{fingerprint}",
            headers={"If-None-Match": f"W/{etag}"})
        assert status == 304 and body6 == b""

    def test_wait_with_short_timeout_returns_202_job(self, base_url):
        status, _, body = _request(
            base_url, "POST", "/v1/experiments?wait=1&timeout=0",
            _scenario("sync-timeout", 111))
        payload = json.loads(body)
        # timeout=0 gives the job no time at all: either it was already done
        # (fast machine) or the client gets the live job envelope back.
        assert status in (200, 202)
        if status == 202:
            assert payload["state"] in ("queued", "running")

    def test_bad_wait_timeout_is_400(self, base_url):
        status, _, body = _request(
            base_url, "POST", "/v1/experiments?wait=1&timeout=soon",
            _scenario("sync-badtimeout", 112))
        assert status == 400
        assert "timeout" in json.loads(body)["error"]

    def test_post_never_returns_304(self, base_url):
        scenario = _scenario("sync-no304", 113)
        status, headers, _ = _request(
            base_url, "POST", "/v1/experiments?wait=1", scenario)
        etag = headers["ETag"]
        status, headers, body = _request(
            base_url, "POST", "/v1/experiments?wait=1", scenario,
            headers={"If-None-Match": etag})
        # RFC 9110: 304 is defined for conditional GET/HEAD only.
        assert status == 200
        assert body and headers["X-Repro-Fingerprint"]


class TestEndpoints:
    def test_info_and_health(self, base_url):
        status, _, body = _request(base_url, "GET", "/")
        info = json.loads(body)
        assert status == 200
        assert info["schema"] == SERVE_SCHEMA == "repro.serve/v3"
        assert "POST /v1/experiments" in info["endpoints"]
        assert "DELETE /v1/jobs/<fingerprint>" in info["endpoints"]
        assert "GET /v1/metrics" in info["endpoints"]
        assert "GET /v1/jobs/<fingerprint>/trace" in info["endpoints"]
        assert info["config"]["queue_depth"] >= 1
        status, _, body = _request(base_url, "GET", "/healthz")
        health = json.loads(body)
        assert status == 200 and health["status"] == "ok"
        assert health["workers"]["alive"] >= 1
        assert health["queue"]["capacity"] >= 1
        # v3: store occupancy rides along in the liveness payload.
        assert health["store"]["entries"] >= 0
        assert health["store"]["bytes"] >= 0

    def test_unknown_fingerprint_is_404(self, base_url):
        status, _, body = _request(
            base_url, "GET", "/v1/experiments/" + "0" * 64)
        assert status == 404
        assert "no cached envelope" in json.loads(body)["error"]

    def test_unknown_job_is_404(self, base_url):
        status, _, body = _request(base_url, "GET", "/v1/jobs/" + "1" * 64)
        assert status == 404
        assert "unknown job" in json.loads(body)["error"]

    def test_restarted_server_forgets_jobs_but_serves_envelopes(
            self, tmp_path):
        # Job state lives only in the serving process: a new server over
        # the same store directory does not know the old server's job, but
        # the envelope it stored still serves.
        scenario = _scenario("restart", 170)
        first, url = _serve(store=DiskStore(str(tmp_path)))
        try:
            status, headers, body = _request(
                url, "POST", "/v1/experiments?wait=1", scenario)
            assert status == 200
            fingerprint = headers["X-Repro-Fingerprint"]
        finally:
            _shutdown(first)
        second, url = _serve(store=DiskStore(str(tmp_path)))
        try:
            for path in (f"/v1/jobs/{fingerprint}",
                         f"/v1/jobs/{fingerprint}/events"):
                status, _, raw = _request(url, "GET", path)
                assert status == 404
                assert "unknown job" in json.loads(raw)["error"]
            status, _, raw = _request(
                url, "GET", f"/v1/experiments/{fingerprint}")
            assert status == 200 and raw == body
        finally:
            _shutdown(second)

    def test_invalid_fingerprint_is_400(self, base_url):
        for path in ("/v1/experiments/not-hex!", "/v1/jobs/not-hex!",
                     "/v1/jobs/not-hex!/events"):
            status, _, body = _request(base_url, "GET", path)
            assert status == 400
            assert "error" in json.loads(body)

    def test_invalid_scenario_is_400(self, base_url):
        status, _, body = _request(base_url, "POST", "/v1/experiments",
                                   {"kind": "nope"})
        assert status == 400
        assert "invalid scenario" in json.loads(body)["error"]

    @pytest.mark.parametrize("scale", [
        {"branch_count": 2000, "warmup_branches": -5},
        {"branch_count": "2000"},
        {"branch_count": 0},
    ])
    def test_out_of_range_scale_is_400(self, base_url, scale):
        status, _, body = _request(base_url, "POST", "/v1/experiments",
                                   dict(SCENARIO, kind="smt", scale=scale,
                                        workloads=[["505.mcf", "541.leela"]]))
        assert status == 400
        assert "invalid scenario: scale" in json.loads(body)["error"]

    def test_non_json_body_is_400(self, base_url):
        request = urllib.request.Request(
            base_url + "/v1/experiments", data=b"{broken", method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_oversized_body_is_413(self, server):
        # The declared body is never read: the server must refuse up front
        # rather than allocate MAX_BODY_BYTES+ of attacker-chosen bytes.
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", "/v1/experiments")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert "exceeds" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_unknown_paths_are_404(self, base_url):
        assert _request(base_url, "GET", "/nope")[0] == 404
        assert _request(base_url, "POST", "/v1/nope")[0] == 404
        assert _request(base_url, "DELETE", "/v1/nope")[0] == 404

    def test_store_failure_on_get_is_a_500(self):
        # A read-only mount / disk-full store must map to a JSON 500 on GET
        # paths too (do_POST already had the catch-all), not a dropped
        # connection with no status line.
        class BrokenStore(MemoryStore):
            def get(self, namespace, fingerprint):
                raise RuntimeError("store root unreadable")

        instance, url = _serve(store=BrokenStore())
        try:
            status, _, body = _request(
                url, "GET", "/v1/experiments/" + "0" * 64)
            assert status == 500
            assert "internal error" in json.loads(body)["error"]
        finally:
            _shutdown(instance)

    def test_store_stats_endpoint(self, base_url):
        status, _, body = _request(base_url, "GET", "/v1/store/stats")
        stats = json.loads(body)
        assert status == 200
        assert stats["backend"] == "memory"
        assert stats["entries"] >= 1

    def test_every_http_error_carries_a_json_body(self, base_url):
        # The ISSUE's contract: no error path may answer with a bare body.
        cases = [
            ("GET", "/nope", None),                            # 404 route
            ("GET", "/v1/experiments/zz!", None),              # 400 key
            ("GET", "/v1/experiments/" + "2" * 64, None),      # 404 envelope
            ("GET", "/v1/jobs/" + "2" * 64, None),             # 404 job
            ("DELETE", "/v1/jobs/" + "2" * 64, None),          # 404 cancel
            ("POST", "/v1/experiments", {"kind": "nope"}),     # 400 scenario
        ]
        for method, path, body in cases:
            status, headers, raw = _request(base_url, method, path, body)
            assert status >= 400, (method, path)
            assert headers["Content-Type"] == "application/json"
            payload = json.loads(raw)
            assert payload["schema"] == SERVE_SCHEMA
            assert payload["error"], (method, path)


class TestObservability:
    def test_metrics_endpoint_exposes_all_tiers(self, base_url):
        # Drive one scenario end to end so every tier has something to
        # report, then scrape.
        _request(base_url, "POST", "/v1/experiments?wait=1",
                 _scenario("obs-metrics", 160))
        status, headers, body = _request(base_url, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        text = body.decode("utf-8")
        # One registry, all tiers: store, job tier, engine, HTTP, plus the
        # scrape-time gauges.
        for series in ("repro_store_writes_total", "repro_store_entries",
                       "repro_store_op_seconds_bucket",
                       "repro_jobs_submitted_total", "repro_jobs_queue_depth",
                       "repro_engine_jobs_executed_total",
                       "repro_http_requests_total"):
            assert series in text, f"{series} missing from /v1/metrics"
        assert "# HELP repro_jobs_submitted_total" in text
        assert "# TYPE repro_store_op_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_metrics_endpoint_counts_replay_declines(self, base_url,
                                                     monkeypatch):
        # Every shipped model has a vector kernel that accepts SMT co-runs,
        # so the declined path is pinned with a kernel-less model: a 3-bit
        # counter SKL composite (the SKL engine builder only handles the
        # 2-bit transition tables).  The reference loop replays it and the
        # decline counts.
        from repro.bpu.common import StructureSizes
        from repro.bpu.composite import make_skl_composite
        from repro.engine import registry

        monkeypatch.setitem(
            registry._MODELS, "ThreeBitCond",
            lambda seed=0: make_skl_composite(
                sizes=StructureSizes(pht_counter_bits=3), name="ThreeBitCond"))
        status, _, _ = _request(
            base_url, "POST", "/v1/experiments?wait=1",
            _scenario("obs-declines", 162, kind="smt",
                      models=["ThreeBitCond", "ST_SKLCond"],
                      workloads=["505.mcf+541.leela"]))
        assert status == 200
        text = _request(base_url, "GET", "/v1/metrics")[2].decode("utf-8")
        assert "# HELP repro_replay_declines_total" in text
        assert ('repro_replay_declines_total{kind="smt",model="ThreeBitCond"}'
                in text)
        assert 'repro_replay_declines_total{kind="smt",model="ST_' not in text

    def test_trace_endpoint_returns_span_tree(self, base_url):
        status, _, body = _request(base_url, "POST", "/v1/experiments?wait=1",
                                   _scenario("obs-trace", 161))
        assert status == 200
        fingerprint = scenario_fingerprint(
            parse_scenario(_scenario("obs-trace", 161)))
        status, _, body = _request(
            base_url, "GET", f"/v1/jobs/{fingerprint}/trace")
        assert status == 200
        trace = json.loads(body)
        assert trace["schema"] == "repro.obstrace/v1"
        assert trace["fingerprint"] == fingerprint
        root = trace["root"]
        assert root["name"] == "scenario"
        phases = [child["name"] for child in root["children"]]
        assert phases == ["partition", "dispatch", "execute", "merge"]
        merge = root["children"][-1]
        jobs = [child for child in merge["children"]
                if child["name"] == "job"]
        assert len(jobs) == 1
        assert jobs[0]["attrs"]["model"] == "baseline"
        # Every span carries its deterministic identity.
        assert all(len(node["id"]) == 16
                   for node in [root] + root["children"])

    def test_trace_for_unknown_job_is_404(self, base_url):
        status, _, body = _request(
            base_url, "GET", "/v1/jobs/" + "3" * 64 + "/trace")
        assert status == 404
        assert "no trace" in json.loads(body)["error"]

    def test_sse_client_disconnect_releases_handler(self):
        # A client that walks away mid-stream must not park the handler
        # thread until the job ends: the heartbeat write hits the dead
        # socket within ~1s and the handler exits.
        import http.client

        injector = FaultInjector(parse_fault_spec("hang=wedge,hang_seconds=60"))
        instance, url = _serve(workers=1, job_timeout=60, injector=injector)
        try:
            _, _, body = _request(url, "POST", "/v1/experiments",
                                  _scenario("wedge-sse", 162))
            fingerprint = json.loads(body)["fingerprint"]
            baseline = threading.active_count()
            host, port = instance.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=30)
            connection.request("GET", f"/v1/jobs/{fingerprint}/events")
            response = connection.getresponse()
            assert response.status == 200
            assert response.readline()  # the stream is live
            # Hang up mid-stream; the job itself stays wedged for 60s.
            connection.close()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if threading.active_count() <= baseline:
                    break
                time.sleep(0.05)
            assert threading.active_count() <= baseline, \
                "SSE handler thread leaked after client disconnect"
            # The server is still fully alive behind the wedged job.
            status, _, body = _request(url, "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["workers"]["alive"] >= 1
        finally:
            _shutdown(instance)


class TestSupervision:
    def test_queue_full_is_429_with_retry_after(self):
        injector = FaultInjector(parse_fault_spec("hang=wedge,hang_seconds=60"))
        instance, url = _serve(workers=1, queue_depth=1, job_timeout=60,
                               injector=injector)
        try:
            # Wedge the only worker, fill the depth-1 queue, then overflow.
            _request(url, "POST", "/v1/experiments", _scenario("wedge-a", 120))
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                _, _, body = _request(url, "GET", "/healthz")
                if json.loads(body)["workers"]["busy"] >= 1:
                    break
                time.sleep(0.02)
            _request(url, "POST", "/v1/experiments", _scenario("queued-b", 121))
            status, headers, body = _request(
                url, "POST", "/v1/experiments", _scenario("rejected-c", 122))
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "full" in json.loads(body)["error"]
        finally:
            _shutdown(instance)

    def test_hung_job_times_out_without_blocking_others(self):
        injector = FaultInjector(parse_fault_spec("hang=wedge,hang_seconds=60"))
        instance, url = _serve(workers=2, job_timeout=0.5, injector=injector)
        instance.service.manager.tick = 0.02
        try:
            _, _, body = _request(url, "POST", "/v1/experiments",
                                  _scenario("wedge-hung", 130))
            hung_fp = json.loads(body)["fingerprint"]
            start = time.monotonic()
            _, _, body = _request(url, "POST", "/v1/experiments",
                                  _scenario("free-lane", 131))
            other_fp = json.loads(body)["fingerprint"]
            other = _poll_terminal(url, other_fp, timeout=20)
            elapsed = time.monotonic() - start
            assert other["state"] == "done"
            hung = _poll_terminal(url, hung_fp, timeout=20)
            assert hung["state"] == "timeout"
            assert "deadline" in hung["error"]
            # The free job finished while the wedged one was still hanging
            # (or at worst just after its 0.5s deadline) — no global lock.
            assert elapsed < 5.0
            # Supervision replaced/reclaimed workers: the pool still serves.
            follow_up = _poll_terminal(
                url, json.loads(_request(
                    url, "POST", "/v1/experiments",
                    _scenario("after-timeout", 132))[2])["fingerprint"],
                timeout=20)
            assert follow_up["state"] == "done"
        finally:
            _shutdown(instance)

    def test_wait_post_on_hung_job_is_504_json(self):
        injector = FaultInjector(parse_fault_spec("hang=wedge,hang_seconds=60"))
        instance, url = _serve(workers=1, job_timeout=0.3, injector=injector)
        instance.service.manager.tick = 0.02
        try:
            status, _, body = _request(
                url, "POST", "/v1/experiments?wait=1",
                _scenario("wedge-wait", 133))
            assert status == 504
            payload = json.loads(body)
            assert payload["schema"] == SERVE_SCHEMA
            assert "deadline" in payload["error"]
        finally:
            _shutdown(instance)

    def test_cancel_queued_job_and_cancel_races(self):
        injector = FaultInjector(parse_fault_spec("hang=wedge,hang_seconds=60"))
        instance, url = _serve(workers=1, queue_depth=8, job_timeout=60,
                               injector=injector)
        try:
            _request(url, "POST", "/v1/experiments", _scenario("wedge-d", 140))
            _, _, body = _request(url, "POST", "/v1/experiments",
                                  _scenario("victim", 141))
            victim = json.loads(body)["fingerprint"]
            status, _, body = _request(url, "DELETE", f"/v1/jobs/{victim}")
            assert status == 200
            assert json.loads(body)["state"] == "cancelled"
            # Cancelling again races a terminal job: 409 with a JSON body.
            status, _, body = _request(url, "DELETE", f"/v1/jobs/{victim}")
            assert status == 409
            assert "cancelled" in json.loads(body)["error"]
            # A cancelled job never runs.
            payload = json.loads(
                _request(url, "GET", f"/v1/jobs/{victim}")[2])
            assert payload["state"] == "cancelled" and payload["attempts"] == 0
        finally:
            _shutdown(instance)

    def test_cancel_running_job_is_409(self):
        injector = FaultInjector(parse_fault_spec("hang=wedge,hang_seconds=60"))
        instance, url = _serve(workers=1, job_timeout=60, injector=injector)
        try:
            _, _, body = _request(url, "POST", "/v1/experiments",
                                  _scenario("wedge-running", 142))
            fingerprint = json.loads(body)["fingerprint"]
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                payload = json.loads(
                    _request(url, "GET", f"/v1/jobs/{fingerprint}")[2])
                if payload["state"] == "running":
                    break
                time.sleep(0.02)
            status, _, body = _request(
                url, "DELETE", f"/v1/jobs/{fingerprint}")
            assert status == 409
            assert "running" in json.loads(body)["error"]
        finally:
            _shutdown(instance)

    def test_healthz_degrades_to_503_when_pool_is_dead(self):
        instance, url = _serve(workers=1)
        service = instance.service
        try:
            # Simulate a dead pool: retire every worker handle.
            with service.manager._lock:
                for handle in service.manager._handles:
                    handle.retired = True
            status, _, body = _request(url, "GET", "/healthz")
            payload = json.loads(body)
            assert status == 503
            assert payload["status"] == "degraded"
            assert payload["workers"]["alive"] == 0
        finally:
            _shutdown(instance)


class TestUnderFaults:
    def test_faulty_store_degrades_to_2xx_and_identical_bytes(self):
        # Nonzero error/latency/corruption on every store round-trip: the
        # serving tier must still answer 2xx with an envelope byte-identical
        # to a fault-free run (the engine is deterministic; faults only cost
        # recomputes).
        scenario = _scenario("chaos", 150)
        clean_instance, clean_url = _serve()
        try:
            _, _, clean_body = _request(
                clean_url, "POST", "/v1/experiments?wait=1", scenario)
        finally:
            _shutdown(clean_instance)

        plan = parse_fault_spec(
            "error=0.25,latency=0.25,latency_seconds=0.002,corrupt=0.25,seed=9")
        store = FaultyStore(MemoryStore(), plan)
        instance, url = _serve(store=store, injector=store.injector,
                               job_timeout=60)
        try:
            for attempt in range(10):
                status, _, body = _request(
                    url, "POST", "/v1/experiments?wait=1", scenario)
                assert status == 200, body
                assert body == clean_body
            counters = store.injector.counters()
            assert counters["injected_errors"] + counters["injected_latency"] \
                + counters["injected_corruption"] > 0, \
                "fault plan injected nothing; the test proves nothing"
        finally:
            _shutdown(instance)

    def test_corrupt_envelope_read_recomputes(self):
        # Deterministic corruption of exactly the envelope read: the POST
        # must treat it as a miss and recompute, not serve garbage.
        scenario = _scenario("corrupt-read", 151)
        store = MemoryStore()
        instance, url = _serve(store=store)
        try:
            status, _, body = _request(
                url, "POST", "/v1/experiments?wait=1", scenario)
            assert status == 200
            fingerprint = scenario_fingerprint(parse_scenario(scenario))
            store.put("envelope", fingerprint,
                      {"schema": "repro.fault/corrupt", "injected": True})
            status, headers, body2 = _request(
                url, "POST", "/v1/experiments?wait=1", scenario)
            assert status == 200
            assert body2 == body
        finally:
            _shutdown(instance)


class TestService:
    def test_submit_reuses_job_records_across_scenarios(self):
        # Two scenarios sharing cells: the second runs only its new cells.
        service = ExperimentService(store=MemoryStore(), tick=0.02)
        try:
            scenario, fingerprint = service.prepare(SCENARIO)
            service.manager.submit(scenario, fingerprint)
            assert service.manager.wait(fingerprint, timeout=30)["state"] == "done"
            wider = dict(SCENARIO, name="serve-test-wider",
                         models=["baseline", "ST_SKLCond"])
            scenario2, fingerprint2 = service.prepare(wider)
            service.manager.submit(scenario2, fingerprint2)
            assert service.manager.wait(fingerprint2, timeout=30)["state"] == "done"
            envelope = service.cached_envelope(fingerprint2)
            assert len(envelope["result"]["records"]) == 2
            # The baseline cell was merged from the job-record cache.
            assert service.store.counters.hits >= 1
        finally:
            service.close()

    def test_fingerprint_matches_keys_module(self):
        service = ExperimentService(store=MemoryStore())
        try:
            _, fingerprint = service.prepare(SCENARIO)
            assert fingerprint == scenario_fingerprint(parse_scenario(SCENARIO))
        finally:
            service.close()

    def test_etag_is_stable_for_equal_envelopes(self):
        envelope = {"schema": "repro.scenario/v1", "spec": "scenario",
                    "result": {"records": []}}
        assert envelope_etag(envelope_bytes(envelope)) == \
            envelope_etag(envelope_bytes(json.loads(json.dumps(envelope))))

    def test_envelope_write_failure_still_serves_the_result(self):
        # Disk-full on the envelope put must degrade to serving the job
        # manager's in-memory copy, not discard a computed scenario.
        class WriteFailingStore(MemoryStore):
            def put(self, namespace, fingerprint, payload):
                if namespace == "envelope":
                    raise OSError("disk full")
                super().put(namespace, fingerprint, payload)

        service = ExperimentService(store=WriteFailingStore(), tick=0.02)
        try:
            scenario, fingerprint = service.prepare(
                dict(SCENARIO, name="degraded-write"))
            service.manager.submit(scenario, fingerprint)
            assert service.manager.wait(fingerprint, timeout=30)["state"] == "done"
            envelope = service.cached_envelope(fingerprint)
            assert envelope is not None and envelope["result"]["records"]
            assert service.store.get("envelope", fingerprint) is None
        finally:
            service.close()

    def test_invalid_workers_fail_at_construction(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentService(store=MemoryStore(), workers=0)


class TestKeepAlive:
    def test_post_error_paths_drain_the_body(self, base_url, server):
        # With HTTP/1.1 keep-alive, an error reply that leaves the POST body
        # unread would desync the connection: the next request on it would be
        # parsed starting at the stale body bytes.
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            body = json.dumps({"x": 1})
            connection.request("POST", "/nope", body=body,
                               headers={"Content-Type": "application/json"})
            assert connection.getresponse().read() is not None
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()
