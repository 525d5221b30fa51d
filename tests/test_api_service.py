"""HTTP query-service tests: routing, ETag/304, concurrency, live view."""

import http.client
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    LIVE_INFLUENCE_REF,
    Study,
    StudyService,
    experiments_payload,
    influence_payload,
    payload_key,
)
from repro.claims import BENCH_FILE, EXPERIMENTS
from repro.config import HAWKES_PROCESSES, HawkesConfig
from repro.live import LiveEngine


@pytest.fixture(scope="module")
def service(collected):
    study = Study.from_data(
        collected, hawkes=HawkesConfig(gibbs_iterations=20, gibbs_burn_in=6),
        fit_seed=0, max_urls=12)
    service = StudyService(study, port=0)  # ephemeral port
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    yield service
    service.shutdown()
    service.close()
    thread.join(timeout=5)


def _get(service, path, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestRoutes:
    def test_healthz(self, service):
        status, headers, body = _get(service, "/healthz")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["version"]

    def test_experiments_shares_cli_serializer(self, service):
        status, _, body = _get(service, "/experiments")
        assert status == 200
        assert json.loads(body) == json.loads(
            json.dumps(experiments_payload()))

    def test_experiments_list_registry_claims(self, service):
        _, _, body = _get(service, "/experiments")
        entries = json.loads(body)["experiments"]
        assert [e["id"] for e in entries] == [e.exp_id for e in EXPERIMENTS]
        for entry, experiment in zip(entries, EXPERIMENTS):
            assert entry["shape_checks"] == [c.text
                                             for c in experiment.claims]
            assert entry["bench"] == BENCH_FILE

    def test_stages_lists_keys(self, service):
        status, _, body = _get(service, "/stages")
        assert status == 200
        payload = json.loads(body)
        keys = payload["stages"]
        assert "fits" in keys and "table:11" in keys
        store = payload["store"]
        assert {"hits", "misses", "hit_ratio"} <= set(store)

    def test_table_ok(self, service):
        status, headers, body = _get(service, "/tables/2")
        assert status == 200
        payload = json.loads(body)
        assert payload["table"] == 2
        assert payload["columns"][0] == "Community"
        assert payload["rows"]
        assert "ETag" in headers

    def test_unknown_routes_404(self, service):
        for path in ("/tables/12", "/tables/0", "/tables/abc", "/nope"):
            status, _, body = _get(service, path)
            assert status == 404, path
            assert "error" in json.loads(body)

    def test_bad_influence_params_400(self, service):
        for query in ("category=weird", "source=NotAProcess", "view=wat"):
            status, _, _ = _get(service, f"/influence?{query}")
            assert status == 400, query


class TestETag:
    def test_repeated_requests_byte_identical(self, service):
        first = _get(service, "/tables/4")
        second = _get(service, "/tables/4")
        assert first[2] == second[2]
        assert first[1]["ETag"] == second[1]["ETag"]

    def test_if_none_match_gets_304(self, service):
        _, headers, _ = _get(service, "/tables/4")
        etag = headers["ETag"]
        status, headers304, body = _get(service, "/tables/4",
                                        {"If-None-Match": etag})
        assert status == 304
        assert body == b""
        assert headers304["ETag"] == etag

    def test_star_and_weak_matchers(self, service):
        _, headers, _ = _get(service, "/tables/4")
        etag = headers["ETag"]
        assert _get(service, "/tables/4",
                    {"If-None-Match": "*"})[0] == 304
        assert _get(service, "/tables/4",
                    {"If-None-Match": f"W/{etag}"})[0] == 304

    def test_stale_etag_gets_fresh_body(self, service):
        status, _, body = _get(service, "/tables/4",
                               {"If-None-Match": '"stale"'})
        assert status == 200
        assert body

    def test_etag_matches_stage_key(self, service):
        _, headers, _ = _get(service, "/tables/4")
        assert headers["ETag"] == service.study.etag("table:4")


class TestInfluence:
    def test_full_payload(self, service):
        status, headers, body = _get(service, "/influence")
        assert status == 200
        payload = json.loads(body)
        assert payload["processes"] == list(HAWKES_PROCESSES)
        assert payload["view"] == "batch"
        assert set(payload["categories"]) == {"alternative", "mainstream"}

    def test_filtered_cells(self, service):
        status, _, body = _get(
            service,
            "/influence?category=alternative&source=Twitter")
        assert status == 200
        payload = json.loads(body)
        assert payload["view"] == "batch"  # view survives filtering
        assert payload["cells"]
        assert all(cell["source"] == "Twitter"
                   and cell["category"] == "alternative"
                   for cell in payload["cells"])
        assert len(payload["cells"]) == len(HAWKES_PROCESSES)

    def test_conditional_influence(self, service):
        _, headers, _ = _get(service, "/influence?category=mainstream")
        status, _, _ = _get(service, "/influence?category=mainstream",
                            {"If-None-Match": headers["ETag"]})
        assert status == 304

    def test_live_view_404_until_published(self, service):
        status, _, body = _get(service, "/influence?view=live")
        assert status == 404
        assert "live" in json.loads(body)["error"]

    def test_live_view_serves_published_refit(self, service):
        # Publish the way the live engine does, into the same store.
        engine = LiveEngine(publish_store=service.study.store)
        result = service.study.influence()
        key = engine.publish_influence(result)
        assert key == payload_key(influence_payload(result))
        assert service.study.store.get_ref(LIVE_INFLUENCE_REF) == key

        status, headers, body = _get(service, "/influence?view=live")
        assert status == 200
        payload = json.loads(body)
        assert payload["view"] == "live"
        assert payload["processes"] == list(HAWKES_PROCESSES)
        status304, _, _ = _get(service, "/influence?view=live",
                               {"If-None-Match": headers["ETag"]})
        assert status304 == 304

    def test_publish_without_store_is_noop(self, service):
        engine = LiveEngine()
        assert engine.publish_influence(service.study.influence()) is None


class TestConcurrency:
    def test_concurrent_gets_identical(self, service):
        def fetch(_):
            return _get(service, "/tables/2")

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fetch, range(16)))
        bodies = {body for _, _, body in results}
        assert len(bodies) == 1
        assert all(status == 200 for status, _, _ in results)

    def test_concurrent_mixed_routes(self, service):
        paths = ["/healthz", "/tables/2", "/tables/9", "/experiments",
                 "/influence?category=alternative"] * 4

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda p: _get(service, p), paths))
        assert all(status == 200 for status, _, _ in results)


#: ``Server`` value of every response: the handler's name and Python's.
SERVER = f"repro-serve Python/{sys.version.split()[0]}"
JSON = "application/json; charset=utf-8"


class TestKeepAlive:
    def test_one_connection_carries_every_kind(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            conn.request("GET", "/tables/3")
            response = conn.getresponse()
            body = response.read()
            sock = conn.sock
            assert response.status == 200 and json.loads(body)["table"] == 3
            etag = response.getheader("ETag")

            conn.request("GET", "/tables/3", headers={"If-None-Match": etag})
            response = conn.getresponse()
            assert (response.status, response.read()) == (304, b"")
            assert conn.sock is sock

            conn.request("HEAD", "/tables/3")
            response = conn.getresponse()
            assert response.status == 200 and response.read() == b""
            assert response.getheader("Content-Length") == str(len(body))
            assert response.getheader("ETag") == etag
            assert conn.sock is sock

            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            assert "error" in json.loads(response.read())
            assert conn.sock is sock

            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert b"repro_http_requests_total{" in response.read()
            assert conn.sock is sock
            assert not response.will_close
        finally:
            conn.close()


class TestResponseHead:
    """Header names, order and values (all but ``Date``) of each kind."""

    @staticmethod
    def _head(port, path, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            body = response.read()
            fields = response.getheaders()
        finally:
            conn.close()
        assert [name for name, _ in fields].count("Date") == 1
        assert fields[1][0] == "Date"
        return (response.version, response.status, response.reason,
                [(name, value) for name, value in fields if name != "Date"],
                body)

    def test_200_304_404(self, service):
        etag = service.study.etag("table:5")
        version, status, reason, fields, body = self._head(
            service.port, "/tables/5")
        assert (version, status, reason) == (11, 200, "OK")
        assert fields == [("Server", SERVER), ("ETag", etag),
                          ("Cache-Control", "no-cache"),
                          ("Content-Type", JSON),
                          ("Content-Length", str(len(body)))]

        _, status, reason, fields, body = self._head(
            service.port, "/tables/5", {"If-None-Match": etag})
        assert (status, reason, body) == (304, "Not Modified", b"")
        assert fields == [("Server", SERVER), ("ETag", etag),
                          ("Cache-Control", "no-cache")]

        _, status, reason, fields, body = self._head(service.port, "/nope")
        assert (status, reason) == (404, "Not Found")
        assert fields == [("Server", SERVER),
                          ("Content-Type", JSON),
                          ("Content-Length", str(len(body)))]

    def test_stale_warning(self, fresh_service, monkeypatch):
        service = fresh_service
        good = self._head(service.port, "/tables/2")
        stale_etag = service.study.etag("table:2")
        monkeypatch.setattr(service.study, "etag",
                            lambda name: '"forced-fresh"')
        monkeypatch.setattr(
            service.study, "table",
            lambda table_id: (_ for _ in ()).throw(
                RuntimeError("rebuild failed")))
        _, status, _, fields, body = self._head(service.port, "/tables/2")
        assert status == 200 and body == good[4]
        assert fields == [("Server", SERVER), ("ETag", stale_etag),
                          ("Cache-Control", "no-cache"),
                          ("Warning", '110 repro-serve "Response is Stale"'),
                          ("Content-Type", JSON),
                          ("Content-Length", str(len(body)))]


class TestDrain:
    def test_keep_alive_connection_is_told_to_close(self, fresh_service):
        service = fresh_service
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") is None
            assert not response.will_close

            assert service.drain(timeout=5.0) is True
            # The connection opened before the drain is still served,
            # once, and told to close.
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            assert response.getheader("Connection") == "close"
            assert response.will_close
            assert conn.sock is None  # http.client closed its socket
        finally:
            conn.close()
