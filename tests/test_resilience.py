"""Fault-tolerance unit tests: retry, quarantine, injection, recovery.

Each hardening layer is exercised in isolation against the seeded
fault injectors; the end-to-end chaos-equivalence property lives in
``tests/test_resilience_chaos.py``.
"""

import http.client
import json
import threading

import numpy as np
import pytest

from repro.api import Study, StudyService
from repro.api.store import ArtifactStore
from repro.collection.store import (
    DatasetRecord,
    MalformedRecordError,
    TruncatedRecordError,
    iter_jsonl,
)
from repro.config import HawkesConfig
from repro.parallel import parallel_map
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    Quarantine,
    RetryPolicy,
    SimulatedWorkerCrash,
    TransientFault,
    TransientSourceError,
    clear_worker_faults,
    corrupt_object,
    install_worker_faults,
    retry_call,
    supervised_source,
    validate_record,
)


def _record(post_id="p1", created_at=100.0):
    return DatasetRecord(post_id=post_id, platform="twitter",
                         community="Twitter", author_id="u1",
                         created_at=created_at, urls=())


# ---------------------------------------------------------------------------
# RetryPolicy / retry_call
# ---------------------------------------------------------------------------

class TestRetry:
    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(max_retries=4, backoff_base=0.1,
                             backoff_factor=2.0, backoff_max=0.5)
        schedule = [policy.delay(i) for i in range(policy.max_retries)]
        assert schedule == [0.1, 0.2, 0.4, 0.5]

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TransientSourceError("hiccup")
            return "ok"

        result = retry_call(flaky, policy=RetryPolicy(max_retries=3),
                            sleep=slept.append)
        assert result == "ok"
        assert calls["n"] == 3
        assert slept == [0.05, 0.1]

    def test_exhausted_retries_reraise_last(self):
        def always():
            raise TransientSourceError("down")

        with pytest.raises(TransientSourceError):
            retry_call(always, policy=RetryPolicy(max_retries=2),
                       sleep=lambda s: None)

    def test_non_transient_propagates_immediately(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_call(boom, sleep=lambda s: None)
        assert calls["n"] == 1


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------

class TestQuarantine:
    def test_sidecar_jsonl_one_line_per_entry(self, tmp_path):
        path = tmp_path / "dead" / "q.jsonl"
        with Quarantine(path) as sink:
            sink.add("twitter", "not a DatasetRecord (dict)", {"bad": 1})
            sink.add("reddit", "out of order (5.0 after 9.0)", _record())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["source"] == "twitter"
        assert lines[0]["payload"] == {"bad": 1}
        assert lines[1]["payload"]["post_id"] == "p1"

    def test_by_reason_groups_by_family(self):
        sink = Quarantine()
        sink.add("s", "out of order (1.0 after 2.0)")
        sink.add("s", "out of order (3.0 after 4.0)")
        sink.add("s", "not a DatasetRecord (dict)")
        assert sink.by_reason() == {"out of order": 2,
                                    "not a DatasetRecord": 1}
        assert sink.count == 3

    def test_unserializable_payload_never_raises(self):
        sink = Quarantine()
        sink.add("s", "weird", object())
        assert sink.count == 1


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(42).source("twitter")
        b = FaultPlan(42).source("twitter")
        assert a.error_positions == b.error_positions
        assert a.malformed_positions == b.malformed_positions

    def test_sites_are_independent(self):
        plan = FaultPlan(42)
        assert (plan.source("twitter").error_positions
                != plan.source("reddit").error_positions)

    def test_source_is_memoized_for_restart_reuse(self):
        plan = FaultPlan(1)
        assert plan.source("x") is plan.source("x")

    def test_wrap_fires_each_fault_once(self):
        spec = FaultSpec(transient_errors=1, malformed_records=1,
                         horizon=10)
        faults = FaultPlan(0, spec).source("s")
        records = [_record(f"p{i}", float(i)) for i in range(12)]

        first_pass = []
        with pytest.raises(TransientSourceError):
            for item in faults.wrap(iter(records)):
                first_pass.append(item)
        # The error never re-fires; the malformed record fires exactly
        # once across however many replays it takes.
        second = list(faults.wrap(iter(records)))
        third = list(faults.wrap(iter(records)))
        assert third == records
        injected = [item for item in first_pass + second
                    if isinstance(item, dict)]
        assert len(injected) == 1
        assert [item for item in second if not isinstance(item, dict)] \
            == records

    def test_failing_calls_predicate(self):
        should_fail = FaultPlan(0).failing_calls("handler", failures=2)
        assert [should_fail() for _ in range(4)] == [True, True,
                                                     False, False]


# ---------------------------------------------------------------------------
# Supervised sources
# ---------------------------------------------------------------------------

class TestSupervisedSource:
    def test_validate_record(self):
        assert validate_record(_record()) is None
        assert "not a DatasetRecord" in validate_record({"nope": 1})
        assert "non-finite" in validate_record(
            _record(created_at=float("nan")))

    def test_clean_stream_passes_through_unchanged(self):
        records = [_record(f"p{i}", float(i)) for i in range(20)]
        out = list(supervised_source("s", lambda: iter(records),
                                     sleep=lambda s: None))
        assert out == records

    def test_restart_replays_to_bit_identical_sequence(self):
        records = [_record(f"p{i}", float(i)) for i in range(50)]
        spec = FaultSpec(transient_errors=2, malformed_records=2,
                         horizon=40)
        faults = FaultPlan(7, spec).source("s")
        sink = Quarantine()
        out = list(supervised_source(
            "s", lambda: faults.wrap(iter(records)),
            quarantine=sink, sleep=lambda s: None))
        assert out == records
        assert sink.by_reason() == {
            "not a DatasetRecord": len(faults.malformed_positions)}

    def test_exhausted_restarts_end_source_not_run(self):
        def dead_factory():
            raise TransientSourceError("always down")
            yield  # pragma: no cover

        sink = Quarantine()
        out = list(supervised_source(
            "s", dead_factory, policy=RetryPolicy(max_retries=2),
            quarantine=sink, sleep=lambda s: None))
        assert out == []
        assert sink.count == 1  # one dead-letter log entry, no crash

    def test_out_of_order_records_are_quarantined(self):
        records = [_record("a", 10.0), _record("b", 5.0),
                   _record("c", 11.0)]
        sink = Quarantine()
        out = list(supervised_source("s", lambda: iter(records),
                                     quarantine=sink,
                                     sleep=lambda s: None))
        assert [r.post_id for r in out] == ["a", "c"]
        assert sink.by_reason() == {"out of order": 1}


# ---------------------------------------------------------------------------
# iter_jsonl malformed/truncated handling
# ---------------------------------------------------------------------------

class TestIterJsonl:
    def _write(self, path, lines, final_newline=True):
        text = "\n".join(lines) + ("\n" if final_newline else "")
        path.write_text(text, encoding="utf-8")

    def test_truncated_final_line_raises_sharp_error(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = _record("p0", 1.0).to_json()
        self._write(path, [good, good[: len(good) // 2]],
                    final_newline=False)
        with pytest.raises(TruncatedRecordError) as excinfo:
            list(iter_jsonl(path))
        assert "data.jsonl:2" in str(excinfo.value)

    def test_malformed_mid_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self._write(path, [_record("p0", 1.0).to_json(),
                           '{"post_id": "only"}',
                           _record("p2", 3.0).to_json()])
        with pytest.raises(MalformedRecordError) as excinfo:
            list(iter_jsonl(path))
        assert not isinstance(excinfo.value, TruncatedRecordError)
        assert "data.jsonl:2" in str(excinfo.value)

    def test_skip_mode_continues_past_bad_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self._write(path, [_record("p0", 1.0).to_json(),
                           "not json at all",
                           _record("p2", 3.0).to_json()])
        out = list(iter_jsonl(path, on_malformed="skip"))
        assert [r.post_id for r in out] == ["p0", "p2"]

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self._write(path, [_record("p0", 1.0).to_json()])
        with pytest.raises(ValueError):
            list(iter_jsonl(path, on_malformed="ignore"))

    def test_clean_file_unchanged(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = [_record(f"p{i}", float(i)) for i in range(5)]
        self._write(path, [r.to_json() for r in records])
        assert list(iter_jsonl(path)) == records


# ---------------------------------------------------------------------------
# ArtifactStore integrity
# ---------------------------------------------------------------------------

class TestStoreIntegrity:
    def test_corrupt_object_quarantined_and_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k" * 64, {"value": np.arange(5)})
        store._mem.clear()  # force the disk layer
        corrupt_object(store, "k" * 64)
        assert store.get("k" * 64) is None  # detected -> miss
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert len(quarantined) == 1
        # The slot is writable again and a rewrite round-trips.
        store.put("k" * 64, {"value": np.arange(5)})
        store._mem.clear()
        assert np.array_equal(store.get("k" * 64)["value"], np.arange(5))

    def test_legacy_unframed_blob_still_loads(self, tmp_path):
        import pickle
        store = ArtifactStore(tmp_path)
        path = store._object_path("a" * 64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"legacy": True}))
        assert store.get("a" * 64) == {"legacy": True}


# ---------------------------------------------------------------------------
# parallel_map fault tolerance
# ---------------------------------------------------------------------------

def _double(x):
    return x * 2


@pytest.fixture
def worker_faults(tmp_path):
    """Arm worker-fault injection and always disarm afterwards."""
    def arm(crashes, mode):
        install_worker_faults(tmp_path / "faults", crashes=crashes,
                              mode=mode)
    yield arm
    clear_worker_faults()


class TestParallelMapFaults:
    def test_serial_transient_retry(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SimulatedWorkerCrash("one-shot")
            return x * 2

        assert parallel_map(flaky, [1, 2, 3], n_jobs=1) == [2, 4, 6]

    def test_serial_retries_exhausted_raise(self):
        def always(x):
            raise SimulatedWorkerCrash("stuck")

        with pytest.raises(TransientFault):
            parallel_map(always, [1], n_jobs=1, retries=1)

    def test_chunk_retry_preserves_results(self, worker_faults):
        worker_faults(crashes=1, mode="raise")
        out = parallel_map(_double, list(range(40)), n_jobs=2,
                           chunk_size=5)
        assert out == [x * 2 for x in range(40)]

    def test_pool_respawn_after_worker_exit(self, worker_faults):
        worker_faults(crashes=1, mode="exit")
        out = parallel_map(_double, list(range(40)), n_jobs=2,
                           chunk_size=5)
        assert out == [x * 2 for x in range(40)]

    def test_survives_repeated_pool_breakage(self, worker_faults):
        # Two exit-mode crashes can break the pool twice, pushing the
        # map into the serial fallback; by then every crash slot is
        # claimed, so the in-process finish is safe.  (If one pool
        # absorbs both crashes the respawn completes instead — either
        # path must produce the full, ordered result.)
        worker_faults(crashes=2, mode="exit")
        out = parallel_map(_double, list(range(40)), n_jobs=2,
                           chunk_size=5)
        assert out == [x * 2 for x in range(40)]

    def test_retries_zero_restores_fail_fast(self, worker_faults):
        worker_faults(crashes=1, mode="raise")
        with pytest.raises(TransientFault):
            parallel_map(_double, list(range(40)), n_jobs=2,
                         chunk_size=5, retries=0)


# ---------------------------------------------------------------------------
# Service: stale-while-revalidate, degraded health, graceful drain
# ---------------------------------------------------------------------------

def _http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


@pytest.fixture
def fresh_service(collected):
    study = Study.from_data(
        collected, hawkes=HawkesConfig(gibbs_iterations=12, gibbs_burn_in=4),
        fit_seed=0, max_urls=6)
    service = StudyService(study, port=0)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    yield service
    try:
        service.shutdown()
        service.close()
    except OSError:
        pass
    thread.join(timeout=5)


class TestServiceResilience:
    def test_stale_while_revalidate_and_degraded_health(
            self, fresh_service, monkeypatch):
        service = fresh_service
        status, headers, body = _http_get(service.port, "/tables/2")
        assert status == 200 and "Warning" not in headers
        good = json.loads(body)

        # Next build cycle: the etag moves but the rebuild blows up.
        monkeypatch.setattr(service.study, "etag",
                            lambda name: '"forced-fresh"')
        monkeypatch.setattr(
            service.study, "table",
            lambda table_id: (_ for _ in ()).throw(
                RuntimeError("backing store on fire")))
        status, headers, body = _http_get(service.port, "/tables/2")
        assert status == 200
        assert headers["Warning"].startswith("110")
        assert json.loads(body) == good  # last-good bytes

        status, _, body = _http_get(service.port, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "degraded"
        assert "table:2" in health["degraded"]

        # Recovery: a clean rebuild clears the degraded flag.
        monkeypatch.undo()
        status, headers, _ = _http_get(service.port, "/tables/2")
        assert status == 200 and "Warning" not in headers
        status, _, body = _http_get(service.port, "/healthz")
        assert json.loads(body)["status"] == "ok"

    def test_failure_with_no_last_good_is_a_500(self, fresh_service,
                                                monkeypatch):
        service = fresh_service
        monkeypatch.setattr(
            service.study, "table",
            lambda table_id: (_ for _ in ()).throw(
                RuntimeError("cold failure")))
        status, _, body = _http_get(service.port, "/tables/3")
        assert status == 500
        assert "cold failure" in json.loads(body)["error"]

    def test_drain_finishes_and_closes_socket(self, collected):
        study = Study.from_data(
            collected,
            hawkes=HawkesConfig(gibbs_iterations=12, gibbs_burn_in=4),
            fit_seed=0, max_urls=6)
        service = StudyService(study, port=0)
        thread = threading.Thread(target=service.serve_forever,
                                  daemon=True)
        thread.start()
        port = service.port
        status, _, _ = _http_get(port, "/healthz")
        assert status == 200
        assert service.drain(timeout=5.0) is True
        thread.join(timeout=5)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            _http_get(port, "/healthz")


# ---------------------------------------------------------------------------
# CLI error contract
# ---------------------------------------------------------------------------

class TestCliErrors:
    def test_one_line_error_and_exit_1(self, capsys):
        from repro import cli
        rc = cli.main(["live", "--replay", "/nonexistent/data.jsonl",
                       "--skip-refit"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_vv_reraises_for_traceback(self):
        from repro import cli
        with pytest.raises(FileNotFoundError):
            cli.main(["-vv", "live", "--replay",
                      "/nonexistent/data.jsonl", "--skip-refit"])
