"""Observability spine tests: registry, merge semantics, tracing,
Prometheus rendering, /metrics, and instrumentation bit-identity."""

from __future__ import annotations

import http.client
import json
import logging
import threading

import numpy as np
import pytest

from repro.api import ArtifactStore, Study, StudyService
from repro.api.serialize import influence_payload, payload_key
from repro.cli import main as cli_main
from repro.config import HawkesConfig
from repro.core.events import DiscreteEvents
from repro.core.hawkes.inference import fit_em
from repro.core.influence import fit_corpus, select_urls
from repro.live import EventBus, LiveEngine, dataset_source
from repro.obs import (
    METRICS_REF,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    collecting,
    get_registry,
    publish_snapshot,
    render_prometheus,
    render_text,
    set_registry,
    snapshot_key,
    span,
    start_trace,
    stop_trace,
    summarize_trace,
)
from repro.parallel import parallel_map


@pytest.fixture()
def fresh_registry():
    """Swap in an isolated ambient registry for the test's duration."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


# ---------------------------------------------------------------------------
# Instruments and bucket semantics
# ---------------------------------------------------------------------------

class TestInstruments:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_create_distinct_children(self):
        registry = MetricsRegistry()
        registry.counter("c_total", route="/a").inc()
        registry.counter("c_total", route="/b").inc(2)
        # Same labels in a different kwarg order hit the same child.
        registry.counter("c_total", route="/a").inc()
        samples = registry.snapshot()["metrics"]["c_total"]["samples"]
        assert [(s["labels"], s["value"]) for s in samples] == [
            ({"route": "/a"}, 2.0), ({"route": "/b"}, 2.0)]

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_bucket_edges_le_semantics(self):
        # Prometheus ``le``: a value equal to an edge lands in that
        # edge's bucket; above the last edge goes to overflow.
        histogram = Histogram(edges=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            histogram.observe(value)
        sample = histogram._sample()
        assert sample["counts"] == [2, 2, 1]
        assert sample["count"] == 5
        assert sample["min"] == 0.5 and sample["max"] == 11.0
        assert histogram.quantile(0.5) <= 10.0

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=())
        with pytest.raises(ValueError):
            Histogram(edges=(1.0, 1.0))

    def test_histogram_edges_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", edges=(1.0, 3.0))


# ---------------------------------------------------------------------------
# Snapshot / merge
# ---------------------------------------------------------------------------

def _snapshot(counter=0.0, gauge=None, observations=()):
    registry = MetricsRegistry()
    if counter:
        registry.counter("m_total").inc(counter)
    if gauge is not None:
        registry.gauge("m_gauge").set(gauge)
    histogram = registry.histogram("m_seconds", edges=(1.0, 10.0))
    for value in observations:
        histogram.observe(value)
    return registry.snapshot()


def _merge(*snapshots):
    """Fold snapshots into a new registry and snapshot the result."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


class TestMerge:
    def test_counters_sum_histograms_add(self):
        merged = _merge(
            _snapshot(counter=2, observations=(0.5, 5.0)),
            _snapshot(counter=3, observations=(20.0,)))
        metrics = merged["metrics"]
        assert metrics["m_total"]["samples"][0]["value"] == 5.0
        sample = metrics["m_seconds"]["samples"][0]
        assert sample["counts"] == [1, 1, 1]
        assert sample["max"] == 20.0 and sample["min"] == 0.5

    def test_gauge_merge_is_deterministic(self):
        # More updates wins; equal updates fall back to larger value —
        # both max-operations, so merge order can't matter.
        busy = MetricsRegistry()
        busy.gauge("m_gauge").set(1.0)
        busy.gauge("m_gauge").set(1.0)
        idle = MetricsRegistry()
        idle.gauge("m_gauge").set(99.0)
        a, b = busy.snapshot(), idle.snapshot()
        for order in ((a, b), (b, a)):
            merged = _merge(*order)
            assert merged["metrics"]["m_gauge"]["samples"][0]["value"] == 1.0

    def test_merge_associative_and_commutative(self):
        a = _snapshot(counter=1, gauge=3.0, observations=(0.5,))
        b = _snapshot(counter=2, gauge=7.0, observations=(5.0, 50.0))
        c = _snapshot(counter=4, observations=(2.0,))
        left = _merge(_merge(a, b), c)
        right = _merge(a, _merge(b, c))
        assert left == right
        assert _merge(a, b, c) == _merge(c, b, a)

    def test_mismatched_histogram_edges_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("m_seconds", edges=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            registry.merge_snapshot(_snapshot(observations=(1.0,)))

    def test_snapshot_is_deterministic_and_keyable(self):
        a = _snapshot(counter=2, gauge=1.5, observations=(0.5,))
        b = _snapshot(counter=2, gauge=1.5, observations=(0.5,))
        assert a == b
        assert snapshot_key(a) == snapshot_key(b)

    def test_publish_snapshot_round_trips_through_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        snapshot = _snapshot(counter=2)
        key = publish_snapshot(store, snapshot)
        assert store.get_ref(METRICS_REF) == key
        assert ArtifactStore(tmp_path).get(key) == snapshot


def _obs_task(x):
    registry = get_registry()
    registry.counter("obs_test_tasks_total").inc()
    registry.histogram("obs_test_values", edges=(1.0, 10.0)).observe(x)
    return x * 2


class TestParallelMerge:
    def _run(self, n_jobs):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            out = parallel_map(_obs_task, range(12), n_jobs=n_jobs)
        finally:
            set_registry(previous)
        return out, registry.snapshot()["metrics"]

    def test_worker_metrics_travel_back_and_merge(self):
        serial_out, serial = self._run(1)
        parallel_out, parallel = self._run(3)
        assert serial_out == parallel_out
        # Task-recorded metrics agree exactly regardless of fan-out
        # (merge is associative/commutative, so completion order and
        # chunking can't change the totals).
        assert (serial["obs_test_tasks_total"]["samples"][0]["value"]
                == parallel["obs_test_tasks_total"]["samples"][0]["value"]
                == 12)
        assert (serial["obs_test_values"]["samples"][0]["counts"]
                == parallel["obs_test_values"]["samples"][0]["counts"])
        assert parallel["repro_parallel_chunks_total"][
            "samples"][0]["value"] >= 2
        assert parallel["repro_parallel_task_seconds"][
            "samples"][0]["count"] == 12

    def test_collecting_isolates_and_null_passthrough(self):
        outer = MetricsRegistry()
        previous = set_registry(outer)
        try:
            with collecting() as inner:
                assert get_registry() is inner
                inner.counter("inner_total").inc()
            assert get_registry() is outer
            assert "inner_total" not in outer.snapshot()["metrics"]
            set_registry(NULL_REGISTRY)
            with collecting() as registry:
                assert registry is NULL_REGISTRY
        finally:
            set_registry(previous)

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.counter("n_total").inc()
        NULL_REGISTRY.gauge("n_gauge").set(5)
        NULL_REGISTRY.histogram("n_seconds").observe(1.0)
        assert NULL_REGISTRY.snapshot()["metrics"] == {}


# ---------------------------------------------------------------------------
# Prometheus rendering (golden)
# ---------------------------------------------------------------------------

GOLDEN_PROMETHEUS = """\
# TYPE demo_ratio gauge
demo_ratio 0.5
# HELP demo_requests_total Demo requests.
# TYPE demo_requests_total counter
demo_requests_total{route="/x"} 3
# HELP demo_seconds Demo durations.
# TYPE demo_seconds histogram
demo_seconds_bucket{le="0.1"} 1
demo_seconds_bucket{le="1"} 2
demo_seconds_bucket{le="+Inf"} 3
demo_seconds_sum 4.5625
demo_seconds_count 3
"""


class TestRender:
    def test_prometheus_golden(self):
        registry = MetricsRegistry()
        registry.gauge("demo_ratio").set(0.5)
        registry.counter("demo_requests_total", "Demo requests.",
                         route="/x").inc(3)
        histogram = registry.histogram("demo_seconds", "Demo durations.",
                                       edges=(0.1, 1.0))
        for value in (0.0625, 0.5, 4.0):
            histogram.observe(value)
        assert render_prometheus(registry.snapshot()) == GOLDEN_PROMETHEUS

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", label='a"b\\c\nd').inc()
        text = render_prometheus(registry.snapshot())
        assert 'label="a\\"b\\\\c\\nd"' in text

    def test_render_text_mentions_quantiles(self):
        snapshot = _snapshot(counter=2, observations=(0.5, 5.0))
        text = render_text(snapshot)
        assert "m_total" in text and "p95<=" in text
        assert render_text({"metrics": {}}) == "(no metrics recorded)"


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTrace:
    def test_span_nesting_and_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        start_trace(path)
        try:
            with span("outer", stage="demo"):
                with span("inner"):
                    pass
        finally:
            stop_trace()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        inner, outer = records  # children complete (and write) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["span"]
        assert (inner["depth"], outer["depth"]) == (1, 0)
        assert outer["parent"] is None
        assert outer["attrs"] == {"stage": "demo"}
        assert all(r["wall_s"] >= 0 and "pid" in r for r in records)

        summary = summarize_trace(path)
        assert set(summary) == {"outer", "inner"}
        assert summary["outer"]["count"] == 1
        assert summary["outer"]["wall_s"] >= summary["inner"]["wall_s"]

    def test_span_records_errors(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        start_trace(path)
        try:
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("no")
        finally:
            stop_trace()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["error"] == "RuntimeError"

    def test_disabled_spans_write_nothing(self, tmp_path):
        stop_trace()
        with span("quiet"):
            pass  # no sink: measured but unrecorded, and no crash


# ---------------------------------------------------------------------------
# Bit-identity: instrumentation must never change fitted numbers
# ---------------------------------------------------------------------------

class TestBitIdentity:
    def test_traced_fit_corpus_matches_untraced(self, cascades, tmp_path):
        corpus = select_urls(cascades)[:3]
        config = HawkesConfig(gibbs_iterations=8, gibbs_burn_in=2)

        for method in ("gibbs", "em"):
            previous = set_registry(NULL_REGISTRY)
            try:
                golden = fit_corpus(corpus, config, method=method, rng=5)
            finally:
                set_registry(previous)

            registry = MetricsRegistry()
            previous = set_registry(registry)
            trace = tmp_path / f"trace-{method}.jsonl"
            start_trace(trace)
            try:
                traced = fit_corpus(corpus, config, method=method, rng=5)
            finally:
                stop_trace()
                set_registry(previous)

            # Content-hash equality over the full serialized payload:
            # every background, weight, and likelihood is bit-for-bit
            # identical.
            assert payload_key(influence_payload(traced)) == payload_key(
                influence_payload(golden))
            for a, b in zip(golden.fits, traced.fits):
                assert a.log_likelihood == b.log_likelihood
                assert np.array_equal(a.weights, b.weights)
            # ... and the instrumented run did record its work.
            families = registry.snapshot()["metrics"]
            (total,) = families["repro_fit_total"]["samples"]
            assert total["labels"] == {"method": method}
            assert total["value"] == 3
            trace_names = {json.loads(line)["name"] for line in
                           trace.read_text().splitlines()}
            assert "fit_corpus" in trace_names


# ---------------------------------------------------------------------------
# End-to-end: /metrics endpoint and the stats CLI
# ---------------------------------------------------------------------------

def _get(service, path, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


@pytest.fixture()
def serving(collected, fresh_registry):
    study = Study.from_data(collected, max_urls=4)
    service = StudyService(study, port=0)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    yield service
    service.shutdown()
    service.close()
    thread.join(timeout=5)


class TestMetricsEndpoint:
    def test_exposes_required_families(self, serving, collected,
                                       fresh_registry):
        # Exercise every acceptance-bar layer against the ambient
        # registry the service renders.
        events = DiscreteEvents.from_pairs(
            [(0, 0), (3, 0), (10, 1), (41, 1), (55, 0)],
            n_bins=100, n_processes=2)
        fit_em(events, 20, max_iterations=15)

        bus = EventBus([("twitter", dataset_source(collected.twitter))])
        engine = LiveEngine(bus, summary_every=50)
        assert engine.run(limit=120) == 120

        store = serving.study.store
        store.put("warm", {"x": 1})
        store.get("warm")
        store.get("cold-key")

        assert _get(serving, "/healthz")[0] == 200
        status, headers, body = _get(serving, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        for family in (
                "repro_live_ingest_records_per_second",   # live throughput
                'repro_live_records_total{source="twitter"} 120',
                "repro_fit_em_iterations_bucket",         # EM iterations
                "repro_store_hit_ratio",                  # cache hit ratio
                'repro_http_request_seconds_bucket{route=',  # route latency
                'route="/healthz"',
        ):
            assert family in text, family

    def test_json_format_and_bad_format(self, serving, fresh_registry):
        _get(serving, "/healthz")
        status, headers, body = _get(serving, "/metrics?format=json")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        snapshot = json.loads(body)
        assert snapshot["version"] == 1
        assert "repro_http_requests_total" in snapshot["metrics"]
        assert _get(serving, "/metrics?format=xml")[0] == 400

    def test_scrape_sets_not_modified_ratio(self, serving, fresh_registry):
        _, headers, _ = _get(serving, "/experiments")
        assert _get(serving, "/experiments",
                    {"If-None-Match": headers["ETag"]})[0] == 304
        _, _, body = _get(serving, "/metrics?format=json")
        metrics = json.loads(body)["metrics"]
        ratio = metrics["repro_http_not_modified_ratio"][
            "samples"][0]["value"]
        assert 0 < ratio < 1

    def test_access_lines_go_through_logging(self, serving, caplog):
        with caplog.at_level(logging.INFO, logger="repro.api.service"):
            _get(serving, "/healthz")
        assert any("/healthz" in record.getMessage()
                   for record in caplog.records)


class TestEngineObservability:
    def test_summaries_logged_and_gauges_set(self, collected, caplog,
                                             fresh_registry):
        bus = EventBus([("twitter", dataset_source(collected.twitter))])
        engine = LiveEngine(bus, summary_every=40)
        with caplog.at_level(logging.INFO, logger="repro.live"):
            engine.run(limit=100)
        assert any("records" in record.getMessage()
                   for record in caplog.records)
        metrics = fresh_registry.snapshot()["metrics"]
        assert metrics["repro_live_ingest_records_per_second"][
            "samples"][0]["value"] > 0
        assert metrics["repro_live_merge_depth"]["samples"]

    def test_publish_metrics_lands_in_store(self, collected, tmp_path,
                                            fresh_registry):
        store = ArtifactStore(tmp_path)
        bus = EventBus([("twitter", dataset_source(collected.twitter))])
        engine = LiveEngine(bus, summary_every=0, publish_store=store)
        engine.run(limit=50)
        key = store.get_ref(METRICS_REF)
        assert key is not None
        snapshot = store.get(key)
        assert "repro_live_records_total" in snapshot["metrics"]


class TestStatsCli:
    def test_stats_from_cache(self, tmp_path, capsys, fresh_registry):
        fresh_registry.counter("demo_total", "Demo.").inc(2)
        store = ArtifactStore(tmp_path / "cache")
        publish_snapshot(store, fresh_registry.snapshot())
        assert cli_main(["stats", "--cache",
                         str(tmp_path / "cache")]) == 0
        assert "demo_total" in capsys.readouterr().out

    def test_stats_from_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        start_trace(path)
        try:
            with span("alpha"):
                pass
        finally:
            stop_trace()
        assert cli_main(["stats", "--trace", str(path), "--json"]) == 0
        assert "alpha" in capsys.readouterr().out

    def test_stats_requires_a_source(self, capsys):
        assert cli_main(["stats"]) == 2
        assert "--cache" in capsys.readouterr().err

    def test_stats_empty_cache_fails(self, tmp_path, capsys):
        assert cli_main(["stats", "--cache",
                         str(tmp_path / "empty")]) == 1
        assert "no metrics snapshot" in capsys.readouterr().err
