"""Metric catalogue and the arithmetic that turns samples into metrics.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark
prints, with its unit and direction; ``BENCHMARK.json`` at the repo
root declares the same names (the smoke test keeps the two in step).
Every workload prints every metric: a layer a workload does not run
reads 0.
"""

from __future__ import annotations

import statistics

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_ms": ("ms", "lower"),
    "rate_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better).  Costs are per unit of the workload's
#: ``latency_ms`` (a report pair, a 250-record slice, a request), counts
#: are per group (a report, a drain, a request cycle) unless the name
#: says otherwise.
PER_LAYER = {
    "synthesis.build_world_s": ("s", "lower"),
    "collection.collect_s": ("s", "lower"),
    "collection.stream_s": ("s", "lower"),
    "pipeline.cascades_s": ("s", "lower"),
    "core.fit_s": ("s", "lower"),
    "core.urls": ("count", "higher"),
    "core.fit_ms_per_url": ("ms", "lower"),
    "live.bus.merge_s": ("s", "lower"),
    "live.aggregators.domains_s": ("s", "lower"),
    "live.aggregators.appearances_s": ("s", "lower"),
    "live.aggregators.first_hops_s": ("s", "lower"),
    "live.aggregators.cascades_s": ("s", "lower"),
    "live.engine.process_s": ("s", "lower"),
    "live.engine.loop_s": ("s", "lower"),
    "live.checkpoint.save_s": ("s", "lower"),
    "live.checkpoint.bytes": ("bytes", "lower"),
    "api.store.put_s": ("s", "lower"),
    "api.store.bytes_written": ("bytes", "lower"),
    "api.store.get_s": ("s", "lower"),
    "api.store.bytes_read": ("bytes", "lower"),
    "api.store.hit_ratio": ("ratio", "higher"),
    "api.store.get_ref_us": ("us", "lower"),
    "api.study.computed": ("count", "lower"),
    "reporting.report_s": ("s", "lower"),
    "api.service.respond_us": ("us", "lower"),
    "api.service.tables_us": ("us", "lower"),
    "api.service.influence_us": ("us", "lower"),
    "api.service.not_modified_us": ("us", "lower"),
    "api.service.live_us": ("us", "lower"),
    "api.service.metrics_ms": ("ms", "lower"),
    "api.service.http_us": ("us", "lower"),
    "api.service.not_modified_ratio": ("ratio", "higher"),
    "python.import_s": ("s", "lower"),
    "python.gc_pause_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
}

#: Span name -> per-layer metric holding its self time per unit.
SELF_TIME = {
    "synthesis.build_world": "synthesis.build_world_s",
    "collection.collect": "collection.collect_s",
    "collection.stream": "collection.stream_s",
    "pipeline.cascades": "pipeline.cascades_s",
    "core.fit": "core.fit_s",
    "live.bus.merge": "live.bus.merge_s",
    "live.aggregators.domains": "live.aggregators.domains_s",
    "live.aggregators.appearances": "live.aggregators.appearances_s",
    "live.aggregators.first_hops": "live.aggregators.first_hops_s",
    "live.aggregators.cascades": "live.aggregators.cascades_s",
    "live.engine.process": "live.engine.process_s",
    "live.engine.run": "live.engine.loop_s",
    "live.checkpoint.save": "live.checkpoint.save_s",
    "api.store.put": "api.store.put_s",
    "api.store.get": "api.store.get_s",
    "reporting.report": "reporting.report_s",
    "api.service.respond": "api.service.respond_us",
}

#: Per-record spans on the live path: timed, but not kept one by one.
HOT_SPANS = frozenset({
    "collection.stream", "live.bus.merge", "live.engine.process",
    "live.aggregators.domains", "live.aggregators.appearances",
    "live.aggregators.first_hops", "live.aggregators.cascades",
})

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def summary(values) -> dict:
    """Sample count and quartiles, to judge steadiness from one run."""
    values = list(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0] if values else 0.0
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def end_to_end(parts: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values and their sample summaries.

    ``parts`` are the results of the processes of one run; their
    samples are pooled.
    """
    latencies = [x for part in parts for x in part["latency_ms"]]
    work = [w for part in parts for w in part["work"]]
    setups = [part["setup_s"] for part in parts]
    rss = [part["peak_rss_mb"] for part in parts]
    rates = [items / seconds for items, seconds in work]
    values = {
        "setup_s": median(setups),
        "latency_ms": median(latencies),
        "rate_per_s": median(rates),
        "peak_rss_mb": median(rss),
    }
    stats = {"setup_s": summary(setups),
             "latency_ms": summary(latencies),
             "rate_per_s": summary(rates),
             "peak_rss_mb": summary(rss)}
    return values, stats


def per_layer(groups, tracer, untraced_latency_ms: float, import_s: float,
              extra: dict) -> dict:
    """Per-layer values from the traced groups' spans and counters.

    ``extra`` holds values the workload read from the program itself
    (store hit ratio and computed stages for the serve study).
    """
    per_unit: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    respond: dict[str, list[float]] = {}
    http: list[float] = []
    get_ref: list[float] = []
    coverage: list[float] = []
    not_modified = requests = 0
    responds: dict[int, list[float]] = {}
    for name, start, end, _, unit in tracer.spans:
        if name == "api.service.respond":
            responds.setdefault(unit, []).append(end - start)
    for g in groups:
        unit = g.unit
        self_s = tracer.self_s.get(unit, {})
        counts = tracer.counts.get(unit, {})
        units = len(g.latency_ms)
        for span, metric in SELF_TIME.items():
            per_unit[metric].append(self_s.get(span, 0.0) / units
                                    * SCALE[PER_LAYER[metric][0]])
        urls = counts.get("core.urls", 0)
        per_unit["core.urls"].append(urls)
        per_unit["core.fit_ms_per_url"].append(
            self_s.get("core.fit", 0.0) * 1e3 / urls if urls else 0.0)
        saves = counts.get("live.checkpoint.count", 0)
        per_unit["live.checkpoint.bytes"].append(
            counts.get("live.checkpoint.bytes", 0) / saves if saves else 0.0)
        for key in ("bytes_written", "bytes_read", "hit_ratio"):
            per_unit[f"api.store.{key}"].append(g.counts.get(key, 0.0))
        per_unit["api.study.computed"].append(g.counts.get("computed", 0))
        calls = tracer.calls.get(unit, {}).get("api.store.get_ref", 0)
        if calls:
            get_ref.append(self_s["api.store.get_ref"] / calls * 1e6)
        per_unit["python.gc_pause_s"].append(tracer.gc_s.get(unit, 0.0)
                                             / units)
        per_unit["process.cpu_s"].append(g.cpu_s / units)
        covered = sum(self_s.values())
        if g.kinds:
            # Serve: pair each request with its server-side respond span;
            # the rest of its latency is the HTTP layer, so the two
            # cover the request.
            spans = responds.get(unit, [])
            if len(spans) == len(g.kinds):
                for kind, took, latency in zip(g.kinds, spans, g.latency_ms):
                    respond.setdefault(kind, []).append(took)
                    http.append(latency / 1e3 - took)
                covered = sum(g.latency_ms) / 1e3
            not_modified += g.kinds.count("not_modified")
            requests += len(g.kinds)
        coverage.append(covered / g.seconds)
    values = {name: median(samples) for name, samples in per_unit.items()}
    for kind in ("tables", "influence", "not_modified", "live"):
        values[f"api.service.{kind}_us"] = median(respond.get(kind, [])) * 1e6
    values["api.service.metrics_ms"] = median(respond.get("metrics", [])) * 1e3
    values["api.service.http_us"] = median(http) * 1e6
    values["api.service.not_modified_ratio"] = (
        not_modified / requests if requests else 0.0)
    values["api.store.get_ref_us"] = median(get_ref)
    values["python.import_s"] = import_s
    values["trace.coverage"] = median(coverage)
    traced = median([x for g in groups for x in g.latency_ms])
    values["trace.overhead_ms"] = traced - untraced_latency_ms
    values.update(extra)
    return values
