"""The user paths the benchmark measures, one class each.

Every workload prepares its inputs from the benchmark seed, runs one
warm-up unit, then repeats equal units of work until the time runs
out.  The report and live workloads rotate through a fresh world per
unit, derived from the seed: one world's cost swings by tens of
percent with its seed (a few viral stories dominate it), so a run's
medians must average over many worlds to be steady across seeds.

The program only ever receives generated inputs: world configurations,
record streams and HTTP requests.  Output checks are counted as
operations; a failed check marks the run incorrect.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import random
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

#: World of one report unit and of the served study (stories per
#: category, users per platform), and the Hawkes corpus cap.
STUDY_WORLD = dict(n_stories_alternative=200, n_stories_mainstream=550,
                   n_twitter_users=250, n_reddit_users=200)
STUDY_MAX_URLS = 40
#: World each live drain streams, and the live engine's cadences: one
#: latency sample per ``slice`` records, a JSON checkpoint every
#: ``checkpoint_every`` records and one more at the end of the drain.
LIVE_WORLD = dict(n_stories_alternative=400, n_stories_mainstream=1200,
                  n_twitter_users=550, n_reddit_users=450)
LIVE_CADENCE = dict(slice=250, checkpoint_every=5000)
#: Copies of the request set per serve cycle; one /metrics scrape
#: closes each cycle, so about 1 request in 200 is a scrape.
SERVE_REPEATS = 3

#: The tiny world of the smoke size.
SMOKE_WORLD = dict(n_stories_alternative=50, n_stories_mainstream=120,
                   n_twitter_users=80, n_reddit_users=60)
SMOKE_MAX_URLS = 8
SMOKE_CADENCE = dict(slice=100, checkpoint_every=400)


def world_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th world a run with ``seed`` uses."""
    return seed * 1000 + index


def registry_total(name: str) -> float:
    """Sum of a counter's values or a histogram's counts, all labels."""
    from repro.obs import get_registry
    family = get_registry().snapshot()["metrics"].get(name, {})
    return sum(sample.get("count", sample.get("value", 0))
               for sample in family.get("samples", []))


@dataclass
class Group:
    """One measured group of units: a report, a drain or a request cycle."""

    #: Index of the unit the group was measured in (the tracer's key).
    unit: int
    latency_ms: list[float]
    #: Work items (records or requests) the group processed.
    items: int
    seconds: float
    cpu_s: float
    #: Per-request kinds (serve only), aligned with ``latency_ms``.
    kinds: list[str] = field(default_factory=list)
    #: Layer counters read from the program (bytes, counts).
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Results:
    groups: list[Group] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Workload:
    """Common shape: prepare, warm up, repeat units, check."""

    name = ""
    why = ""

    def __init__(self, seed: int, scratch: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.smoke = smoke
        self.tracer = None
        self.results = Results()
        self.worlds: list[dict] = []
        #: sha256 of the warm-up unit's output; ``run.py`` compares it
        #: across the processes of a run (same inputs, same bytes).
        self.warmup_digest = ""
        self._dirs = 0
        self._unit = 0
        self._cpu0 = 0.0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.scratch / f"u{self._dirs}"
        path.mkdir(parents=True)
        return path

    def begin(self, index: int) -> float:
        """Open the timed region of unit ``index``; returns its start."""
        if self.tracer is not None:
            self.tracer.unit = index
        self._unit = index
        self._cpu0 = process_time()
        return perf_counter()

    def end(self, start: float, latency_ms: list[float], items: int,
            record: bool, kinds: list[str] | None = None) -> Group | None:
        """Close the timed region; keep the group unless it is a warm-up."""
        elapsed = perf_counter() - start
        cpu = process_time() - self._cpu0
        if self.tracer is not None:
            self.tracer.unit = None
        if not record:
            return None
        group = Group(self._unit, latency_ms, items, elapsed, cpu,
                      kinds or [])
        self.results.groups.append(group)
        return group

    def prepare(self) -> None:
        """Build inputs shared by every unit (part of set-up)."""

    def unit(self, index: int, record: bool) -> None:
        """One unit of work; ``record`` is False for the warm-up."""
        raise NotImplementedError

    def finish(self) -> None:
        """Final output checks and clean-up."""

    def facts(self) -> dict:
        """Input facts recorded with each result."""
        return {}

    def install_tracing(self, tracer) -> None:
        """Wrap the module-level calls this workload's layers make."""
        self.tracer = tracer

    def layer_extras(self) -> dict:
        """Per-layer values read from the program after the traced run."""
        return {}


# ---------------------------------------------------------------------------
# Report workloads
# ---------------------------------------------------------------------------

def _study_world(seed: int, smoke: bool):
    from repro.synthesis.world import WorldConfig
    return WorldConfig(seed=seed, **(SMOKE_WORLD if smoke else STUDY_WORLD))


def _new_study(config, cache_dir: Path, smoke: bool):
    from repro.api import Study
    from repro.config import HawkesConfig
    return Study(config, hawkes=HawkesConfig(gibbs_iterations=30,
                                             gibbs_burn_in=10),
                 fit_seed=config.seed,
                 max_urls=SMOKE_MAX_URLS if smoke else STUDY_MAX_URLS,
                 n_jobs=1, cache_dir=cache_dir)


def _records(data) -> int:
    return len(data.twitter) + len(data.reddit) + len(data.fourchan)


def _store_bytes() -> dict[str, float]:
    return {"bytes_written": registry_total("repro_store_bytes_written_total"),
            "bytes_read": registry_total("repro_store_bytes_read_total")}


def _trace_store(tracer, store) -> None:
    """Per-instance wrappers on one fresh ``ArtifactStore``."""
    store.get = tracer.wrap("api.store.get", store.get)
    store.put = tracer.wrap("api.store.put", store.put)


class Report(Workload):
    name = "report"
    why = ("repro report on a new cache, then repro report --cache over "
           "it: synthesis, collection, Gibbs fits, store writes and reads")

    def _study(self, config, cache: Path):
        study = _new_study(config, cache, self.smoke)
        if self.tracer is not None:
            _trace_store(self.tracer, study.store)
        return study

    def unit(self, index: int, record: bool) -> None:
        """A cold report of a new world, then its warm re-run."""
        config = _study_world(world_seed(self.seed, index), self.smoke)
        cache = self.fresh_dir()
        cold = self._study(config, cache)
        before = _store_bytes()
        start = self.begin(index)
        text = cold.report()
        warm = self._study(config, cache)
        warm_text = warm.report()
        records = _records(cold.data)
        group = self.end(start, [(perf_counter() - start) * 1000], records,
                         record)
        hit_ratio = warm.store.stats()["hit_ratio"]
        if group is not None:
            after = _store_bytes()
            group.counts.update(
                {key: after[key] - before[key] for key in after},
                computed=cold.stats["computed"], hit_ratio=hit_ratio)
        self.worlds.append({"seed": config.seed, "records": records,
                            "corpus_urls": len(cold.corpus)})
        if index == 0:
            self.warmup_digest = hashlib.sha256(text.encode()).hexdigest()
        # The warm re-run renders the same bytes from the store alone.
        res = self.results
        res.check(warm_text == text,
                  f"warm report differs, world {config.seed}")
        res.check(warm.stats["computed"] == 0,
                  f"warm re-run computed, world {config.seed}")
        res.check(hit_ratio == 1.0,
                  f"warm store hit ratio {hit_ratio}, world {config.seed}")
        del cold, warm
        shutil.rmtree(cache)
        gc.collect()

    def facts(self) -> dict:
        return {"world": SMOKE_WORLD if self.smoke else STUDY_WORLD,
                "max_urls": SMOKE_MAX_URLS if self.smoke else STUDY_MAX_URLS,
                "fit": "gibbs, 30 iterations, 10 burn-in, n_jobs=1",
                "worlds": self.worlds}

    def install_tracing(self, tracer) -> None:
        import repro.api.study as api_study
        import repro.pipeline as pipeline
        import repro.reporting.study as reporting_study
        super().install_tracing(tracer)
        api_study.build_world = tracer.wrap("synthesis.build_world",
                                            api_study.build_world)
        pipeline.collect = tracer.wrap("collection.collect",
                                       pipeline.collect)
        pipeline.influence_cascades = tracer.wrap(
            "pipeline.cascades", pipeline.influence_cascades)
        api_study.select_urls = tracer.wrap("pipeline.cascades",
                                            api_study.select_urls)
        api_study.trim_gap_urls = tracer.wrap("pipeline.cascades",
                                              api_study.trim_gap_urls)
        fit_corpus = api_study.fit_corpus

        def fit(corpus, *args, **kwargs):
            tracer.count("core.urls", len(corpus))
            return tracer.call("core.fit", fit_corpus, corpus, *args,
                               **kwargs)
        api_study.fit_corpus = fit
        reporting_study.generate_study_report = tracer.wrap(
            "reporting.report", reporting_study.generate_study_report)


# ---------------------------------------------------------------------------
# Live workload
# ---------------------------------------------------------------------------

def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Live(Workload):
    name = "live"
    why = ("repro live --skip-refit row drain: collector streams, bus "
           "merge, aggregators and JSON checkpoints; no fits, no HTTP")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.world = None
        self.world_index = -1
        self.expected_records = 0
        self.cadence = SMOKE_CADENCE if self.smoke else LIVE_CADENCE

    def _build(self, world_index: int) -> None:
        """Build the drain's world and count its records (untimed)."""
        from repro.pipeline import collect
        from repro.synthesis.world import WorldConfig, build_world
        config = WorldConfig(seed=world_seed(self.seed, world_index),
                             **(SMOKE_WORLD if self.smoke else LIVE_WORLD))
        self.world = None
        gc.collect()
        self.world = build_world(config)
        self.expected_records = _records(collect(self.world,
                                                 stream_seed=config.seed))
        self.world_index = world_index
        self.worlds.append({"seed": config.seed,
                            "records": self.expected_records})

    def prepare(self) -> None:
        self._build(0)

    def _engine(self):
        from repro.live import EventBus, LiveEngine
        from repro.pipeline import stream_source_factories
        tracer = self.tracer
        bus = EventBus()
        for name, factory in stream_source_factories(
                self.world, stream_seed=world_seed(self.seed,
                                                   self.world_index)):
            records = factory()
            bus.add_source(name, records if tracer is None
                           else tracer.iterate("collection.stream", records))
        cache = self.fresh_dir()
        marks: list[float] = []
        engine = LiveEngine(
            bus, checkpoint_path=cache / "checkpoint.json",
            checkpoint_every=self.cadence["checkpoint_every"],
            summary_every=self.cadence["slice"],
            on_summary=lambda summary: marks.append(perf_counter()))
        if tracer is not None:
            _trace_engine(tracer, engine)
        return engine, cache, marks

    def unit(self, index: int, record: bool) -> None:
        """One drain of a fresh world; each slice is one sample."""
        if self.world_index != index:
            self._build(index)
        engine, cache, marks = self._engine()
        saves = registry_total("repro_live_checkpoint_seconds")
        start = self.begin(index)
        marks.append(start)
        consumed = engine.run()
        slices = [(b - a) * 1000 for a, b in zip(marks, marks[1:])]
        self.end(start, slices, consumed, record)
        saves = registry_total("repro_live_checkpoint_seconds") - saves
        res = self.results
        res.check(consumed == self.expected_records,
                  f"drained {consumed} of {self.expected_records} records")
        # A save every checkpoint_every records, plus the final one.
        res.check(saves == consumed // self.cadence["checkpoint_every"] + 1,
                  f"{saves} checkpoints for {consumed} records")
        if index == 0:
            # Engine state and final checkpoint bytes of the warm-up drain.
            digest = hashlib.sha256(json.dumps(
                engine.state_dict(), sort_keys=True).encode())
            digest.update((cache / "checkpoint.json").read_bytes())
            self.warmup_digest = digest.hexdigest()
        del engine
        shutil.rmtree(cache)
        gc.collect()

    def facts(self) -> dict:
        return {"world": SMOKE_WORLD if self.smoke else LIVE_WORLD,
                "summary_every": self.cadence["slice"],
                "checkpoint_every": self.cadence["checkpoint_every"],
                "checkpoint_format": "json", "refits": "skipped",
                "worlds": self.worlds}


def _trace_engine(tracer, engine) -> None:
    """Per-instance wrappers on one fresh ``LiveEngine`` and its parts."""
    bus = engine.bus
    events = bus.events
    bus.events = lambda: tracer.iterate("live.bus.merge", events())
    engine.run = tracer.wrap("live.engine.run", engine.run)
    engine.process = tracer.wrap("live.engine.process", engine.process)
    for name in ("domains", "appearances", "first_hops", "cascades"):
        aggregator = getattr(engine, name)
        aggregator.update = tracer.wrap(f"live.aggregators.{name}",
                                        aggregator.update)
    checkpoint = engine.checkpoint

    def save():
        path = tracer.call("live.checkpoint.save", checkpoint)
        tracer.count("live.checkpoint.bytes", path.stat().st_size)
        tracer.count("live.checkpoint.count", 1)
        return path
    engine.checkpoint = save


# ---------------------------------------------------------------------------
# Serve workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    path: str
    #: tables | influence | live | not_modified | healthz | stages | metrics
    kind: str
    conditional: bool = False


#: Request kinds whose 200 bodies come from the ETag body cache.
CACHED_KINDS = ("tables", "influence", "live")


class Serve(Workload):
    name = "serve"
    why = ("repro serve on a warm cache: a closed-loop client on one "
           "keep-alive connection; every body is an ETag body-cache hit")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.service = None
        self.thread: threading.Thread | None = None
        self.conn: http.client.HTTPConnection | None = None
        self.cycle: list[Request] = []
        self.bodies: dict[str, bytes] = {}
        self.etags: dict[str, str] = {}

    def prepare(self) -> None:
        from repro.api import TABLE_IDS, ArtifactStore, StudyService
        from repro.live import LiveEngine
        config = _study_world(world_seed(self.seed, 0), self.smoke)
        cache = self.fresh_dir()
        study = _new_study(config, cache, self.smoke)
        for table_id in TABLE_IDS:
            study.table(table_id)
        result = study.influence()
        self.worlds.append({"seed": config.seed,
                            "records": _records(study.data),
                            "corpus_urls": len(study.corpus)})
        # What `repro live --cache` does: publish a result for the live
        # view through a second store on the same directory, so the
        # service reads the ref from disk on every live-view request.
        LiveEngine(publish_store=ArtifactStore(cache)).publish_influence(
            result)
        processes = study.ecosystem.processes
        del study, result
        gc.collect()
        self.service = StudyService(_new_study(config, cache, self.smoke),
                                    port=0)
        self.thread = threading.Thread(target=self.service.serve_forever,
                                       name="perfbench-serve", daemon=True)
        self.thread.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=30)
        self.cycle = self._request_cycle(processes)

    def _request_cycle(self, processes) -> list[Request]:
        queries = ["", "?category=alternative", "?category=mainstream"]
        queries += [f"?source={p}" for p in processes]
        queries += [f"?destination={p}" for p in processes]
        cached = [Request(f"/tables/{n}", "tables") for n in range(1, 12)]
        cached += [Request(f"/influence{q}", "influence") for q in queries]
        cached += [Request("/influence?view=live" + q.replace("?", "&"),
                           "live") for q in queries[:3]]
        cycle: list[Request] = []
        for _ in range(SERVE_REPEATS):
            cycle += cached
            cycle += [Request(r.path, "not_modified", True) for r in cached]
            cycle += [Request("/healthz", "healthz"),
                      Request("/stages", "stages")]
        random.Random(self.seed).shuffle(cycle)
        cycle.append(Request("/metrics", "metrics"))
        return cycle

    def unit(self, index: int, record: bool) -> None:
        """One pass of the request cycle; each request is one sample."""
        res = self.results
        conn = self.conn
        latencies: list[float] = []
        kinds: list[str] = []
        checks: list[tuple[Request, int, bytes]] = []
        start = self.begin(index)
        for request in self.cycle:
            headers = {}
            if request.conditional:
                etag = self.etags.get(request.path)
                if etag is None:
                    continue  # warm-up: the plain GET comes later
                headers["If-None-Match"] = etag
            sent = perf_counter()
            conn.request("GET", request.path, headers=headers)
            response = conn.getresponse()
            body = response.read()
            latencies.append((perf_counter() - sent) * 1000)
            kinds.append(request.kind)
            checks.append((request, response.status, body))
            if not record and request.kind in CACHED_KINDS:
                self.etags.setdefault(request.path,
                                      response.getheader("ETag"))
        self.end(start, latencies, len(latencies), record, kinds=kinds)
        for request, status, body in checks:
            res.check(status < 400, f"{request.path}: HTTP {status}")
            if request.conditional:
                res.check(status == 304 and body == b"",
                          f"{request.path}: conditional gave {status}")
            elif request.kind in CACHED_KINDS:
                expected = self.bodies.setdefault(request.path, body)
                res.check(body == expected, f"{request.path}: body changed")
        if not record:
            digest = hashlib.sha256()
            for path in sorted(self.bodies):
                digest.update(path.encode() + b"\0" + self.bodies[path])
            self.warmup_digest = digest.hexdigest()

    def finish(self) -> None:
        self.conn.close()
        self.service.drain(timeout=10.0)
        self.thread.join(timeout=10.0)
        self.results.check(not self.thread.is_alive(),
                           "server thread did not stop")

    def facts(self) -> dict:
        shares: dict[str, int] = {}
        for request in self.cycle:
            shares[request.kind] = shares.get(request.kind, 0) + 1
        return {"world": SMOKE_WORLD if self.smoke else STUDY_WORLD,
                "max_urls": SMOKE_MAX_URLS if self.smoke else STUDY_MAX_URLS,
                "worlds": self.worlds,
                "client": "closed loop, one thread, one keep-alive "
                          "connection; server on a thread in-process",
                "requests_per_cycle": len(self.cycle),
                "request_mix": {kind: round(count / len(self.cycle), 4)
                                for kind, count in sorted(shares.items())},
                "distinct_etags": len(self.etags)}

    def layer_extras(self) -> dict:
        study = self.service.study
        return {"api.store.hit_ratio": study.store.stats()["hit_ratio"],
                "api.study.computed": study.stats["computed"]}

    def install_tracing(self, tracer) -> None:
        super().install_tracing(tracer)
        service = self.service
        service.respond = tracer.wrap("api.service.respond", service.respond)
        store = service.study.store
        store.get_ref = tracer.wrap("api.store.get_ref", store.get_ref)


WORKLOADS = {cls.name: cls for cls in (Report, Live, Serve)}
