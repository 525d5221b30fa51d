"""The :class:`Study` session: one configuration, every pipeline product.

A ``Study`` owns all the knobs a reproduction run needs (world
configuration, Hawkes configuration and fit seed, worker count) and
exposes each pipeline product — world, collected datasets, cascades,
corpus, per-URL fits, aggregates, tables — as a lazily
computed stage artifact, rendering the markdown report from them.
Stages form an explicit dependency graph; each stage's key is the
content hash of its parameters plus its upstream keys, so identically
configured studies agree on every key and share artifacts through an
:class:`~repro.api.store.ArtifactStore` (in-memory by default, on-disk
and cross-process with ``cache_dir=``).

Stages call the pure compute functions directly (``build_world``,
:func:`repro.pipeline.collect`, ``select_urls``, ``fit_corpus``, the
table builders); the session only adds keying, memoization, and
persistence on top.  :meth:`Study._compute_corpus` is the one batch
corpus-selection routine, and :meth:`Study.report` renders the cached
stages without recomputing any analysis.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from ..config import HawkesConfig, TWITTER_GAPS
from ..platforms.registry import PAPER_ECOSYSTEM, Ecosystem
from ..obs import DEFAULT_TIME_BUCKETS, get_registry, span
from ..core.influence import (
    CorpusSummary,
    InfluenceResult,
    UrlCascade,
    WeightAggregate,
    aggregate_weights,
    corpus_background_rates,
    fit_corpus,
    influence_percentages,
    select_urls,
    trim_gap_urls,
)
from ..news.domains import NewsCategory
from ..parallel.seeding import SeedLike, as_seed_sequence
from ..reporting.study import ReportOverview, report_overview
from ..synthesis.world import World, WorldConfig, build_world
from ..timeutil import Interval
from .store import MISSING, SCHEMA_VERSION, ArtifactStore, digest
from .tables import TABLE_IDS, TABLES_NEEDING_FITS, TableArtifact, build_table


@dataclass(frozen=True)
class _Stage:
    """One node of the stage graph."""

    deps: tuple[str, ...]
    params: Callable[["Study"], dict]
    compute: Callable[["Study"], object]


def _no_params(study: "Study") -> dict:
    return {}


class Study:
    """A configured reproduction session with cached stage artifacts.

    Quickstart::

        from repro import Study

        study = Study(seed=7)
        print(study.table(4).render())      # computes world -> data -> table
        study.table(4)                      # instant: memoized artifact
        result = study.influence()          # per-URL Hawkes fits

    Parameters: ``world`` (or the ``seed`` shorthand) configures the
    synthetic world, ``hawkes`` / ``fit_seed`` / ``max_urls`` the
    Section-5 corpus fit, and ``n_jobs`` the worker fan-out (a pure
    execution knob — results and therefore artifact keys are identical
    for any value).  The Gibbs fits pack the corpus into batched array
    programs that give each URL the bits of fitting it alone.
    ``cache_dir`` persists artifacts on disk, shared across processes;
    ``store`` injects a prebuilt :class:`ArtifactStore` instead.
    """

    def __init__(self, world: WorldConfig | None = None, *,
                 scenario=None,
                 seed: int | None = None,
                 hawkes: HawkesConfig | None = None,
                 fit_seed: SeedLike = 0,
                 max_urls: int | None = None,
                 gaps: Sequence[Interval] = TWITTER_GAPS,
                 trim_fraction: float = 0.10,
                 n_jobs: int | None = 1,
                 stream_seed: int = 0,
                 keep_samples: bool = False,
                 cache_dir=None,
                 store: ArtifactStore | None = None) -> None:
        # ``scenario`` (a name like "gab", an id like "gab@v1", or a
        # Scenario object) supplies the defaults for world / hawkes and
        # fixes the ecosystem; explicit arguments override
        # the scenario's bundle piecewise.
        if scenario is not None:
            from ..scenarios import get_scenario
            scenario = get_scenario(scenario)
        self.scenario = scenario
        self.ecosystem: Ecosystem = (scenario.ecosystem if scenario is not None
                                     else PAPER_ECOSYSTEM)
        if world is None:
            if scenario is not None:
                world = (dataclasses.replace(scenario.world, seed=seed)
                         if seed is not None else scenario.world)
            else:
                world = (WorldConfig(seed=seed) if seed is not None
                         else WorldConfig())
        elif seed is not None and world.seed != seed:
            raise ValueError(
                f"seed={seed} conflicts with world.seed={world.seed}; "
                "pass one or the other")
        self.world_config = world
        if hawkes is None:
            hawkes = (scenario.hawkes if scenario is not None
                      else HawkesConfig())
        self.hawkes_config = hawkes
        self.max_urls = max_urls
        self.gaps = tuple(gaps)
        self.trim_fraction = trim_fraction
        self.n_jobs = n_jobs
        self.stream_seed = stream_seed
        self.keep_samples = keep_samples
        # Canonicalize the fit seed once: the root SeedSequence state is
        # both the key ingredient and the recipe to rebuild an identical
        # root for every (re)compute.  ``None`` canonicalizes to fresh
        # OS entropy, so an unseeded study never gets a false cache hit.
        root = as_seed_sequence(fit_seed)
        self._fit_seed_state = (root.entropy, tuple(root.spawn_key),
                                root.n_children_spawned)
        self.store = store if store is not None else ArtifactStore(cache_dir)
        self._memo: dict[str, object] = {}
        self._keys: dict[str, str] = {}
        self._lock = threading.RLock()
        #: Per-stage compute locks: expensive stages are computed outside
        #: the session lock, so key hashing (ETag checks) never blocks
        #: behind a cold fit.  Lock order follows the stage DAG (a
        #: stage's compute only takes its dependencies' locks), so no
        #: cycles are possible.
        self._stage_locks: dict[str, threading.Lock] = {}
        self.stats = {"computed": 0, "store_hits": 0, "memo_hits": 0}

    @classmethod
    def from_data(cls, data, **kwargs) -> "Study":
        """Wrap an existing :class:`~repro.pipeline.CollectedData`.

        The data stage is pre-seeded from ``data`` (keyed by
        ``data.config``, which the caller vouches actually produced
        it); downstream stages compute lazily as usual, so data
        collected elsewhere gets every product without re-collecting.
        The world itself is not kept in ``data``: asking for
        :attr:`world` builds it again from the config.
        """
        study = cls(world=data.config, **kwargs)
        with study._lock:
            study._memo["data"] = data
        return study

    # -- stage graph --------------------------------------------------------

    def _fit_seed_root(self) -> np.random.SeedSequence:
        entropy, spawn_key, n_children = self._fit_seed_state
        return np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                      n_children_spawned=n_children)

    def _compute_data(self):
        from ..pipeline import collect
        return collect(self._value("world"), stream_seed=self.stream_seed)

    def _compute_cascades(self):
        from ..pipeline import influence_cascades
        return influence_cascades(self._value("data"),
                                  ecosystem=self.ecosystem)

    def _compute_corpus(self):
        eco = self.ecosystem
        corpus = trim_gap_urls(
            select_urls(self._value("cascades"), processes=eco.processes,
                        require_all=eco.require_all,
                        require_any=eco.require_any),
            self.gaps, self.trim_fraction)
        return corpus if self.max_urls is None else corpus[:self.max_urls]

    def _compute_fits(self):
        return fit_corpus(self._value("corpus"), self.hawkes_config,
                          processes=self.ecosystem.processes,
                          rng=self._fit_seed_root(),
                          n_jobs=self.n_jobs,
                          keep_samples=self.keep_samples)

    def _world_params(self) -> dict:
        # The scenario id participates in the root key (and therefore in
        # every downstream key) so presets cache independently; bare
        # sessions keep their legacy keys.
        params = {"config": self.world_config}
        if self.scenario is not None:
            params["scenario"] = self.scenario.scenario_id
        return params

    def _stages(self) -> dict[str, _Stage]:
        stages = {
            "world": _Stage((), Study._world_params,
                            lambda s: build_world(s.world_config)),
            "data": _Stage(("world",),
                           lambda s: {"stream_seed": s.stream_seed},
                           Study._compute_data),
            "overview": _Stage(("data",), _no_params,
                               lambda s: report_overview(s._value("data"))),
            "cascades": _Stage(("data",), _no_params,
                               Study._compute_cascades),
            "corpus": _Stage(("cascades",),
                             lambda s: {"gaps": s.gaps,
                                        "trim_fraction": s.trim_fraction,
                                        "max_urls": s.max_urls},
                             Study._compute_corpus),
            # The constant "method" keeps every existing fits key valid.
            "fits": _Stage(("corpus",),
                           lambda s: {"hawkes": s.hawkes_config,
                                      "method": "gibbs",
                                      "fit_seed": list(s._fit_seed_state),
                                      "keep_samples": s.keep_samples},
                           Study._compute_fits),
            "aggregate": _Stage(("fits",), _no_params,
                                lambda s: aggregate_weights(
                                    s._value("fits"))),
            "summary": _Stage(("fits",), _no_params,
                              lambda s: corpus_background_rates(
                                  s._value("fits"))),
        }
        for table_id in TABLE_IDS:
            deps = (("data", "fits") if table_id in TABLES_NEEDING_FITS
                    else ("data",))
            stages[f"table:{table_id}"] = _Stage(
                deps, _no_params,
                lambda s, n=table_id: build_table(
                    n, s._value("data"),
                    s._value("fits") if n in TABLES_NEEDING_FITS else None))
        return stages

    def _stage(self, name: str) -> _Stage:
        stages = self._stages()
        try:
            return stages[name]
        except KeyError:
            raise KeyError(f"unknown stage {name!r}; expected one of "
                           f"{sorted(stages)}") from None

    def stage_names(self) -> tuple[str, ...]:
        return tuple(self._stages())

    def stage_key(self, name: str) -> str:
        """Content key of a stage: hash of params + upstream keys.

        Pure hashing — computing a key never computes the artifact, so
        the HTTP service answers conditional requests (ETag / 304)
        without touching NumPy.
        """
        with self._lock:
            if name in self._keys:
                return self._keys[name]
            spec = self._stage(name)
            key = digest({
                "schema": SCHEMA_VERSION,
                "stage": name,
                "params": spec.params(self),
                "deps": {dep: self.stage_key(dep) for dep in spec.deps},
            })
            self._keys[name] = key
            return key

    def keys(self) -> dict[str, str]:
        """Every stage's content key (all pure hashes, nothing computed)."""
        return {name: self.stage_key(name) for name in self.stage_names()}

    def etag(self, name: str) -> str:
        return f'"{self.stage_key(name)}"'

    @staticmethod
    def _count_stage(name: str, result: str) -> None:
        get_registry().counter(
            "repro_stage_requests_total",
            "Stage artifact requests by resolution.",
            stage=name, result=result).inc()

    def _value(self, name: str):
        with self._lock:
            if name in self._memo:
                self.stats["memo_hits"] += 1
                self._count_stage(name, "memo")
                return self._memo[name]
            stage_lock = self._stage_locks.setdefault(name,
                                                      threading.Lock())
        with stage_lock:
            with self._lock:
                if name in self._memo:  # computed while we waited
                    self.stats["memo_hits"] += 1
                    self._count_stage(name, "memo")
                    return self._memo[name]
                key = self.stage_key(name)
            load_start = perf_counter()
            cached = self.store.get(key, MISSING)
            if cached is not MISSING:
                with self._lock:
                    self.stats["store_hits"] += 1
                self._count_stage(name, "store")
                get_registry().histogram(
                    "repro_stage_load_seconds",
                    "Wall time to load one stage artifact from the store.",
                    edges=DEFAULT_TIME_BUCKETS,
                    stage=name).observe(perf_counter() - load_start)
                with self._lock:
                    self._memo[name] = cached
                return cached
            compute_start = perf_counter()
            with span(f"stage:{name}"):
                value = self._stage(name).compute(self)
            self._count_stage(name, "computed")
            get_registry().histogram(
                "repro_stage_compute_seconds",
                "Wall time to compute one cold stage artifact.",
                stage=name).observe(perf_counter() - compute_start)
            with self._lock:
                self.stats["computed"] += 1
                self._memo[name] = value
            self.store.put(key, value)
            return value

    # -- products -----------------------------------------------------------

    @property
    def world(self) -> World:
        return self._value("world")

    @property
    def data(self):
        """The collected datasets (a :class:`~repro.pipeline.CollectedData`)."""
        return self._value("data")

    def overview(self) -> ReportOverview:
        """The record counts and Figure 3 and 5 lines of the report."""
        return self._value("overview")

    @property
    def cascades(self) -> list[UrlCascade]:
        return self._value("cascades")

    @property
    def corpus(self) -> list[UrlCascade]:
        return self._value("corpus")

    def influence(self) -> InfluenceResult:
        """Per-URL Hawkes fits over the selected corpus (Section 5)."""
        return self._value("fits")

    def aggregate(self) -> WeightAggregate:
        """Figure 10 aggregation (raises if a category has no fits)."""
        return self._value("aggregate")

    def corpus_summary(self) -> CorpusSummary:
        """Table 11 per-process corpus summary."""
        return self._value("summary")

    def percentages(self, category: NewsCategory) -> np.ndarray:
        """Figure 11 influence percentages for one category."""
        return influence_percentages(self.influence(), category)

    def table(self, table_id: int) -> TableArtifact:
        """Paper Table ``table_id`` (1-11) as a structured artifact."""
        if table_id not in TABLE_IDS:
            raise KeyError(f"unknown table id {table_id!r} (expected 1-11)")
        return self._value(f"table:{table_id}")

    def tables(self) -> dict[int, TableArtifact]:
        return {table_id: self.table(table_id) for table_id in TABLE_IDS}

    def report(self, include_influence: bool = True) -> str:
        """The full markdown study report, rendered from stage artifacts."""
        # Looked up per call, so a wrapper installed on the module
        # (tracing does this) sees every render.
        from ..reporting.study import generate_study_report
        return generate_study_report(self,
                                     include_influence=include_influence)

    def write_report(self, path, include_influence: bool = True):
        from pathlib import Path
        path = Path(path)
        path.write_text(self.report(include_influence=include_influence),
                        encoding="utf-8")
        return path
