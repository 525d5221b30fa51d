"""Live engine vs batch pipeline: the acceptance-criteria equivalence.

The engine consumes the same record stream the batch collectors
produce; after draining it, every live view must equal the batch
analysis output exactly — domain fractions, top-domain tables, URL
appearance ECDFs, first-hop/triplet tables, and the assembled Hawkes
cascades.
"""

import numpy as np
import pytest

from repro import cli
from repro.analysis import characterization as chz
from repro.analysis import sequences
from repro.config import SEQUENCE_PLATFORMS
from repro.core.influence import select_urls
from repro.live import (
    EventBus,
    LiveEngine,
    RefitPolicy,
    WindowedHawkesRefitter,
)
from repro.news.domains import NewsCategory
from repro.pipeline import influence_cascades, stream_sources


@pytest.fixture(scope="module")
def tiny_world():
    from repro.synthesis.world import WorldConfig, build_world
    return build_world(WorldConfig(
        seed=7, n_stories_alternative=40, n_stories_mainstream=100,
        n_twitter_users=60, n_reddit_users=50))


@pytest.fixture(scope="module")
def live_engine(small_world):
    engine = LiveEngine(EventBus(stream_sources(small_world)),
                        summary_every=0)
    engine.run()
    return engine


def test_streams_every_collected_record(live_engine, collected):
    batch_total = (len(collected.twitter) + len(collected.reddit)
                   + len(collected.fourchan))
    assert live_engine.records_seen == batch_total
    assert live_engine.by_source["twitter"] == len(collected.twitter)
    assert live_engine.by_source["reddit"] == len(collected.reddit)
    assert live_engine.by_source["4chan"] == len(collected.fourchan)


@pytest.mark.parametrize("category", list(NewsCategory))
def test_domain_fractions_match_batch(live_engine, collected, category):
    slices = collected.sequence_slices()
    assert (live_engine.domains.platform_fractions(category)
            == chz.domain_platform_fractions(slices, category))
    for name, dataset in slices.items():
        assert (live_engine.domains.top_domains(name, category)
                == chz.top_domains(dataset, category))


@pytest.mark.parametrize("category", list(NewsCategory))
def test_url_appearances_match_batch(live_engine, collected, category):
    for name, dataset in collected.sequence_slices().items():
        batch = chz.url_appearance_cdf(dataset, category)
        live = live_engine.appearances.appearance_cdf(name, category)
        if batch is None:
            assert live is None
        else:
            assert np.array_equal(batch.values, live.values)


@pytest.mark.parametrize("category", list(NewsCategory))
def test_first_hops_match_batch(live_engine, collected, category):
    slices = collected.sequence_slices()
    assert (live_engine.first_hops.first_hop(category)
            == sequences.first_hop_distribution(slices, category))
    assert (live_engine.first_hops.triplets(category)
            == sequences.triplet_distribution(slices, category))


def test_cascades_match_batch(live_engine, collected):
    batch = {c.url: c for c in influence_cascades(collected)}
    live = {c.url: c for c in live_engine.cascades.cascades()}
    assert batch == live


def test_refitter_runs_on_stream(small_world):
    refitter = WindowedHawkesRefitter(
        policy=RefitPolicy(every_records=400, max_urls=4, method="em"),
        seed=3)
    engine = LiveEngine(EventBus(stream_sources(small_world)),
                        refitter=refitter, summary_every=0)
    engine.run(limit=1200)
    assert refitter.n_refits >= 1 or refitter.last_corpus_size == 0
    if refitter.last_result is not None:
        k = len(refitter.last_result.processes)
        for fit in refitter.last_result.fits:
            assert fit.weights.shape == (k, k)
            assert np.all(fit.weights >= 0)


def test_engine_hands_paper_ecosystem_to_refitter():
    from repro.config import HAWKES_PROCESSES
    from repro.platforms.registry import PAPER_ECOSYSTEM
    refitter = WindowedHawkesRefitter()
    assert refitter.ecosystem is PAPER_ECOSYSTEM
    engine = LiveEngine(refitter=refitter)
    assert engine.ecosystem is PAPER_ECOSYSTEM
    assert refitter.ecosystem is PAPER_ECOSYSTEM
    assert engine.cascades.processes == frozenset(HAWKES_PROCESSES)
    assert engine.first_hops.slices == SEQUENCE_PLATFORMS


def test_refit_traced_as_one_span_with_identical_result(
        live_engine, tmp_path, monkeypatch):
    import json
    from repro.api.serialize import influence_payload, payload_key
    from repro.obs import TRACE_ENV, stop_trace, trace

    def refit():
        refitter = WindowedHawkesRefitter(
            policy=RefitPolicy(every_records=1, max_urls=3, method="em"),
            seed=3)
        return refitter.maybe_refit(live_engine.cascades,
                                    live_engine.stream_time,
                                    live_engine.records_seen)

    stop_trace()
    untraced = refit()
    path = tmp_path / "trace.jsonl"
    monkeypatch.setenv(TRACE_ENV, str(path))
    monkeypatch.setattr(trace, "_sink", trace._UNSET)
    try:
        traced = refit()
    finally:
        stop_trace()
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    refits = [s for s in spans if s["name"] == "live.refit"]
    assert len(refits) == 1
    assert refits[0]["attrs"] == {"records": live_engine.records_seen,
                                  "urls": len(traced.fits)}
    assert untraced is not None and len(untraced.fits) > 0
    assert payload_key(influence_payload(traced)) == payload_key(
        influence_payload(untraced))
    for a, b in zip(untraced.fits, traced.fits):
        assert a.log_likelihood == b.log_likelihood
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.background, b.background)


def test_refit_window_selects_settled_cascades(live_engine):
    assembler = live_engine.cascades
    last = max(c.last_time for c in assembler.cascades())
    window = assembler.cascades_between(0.0, last - 1.0)
    assert all(c.last_time <= last - 1.0 for c in window)
    eligible = select_urls(window)
    for cascade in eligible:
        present = {name for _, name in cascade.events}
        assert "Twitter" in present and "/pol/" in present


def test_cli_live_smoke(tmp_path, capsys):
    """`python -m repro live --seed 7` streams end-to-end."""
    checkpoint = tmp_path / "ckpt.json"
    rc = cli.main([
        "live", "--seed", "7",
        "--stories-alt", "40", "--stories-main", "100",
        "--twitter-users", "60", "--reddit-users", "50",
        "--summary-every", "500", "--skip-refit",
        "--checkpoint", str(checkpoint)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "records" in out
    assert "First-hop sequences" in out
    assert checkpoint.exists()

    # resuming from the checkpoint restores the stream position and
    # does NOT re-count the already-processed records
    from repro.live import load_checkpoint
    first = load_checkpoint(checkpoint)
    rc = cli.main([
        "live", "--seed", "7",
        "--stories-alt", "40", "--stories-main", "100",
        "--twitter-users", "60", "--reddit-users", "50",
        "--skip-refit", "--resume",
        "--checkpoint", str(checkpoint)])
    assert rc == 0
    assert "resumed at" in capsys.readouterr().out
    second = load_checkpoint(checkpoint)
    assert second == first  # identical stream replay adds nothing


class TestCheckpointStrictness:
    """Checkpoints are strict JSON: non-finite state fails at write time."""

    def test_clean_state_round_trips(self, tmp_path):
        from repro.live import load_checkpoint, save_checkpoint
        state = {"records_seen": 42, "rates": [0.5, 1.25], "label": "ok"}
        path = save_checkpoint(tmp_path / "ckpt.json", state)
        assert load_checkpoint(path) == state

    def test_poisoned_state_raises_and_leaves_no_file(self, tmp_path):
        from repro.live import save_checkpoint
        target = tmp_path / "ckpt.json"
        poisoned = {"records_seen": 1, "rates": [0.5, float("nan")]}
        with pytest.raises(ValueError):
            save_checkpoint(target, poisoned)
        # Neither the checkpoint nor the temp file may survive.
        assert list(tmp_path.iterdir()) == []

    def test_poisoned_state_never_clobbers_previous_checkpoint(
            self, tmp_path):
        from repro.live import load_checkpoint, save_checkpoint
        target = tmp_path / "ckpt.json"
        good = {"records_seen": 7}
        save_checkpoint(target, good)
        with pytest.raises(ValueError):
            save_checkpoint(target, {"records_seen": float("inf")})
        assert load_checkpoint(target) == good

    @staticmethod
    def _drain_to_checkpoint(world, path):
        engine = LiveEngine(EventBus(stream_sources(world)),
                            summary_every=0, checkpoint_path=path)
        engine.run()
        return engine

    def test_bytes_match_stdlib_json_dump(self, tiny_world, tmp_path):
        import json
        from repro.live import save_checkpoint
        from repro.live.checkpoint import CHECKPOINT_VERSION
        engine = self._drain_to_checkpoint(tiny_world, None)
        state = engine.state_dict()
        path = save_checkpoint(tmp_path / "ckpt.json", state)
        reference = tmp_path / "reference.json"
        with reference.open("w", encoding="utf-8") as fh:
            json.dump({"version": CHECKPOINT_VERSION, "state": state}, fh,
                      allow_nan=False)
        assert path.read_bytes() == reference.read_bytes()

    def test_warm_classification_memo_writes_same_bytes(self, tiny_world,
                                                        tmp_path):
        from repro.news.domains import default_registry
        default_registry()._classified.clear()
        cold = self._drain_to_checkpoint(tiny_world, tmp_path / "cold.json")
        assert default_registry()._classified  # the second drain hits it
        warm = self._drain_to_checkpoint(tiny_world, tmp_path / "warm.json")
        assert cold.records_seen == warm.records_seen > 0
        assert ((tmp_path / "cold.json").read_bytes()
                == (tmp_path / "warm.json").read_bytes())

    def test_rejects_unknown_version(self, tmp_path):
        import json
        from repro.live import load_checkpoint
        from repro.live.checkpoint import CHECKPOINT_VERSION
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": CHECKPOINT_VERSION + 1,
                                    "state": {"records_seen": 7}}))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)


def test_incremental_runs_drop_no_records(collected):
    """Repeated run(limit=N) drains the bus without losing merge state."""
    from repro.live import dataset_source

    full = collected.merged()
    chunked = LiveEngine(EventBus([
        ("twitter", dataset_source(collected.twitter)),
        ("reddit", dataset_source(collected.reddit)),
        ("4chan", dataset_source(collected.fourchan))]),
        summary_every=0)
    while chunked.run(limit=997):
        pass
    assert chunked.records_seen == len(full)
    straight = LiveEngine(EventBus([("replay", dataset_source(full))]),
                          summary_every=0)
    straight.run()
    assert (chunked.first_hops.state_dict()
            == straight.first_hops.state_dict())
    assert chunked.domains.state_dict() == straight.domains.state_dict()


def test_resumed_run_skips_already_seen_records(small_world, tmp_path):
    """restore() + run() over the same stream equals one straight run."""
    straight = LiveEngine(EventBus(stream_sources(small_world)),
                          summary_every=0)
    straight.run()

    path = tmp_path / "ck.json"
    partial = LiveEngine(EventBus(stream_sources(small_world)),
                         checkpoint_path=path, summary_every=0)
    partial.run(limit=700)

    resumed = LiveEngine(EventBus(stream_sources(small_world)),
                         summary_every=0)
    resumed.restore(path)
    assert resumed.records_seen == 700
    resumed.run()
    assert resumed.records_seen == straight.records_seen
    assert resumed.state_dict() == straight.state_dict()


def test_checkpoint_restore_mid_refit_window(small_world, tmp_path):
    """Restoring between refit windows resumes refits deterministically.

    The refitter's RNG is keyed by ``seed + n_refits`` and its window
    position by ``records_at_last_refit`` — both checkpointed — so an
    interrupted run's remaining refits replay bit-identically.
    """
    def make_engine(path=None):
        refitter = WindowedHawkesRefitter(
            policy=RefitPolicy(every_records=500, max_urls=4,
                               method="em"),
            seed=3)
        return LiveEngine(EventBus(stream_sources(small_world)),
                          refitter=refitter, checkpoint_path=path,
                          summary_every=0)

    straight = make_engine()
    straight.run()
    assert straight.refitter.n_refits >= 2

    path = tmp_path / "ck.json"
    partial = make_engine(path)
    partial.run(limit=700)  # inside the second refit window
    assert partial.refitter.n_refits == 1
    assert 0 < partial.refitter.records_at_last_refit <= 700

    resumed = make_engine()
    resumed.restore(path)
    assert resumed.refitter.n_refits == 1
    resumed.run()
    assert resumed.records_seen == straight.records_seen
    assert resumed.refitter.n_refits == straight.refitter.n_refits
    assert resumed.state_dict() == straight.state_dict()
    a = straight.refitter.last_result
    b = resumed.refitter.last_result
    assert (a is None) == (b is None)
    if a is not None:
        assert len(a.fits) == len(b.fits)
        for fit_a, fit_b in zip(a.fits, b.fits):
            assert fit_a.url == fit_b.url
            assert np.array_equal(fit_a.weights, fit_b.weights)


def test_rolling_summary_format(live_engine):
    summary = live_engine.summary()
    line = summary.format()
    assert f"{summary.records:8d} records" in line
    assert summary.distinct_urls == live_engine.appearances.distinct_urls()
    for name in ("twitter", "reddit", "4chan"):
        assert name in line
    assert set(summary.by_source) == {"twitter", "reddit", "4chan"}


def test_slice_router_matches_batch_slicing(collected):
    """sequence_slice_of routes records exactly like CollectedData."""
    slices = collected.sequence_slices()
    for name, dataset in slices.items():
        for record in dataset:
            assert chz.sequence_slice_of(record) == name
    for record in collected.reddit_other:
        assert chz.sequence_slice_of(record) is None
    for record in collected.fourchan_other:
        assert chz.sequence_slice_of(record) is None
