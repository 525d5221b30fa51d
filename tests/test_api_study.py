"""Study session tests: golden equivalence with direct core calls and
committed report bytes, stage keys, and artifact-cache round trips
(warm, disk, cross-process).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import characterization as chz
from repro.api import ArtifactStore, Study, build_table, digest
from repro.config import TWITTER_GAPS, HawkesConfig
from repro.core import fit_corpus, select_urls, trim_gap_urls
from repro.news.domains import NewsCategory
from repro.pipeline import influence_cascades
from repro.synthesis.world import WorldConfig

GOLDEN_HAWKES = HawkesConfig(gibbs_iterations=30, gibbs_burn_in=10)
GOLDEN_MAX_URLS = 16
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Small enough to build in ~a second; used by the disk/cross-process
#: tests that must construct worlds from scratch.
TINY_KWARGS = dict(seed=5, n_stories_alternative=40,
                   n_stories_mainstream=100, n_twitter_users=60,
                   n_reddit_users=50, n_generic_subreddits=10)

#: Stage keys of ``Study(seed=3)``.  A cache filled by an earlier
#: version stays valid only while every existing key stays put, so a
#: new stage must add its own key and leave these unchanged.
PINNED_KEYS = {
    "world": "e6104eeab7b099a0520b5e7a7cf0e6fe909687913702b86585de1f5b55843832",
    "data": "e74114806357005c3e4003e821fd5373e71ca37d6fc2cbc67484023137a43b38",
    "cascades": "6a566422d424f9741fec369364d6abc2d8deb4e44f8eccfda4dcd792ca26c691",
    "corpus": "65db4b29a7856106518b94e934c95663d165d7add5d5afea0971f58856bed7b4",
    "fits": "b1a6b8076e4b5869dfe2f9cb3c83c82313e0b891e7c9d5d6980767d51138d68e",
    "aggregate": "0203ec678d514eec51be811fd0b31a45ee6b2ace5bed418c7bbb3fccdba80015",
    "summary": "158e4c7438d6ac59a34036051193ebe71df808584348ad8bf86df5fb77765e8f",
    "table:1": "e8e19056aace9834dbbb31b14a5850485f9e91aa9aea362d790f61c033940bcd",
    "table:2": "85b6e78dd98cc752d519702bd955761fa9b348055ebf877f1c81c8878cbe2f8b",
    "table:3": "fce132301db1a605c550dcda5cb21197314a796fbeed49ff0b473aec174721c0",
    "table:4": "bb7cbe2f1caf5ef8cadb1bae27f7d419241abc5fb7ad587d8dc094364b697e2f",
    "table:5": "e085739dab44388d88796a577255ae9f175e806efc480a574509f57c159ba609",
    "table:6": "e648486638d8dc6da9bff906ef0279836005fb3ea132299fd2c159543c9ad1a1",
    "table:7": "684fd611c837026ac9ef7825a0429013e889f625eca1704504ec8adc64eed04d",
    "table:8": "4334e728a91889492df68075cd86c57517b7e80d521a43b3913f910174448ac7",
    "table:9": "2adaee3b56bcae93b9edc8a90f136ac17e80774ecdd64c65ecb8ef89e4ba747d",
    "table:10": "03fd146603df580fcbdcd73cda7e2377cc3e20c9e70a853bb2fa3ddb3d6ce176",
    "table:11": "653de6268587a4963e67e6965c71afdc2a486775cd556d106e1b3ba34b8a5fd8",
}


@pytest.fixture(scope="module")
def api_study(collected):
    return Study.from_data(collected, hawkes=GOLDEN_HAWKES,
                           fit_seed=0, max_urls=GOLDEN_MAX_URLS)


class TestGoldenEquivalence:
    """Study products pinned to direct core calls and committed goldens."""

    @staticmethod
    def _direct_corpus(collected):
        return trim_gap_urls(select_urls(influence_cascades(collected)),
                             TWITTER_GAPS, 0.10)[:GOLDEN_MAX_URLS]

    def test_corpus_matches_pipeline(self, api_study, collected):
        assert api_study.corpus == self._direct_corpus(collected)

    def test_fits_bit_identical(self, api_study, collected):
        direct = fit_corpus(self._direct_corpus(collected), GOLDEN_HAWKES,
                            rng=np.random.default_rng(0))
        result = api_study.influence()
        assert len(result.fits) == len(direct.fits)
        for ours, theirs in zip(result.fits, direct.fits):
            assert ours.url == theirs.url
            assert np.array_equal(ours.weights, theirs.weights)
            assert np.array_equal(ours.background, theirs.background)
            assert ours.log_likelihood == theirs.log_likelihood

    def test_table_rows_match_analysis_layer(self, api_study, collected):
        rows = chz.dataset_overview({
            "Twitter": collected.twitter,
            "Reddit (six selected subreddits)": collected.reddit_six,
            "Reddit (other subreddits)": collected.reddit_other,
            "4chan (/pol/)": collected.pol,
            "4chan (other boards)": collected.fourchan_other,
        })
        artifact = api_study.table(2)
        assert artifact.rows == tuple(
            (r.name, r.posts_with_urls, r.unique_alternative,
             r.unique_mainstream) for r in rows)

    def test_all_tables_match_direct_builders(self, api_study, collected):
        for table_id in range(1, 11):
            direct = build_table(table_id, collected)
            assert api_study.table(table_id).render() == direct.render()

    def test_table11_uses_study_fits(self, api_study):
        direct = build_table(11, api_study.data, api_study.influence())
        assert api_study.table(11).render() == direct.render()

    def test_report_bytes_match_legacy(self, api_study):
        # tests/golden/ holds the reference report bytes; an output
        # change must update them on purpose.
        golden = GOLDEN_DIR / "study_report.md"
        assert api_study.report() == golden.read_text(encoding="utf-8")

    def test_report_without_influence_matches(self, api_study):
        golden = GOLDEN_DIR / "study_report_no_influence.md"
        assert (api_study.report(include_influence=False)
                == golden.read_text(encoding="utf-8"))


class TestStageKeys:
    def test_keys_cover_every_stage(self):
        study = Study(seed=3)
        keys = study.keys()
        assert set(keys) == set(study.stage_names())
        assert all(len(k) == 64 for k in keys.values())

    def test_existing_keys_are_pinned(self):
        keys = Study(seed=3).keys()
        assert {name: keys[name] for name in PINNED_KEYS} == PINNED_KEYS

    def test_same_config_same_keys(self):
        assert Study(seed=3).keys() == Study(seed=3).keys()

    def test_n_jobs_is_not_part_of_the_key(self):
        assert (Study(seed=3, n_jobs=1).stage_key("fits")
                == Study(seed=3, n_jobs=8).stage_key("fits"))

    def test_config_changes_invalidate_downstream_only(self):
        base = Study(seed=3)
        refit = Study(seed=3, fit_seed=99)
        assert base.stage_key("corpus") == refit.stage_key("corpus")
        assert base.stage_key("fits") != refit.stage_key("fits")
        assert base.stage_key("table:2") == refit.stage_key("table:2")
        assert base.stage_key("table:11") != refit.stage_key("table:11")

    def test_world_seed_invalidates_everything(self):
        a, b = Study(seed=3), Study(seed=4)
        for name in a.stage_names():
            assert a.stage_key(name) != b.stage_key(name)

    def test_max_urls_changes_fit_key(self):
        assert Study(seed=3).stage_key("fits") != Study(
            seed=3, max_urls=10).stage_key("fits")

    def test_unseeded_fit_never_collides(self):
        a = Study(seed=3, fit_seed=None)
        b = Study(seed=3, fit_seed=None)
        assert a.stage_key("fits") != b.stage_key("fits")

    def test_generator_seed_equals_int_seed(self):
        assert (Study(seed=3, fit_seed=np.random.default_rng(7))
                .stage_key("fits")
                == Study(seed=3, fit_seed=7).stage_key("fits"))

    def test_errors(self):
        with pytest.raises(KeyError):
            Study(seed=3).stage_key("nope")
        with pytest.raises(KeyError):
            Study(seed=3).table(12)
        with pytest.raises(ValueError):
            Study(WorldConfig(seed=1), seed=2)


class TestWarmCache:
    def test_second_call_is_memoized(self, api_study):
        api_study.table(2)
        before = dict(api_study.stats)
        artifact = api_study.table(2)
        assert api_study.stats["computed"] == before["computed"]
        assert api_study.stats["memo_hits"] == before["memo_hits"] + 1
        assert artifact is api_study.table(2)

    def test_aggregates_reuse_fits(self, api_study):
        api_study.influence()
        computed = api_study.stats["computed"]
        api_study.corpus_summary()
        api_study.percentages(NewsCategory.ALTERNATIVE)
        # summary computes itself but never refits the corpus
        assert api_study.stats["computed"] <= computed + 1

    def test_disk_round_trip_skips_all_compute(self, tmp_path):
        cache = tmp_path / "cache"
        cold = Study(world=WorldConfig(**TINY_KWARGS), cache_dir=cache)
        cold_artifact = cold.table(2)
        assert cold.stats["computed"] >= 2  # world, data, table

        warm = Study(world=WorldConfig(**TINY_KWARGS), cache_dir=cache)
        warm_artifact = warm.table(2)
        assert warm.stats["computed"] == 0
        assert warm.stats["store_hits"] == 1  # table hit; deps untouched
        assert warm_artifact.render() == cold_artifact.render()

    def test_warm_report_of_one_category_corpus_only_hits(self, tmp_path):
        # This world's 8-URL corpus is all mainstream, so Figure 10 has
        # no aggregate; the warm report must not miss the store on it.
        config = WorldConfig(seed=7041, n_stories_alternative=50,
                             n_stories_mainstream=120, n_twitter_users=80,
                             n_reddit_users=60)
        kwargs = dict(hawkes=GOLDEN_HAWKES, fit_seed=7041, max_urls=8,
                      n_jobs=1, cache_dir=tmp_path / "cache")
        cold = Study(config, **kwargs)
        text = cold.report()
        assert not cold.influence().of_category(NewsCategory.ALTERNATIVE)
        warm = Study(config, **kwargs)
        assert warm.report() == text
        assert warm.stats["computed"] == 0
        assert warm.store.stats()["hit_ratio"] == 1.0

    def test_warm_report_never_loads_world_or_data(self, tmp_path,
                                                   monkeypatch):
        config = WorldConfig(**TINY_KWARGS)
        kwargs = dict(hawkes=GOLDEN_HAWKES, fit_seed=5, max_urls=12,
                      n_jobs=1, cache_dir=tmp_path / "cache")
        cold = Study(config, **kwargs)
        text = cold.report()
        cold.aggregate()  # raises unless the render used every stage
        warm = Study(config, **kwargs)
        asked = []
        get = warm.store.get

        def recording_get(key, *args):
            asked.append(key)
            return get(key, *args)

        monkeypatch.setattr(warm.store, "get", recording_get)
        assert warm.report() == text
        assert warm.stats["computed"] == 0
        assert warm.stage_key("overview") in asked
        assert warm.stage_key("world") not in asked
        assert warm.stage_key("data") not in asked

    def test_shared_store_object(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        a = Study(world=WorldConfig(**TINY_KWARGS), store=store)
        b = Study(world=WorldConfig(**TINY_KWARGS), store=store)
        a.table(2)
        b.table(2)
        assert b.stats["computed"] == 0


class TestCrossProcess:
    def test_warm_cache_across_processes(self, tmp_path):
        cache = tmp_path / "cache"
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "from repro.api import Study\n"
            "from repro.synthesis.world import WorldConfig\n"
            f"study = Study(world=WorldConfig(**{TINY_KWARGS!r}), "
            f"cache_dir={str(cache)!r})\n"
            "print(study.table(2).render())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)

        study = Study(world=WorldConfig(**TINY_KWARGS), cache_dir=cache)
        artifact = study.table(2)
        assert study.stats["computed"] == 0
        assert artifact.render() == proc.stdout.rstrip("\n")


class TestFromData:
    def test_preseeds_world_and_data(self, api_study, collected,
                                     small_world):
        assert api_study.data is collected
        # The data keeps no world: the study rebuilds the one its
        # config produced.
        world = api_study.world
        assert digest(world.config) == digest(small_world.config)
        assert collected.config is small_world.config
        assert world.twitter.total_posts == small_world.twitter.total_posts

    def test_data_pickled_with_its_world_still_loads(self, collected,
                                                      small_world):
        """A ``data`` stage cached when ``CollectedData`` held the world."""
        import pickle
        from repro.pipeline import CollectedData
        old = object.__new__(CollectedData)
        old.__dict__.update(
            {"world": small_world,
             **{name: value for name, value in vars(collected).items()
                if name not in ("config", "total_posts")}})
        loaded = pickle.loads(pickle.dumps(old))
        assert "world" not in vars(loaded)
        assert digest(loaded.config) == digest(collected.config)
        assert loaded.total_posts == collected.total_posts
        assert (build_table(1, loaded).render()
                == build_table(1, collected).render())

    def test_payloads_are_json_ready(self, api_study):
        import json
        payload = api_study.table(2).to_payload()
        encoded = json.dumps(payload)
        assert "Twitter" in encoded
        assert payload["table"] == 2
