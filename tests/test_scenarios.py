"""Scenario registry + K-platform ecosystem tests.

Covers the registry semantics, the ``web-centipede`` bit-identity
golden (the paper preset must be indistinguishable from bare
``Study()``), the ground-truth extension, the generalized corpus
selection rule, and a K=4 ``gab`` world end-to-end: tables, influence
matrices, the HTTP service, and the live engine all adapt to K.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading

import numpy as np
import pytest

from repro.api import Study, StudyService
from repro.api.serialize import influence_payload, scenarios_payload
from repro.claims import run_claims
from repro.config import HAWKES_PROCESSES, HawkesConfig
from repro.core.influence import UrlCascade, select_urls
from repro.live import LiveEngine, RefitPolicy, WindowedHawkesRefitter
from repro.news.domains import NewsCategory
from repro.platforms.registry import PAPER_ECOSYSTEM, make_ecosystem
from repro.scenarios import (
    GAB_SPEC,
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.synthesis.params import default_ground_truth, extend_ground_truth
from repro.synthesis.world import WorldConfig

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM

FAST = HawkesConfig(gibbs_iterations=12, gibbs_burn_in=4)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtin_presets_registered(self):
        names = scenario_names()
        assert {"minimal", "web-centipede", "gab", "election-week",
                "bot-amplification"} <= set(names)
        assert names == tuple(sorted(names))

    def test_get_by_name_and_id(self):
        by_name = get_scenario("gab")
        assert get_scenario("gab@v1") is by_name
        assert get_scenario(by_name) is by_name  # pass-through
        assert by_name.scenario_id == "gab@v1"
        assert by_name.k == 4

    def test_get_version_mismatch(self):
        with pytest.raises(KeyError, match="gab@v1"):
            get_scenario("gab@v9")

    def test_get_unknown_lists_known(self):
        with pytest.raises(KeyError, match="web-centipede"):
            get_scenario("nope")

    def test_register_refuses_silent_clobber(self):
        existing = get_scenario("minimal")
        different = dataclasses.replace(existing, title="changed")
        with pytest.raises(ValueError, match="replace=True"):
            register_scenario(different)
        # Re-registering the identical scenario is an idempotent no-op.
        assert register_scenario(existing) is existing

    def test_all_scenarios_sorted(self):
        scenarios = all_scenarios()
        assert [s.name for s in scenarios] == sorted(s.name
                                                     for s in scenarios)

    def test_scenarios_payload_shape(self):
        payload = scenarios_payload()
        assert payload["count"] == len(all_scenarios())
        gab = next(s for s in payload["scenarios"] if s["name"] == "gab")
        assert gab["k"] == 4
        assert gab["processes"] == ["Reddit", "/pol/", "Twitter", "Gab"]
        assert gab["id"] == "gab@v1"


# ---------------------------------------------------------------------------
# web-centipede golden: the paper preset is bare Study(), bit for bit
# ---------------------------------------------------------------------------

class TestWebCentipedeGolden:
    def test_preset_pins_study_defaults(self):
        scenario = get_scenario("web-centipede")
        assert scenario.world == WorldConfig()
        assert scenario.hawkes == HawkesConfig()
        assert scenario.method == "gibbs"
        assert scenario.ecosystem is PAPER_ECOSYSTEM
        assert scenario.ecosystem.processes == HAWKES_PROCESSES

    def test_fits_identical_to_bare_study(self, collected):
        base = Study.from_data(collected, hawkes=FAST, method="em",
                               max_urls=10)
        via = Study.from_data(collected, scenario="web-centipede",
                              hawkes=FAST, method="em", max_urls=10)
        assert via.ecosystem is PAPER_ECOSYSTEM
        assert (influence_payload(via.influence())
                == influence_payload(base.influence()))
        assert (base.table(10).to_payload()
                == via.table(10).to_payload())

    def test_scenario_key_isolated_from_legacy_keys(self, collected):
        base = Study.from_data(collected, hawkes=FAST, method="em")
        via = Study.from_data(collected, scenario="web-centipede",
                              hawkes=FAST, method="em")
        # Bare sessions keep their legacy keys (no scenario entry at
        # all), while presets cache under their own key space.
        assert "scenario" not in base._world_params()
        assert via._world_params()["scenario"] == "web-centipede@v1"
        assert base.stage_key("world") != via.stage_key("world")
        assert base.stage_key("fits") != via.stage_key("fits")

    def test_seed_override_replaces_scenario_seed(self):
        study = Study(scenario="minimal", seed=99)
        assert study.world_config.seed == 99
        assert (study.world_config.n_stories_alternative
                == get_scenario("minimal").world.n_stories_alternative)


# ---------------------------------------------------------------------------
# Ground-truth extension
# ---------------------------------------------------------------------------

class TestExtendGroundTruth:
    def test_appends_one_process_per_spec(self):
        base = default_ground_truth()
        k = len(base.processes)
        truth = extend_ground_truth((GAB_SPEC,))
        assert truth.processes == base.processes + ("Gab",)
        assert truth.weights_alternative.shape == (k + 1, k + 1)
        assert truth.weights_mainstream.shape == (k + 1, k + 1)
        assert truth.background_alternative.shape == (k + 1,)
        assert truth.extra_platform_names == ("Gab",)

    def test_coupling_layout(self):
        base = default_ground_truth()
        k = len(base.processes)
        truth = extend_ground_truth((GAB_SPEC,))
        weights = truth.weights_alternative
        assert weights[k, k] == pytest.approx(GAB_SPEC.self_excitation)
        assert weights[k, 0] == pytest.approx(GAB_SPEC.coupling)
        assert weights[0, k] == pytest.approx(GAB_SPEC.incoming_weight)
        np.testing.assert_allclose(weights[:k, :k],
                                   base.weights_alternative)
        assert truth.background_alternative[k] == pytest.approx(
            GAB_SPEC.background_alternative)
        assert truth.background_mainstream[k] == pytest.approx(
            GAB_SPEC.background_mainstream)

    def test_duplicate_process_rejected(self):
        twin = dataclasses.replace(GAB_SPEC, key="gab2")
        with pytest.raises(ValueError):
            extend_ground_truth((GAB_SPEC, twin))


# ---------------------------------------------------------------------------
# Generalized corpus selection rule
# ---------------------------------------------------------------------------

def _cascade(url, *processes):
    return UrlCascade(url=url, category=ALT,
                      events=tuple((float(i), p)
                                   for i, p in enumerate(processes)))


class TestSelectUrlsRule:
    PROCESSES = ("Reddit", "/pol/", "Twitter", "Gab")

    def select(self, cascades, **kwargs):
        return select_urls(cascades, processes=self.PROCESSES,
                           require_all=("Twitter", "/pol/"),
                           **kwargs)

    def test_require_any_over_extras(self):
        qualifying = _cascade("a", "Twitter", "/pol/", "Gab")
        missing_any = _cascade("b", "Twitter", "/pol/")
        missing_all = _cascade("c", "Twitter", "Gab")
        kept = self.select([qualifying, missing_any, missing_all],
                           require_any=("Reddit", "Gab"))
        assert [c.url for c in kept] == ["a"]

    def test_empty_require_any_disables_clause(self):
        pair_only = _cascade("b", "Twitter", "/pol/")
        kept = self.select([pair_only], require_any=())
        assert [c.url for c in kept] == ["b"]

    def test_defaults_reproduce_paper_rule(self, cascades):
        legacy = select_urls(cascades)
        eco = PAPER_ECOSYSTEM
        general = select_urls(cascades, processes=eco.processes,
                              require_all=eco.require_all,
                              require_any=eco.require_any)
        assert [c.url for c in legacy] == [c.url for c in general]


# ---------------------------------------------------------------------------
# gab end-to-end: K=4 tables, influence, service, live
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gab_scenario():
    scenario = get_scenario("gab")
    world = dataclasses.replace(
        scenario.world,
        n_stories_alternative=150, n_stories_mainstream=450,
        n_twitter_users=250, n_reddit_users=200, n_generic_subreddits=30)
    return dataclasses.replace(scenario, world=world)


@pytest.fixture(scope="module")
def gab_study(gab_scenario):
    return Study(scenario=gab_scenario, hawkes=FAST, max_urls=12)


class TestGabEndToEnd:
    def test_world_materializes_gab_posts(self, gab_study):
        world = gab_study.world
        assert "gab" in world.extras
        assert len(world.extras["gab"].posts) > 0
        assert world.extras["gab"].ambient_posts > 0
        data = gab_study.data
        assert "gab" in data.extras
        assert len(data.extras["gab"]) == len(world.extras["gab"].posts)

    def test_tables_grow_a_gab_row(self, gab_study):
        t1 = gab_study.table(1)
        assert "Gab" in {row[0] for row in t1.rows}
        t2 = gab_study.table(2)
        assert "Gab" in {row[0] for row in t2.rows}
        t8 = gab_study.table(8)
        assert any(row[0] == "Gab vs Twitter" for row in t8.rows)

    def test_sequence_tables_adapt_to_four_slices(self, gab_study):
        t10 = gab_study.table(10)
        # Full orderings now need all four slices, so every sequence
        # spells out four hops; Gab has no single-letter paper code and
        # renders by name.
        for row in t10.rows:
            assert row[0].count("→") == 3
        t9 = gab_study.table(9)
        assert any("Gab" in row[0] for row in t9.rows)

    def test_influence_is_4x4(self, gab_study):
        result = gab_study.influence()
        assert result.processes == ("Reddit", "/pol/", "Twitter", "Gab")
        stack = result.weight_stack(ALT)
        assert stack.shape[1:] == (4, 4)
        payload = influence_payload(result)
        assert len(payload["processes"]) == 4
        means = payload["categories"]["alternative"]["mean_weights"]
        assert len(means) == 4 and len(means[0]) == 4

    def test_report_renders_four_process_section(self, gab_study):
        report = gab_study.report()
        assert "Gab" in report
        assert "/16 weight cells differ" in report
        assert "W(Twitter→Twitter)" in report

    def test_corpus_uses_merged_rule(self, gab_study):
        for cascade in gab_study.corpus:
            present = {process for _, process in cascade.events}
            assert {"Twitter", "/pol/"} <= present
            assert present & {"Reddit", "Gab"}

    def test_claims_scope_to_the_ecosystem(self, gab_study, gab_scenario):
        # K=4: claims naming The_Donald or ranking across the paper's
        # eight processes do not apply; every other claim runs cleanly.
        study = Study(scenario=gab_scenario, max_urls=8,
                      store=gab_study.store)
        assert study.method == "em"
        results = run_claims(study)
        processes = set(study.ecosystem.processes)
        for result in results:
            outside = not set(result.claim.processes) <= processes
            assert (result.passed is None) == outside, result
            assert not result.detail.startswith("error:"), result
        not_applicable = {r.claim.claim_id for r in results
                          if r.passed is None}
        assert "table11.twitter-top-background" in not_applicable


class TestGabService:
    @pytest.fixture(scope="class")
    def service(self, gab_study):
        service = StudyService(gab_study, port=0)
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        yield service
        service.shutdown()
        service.close()
        thread.join(timeout=5)

    def _get(self, service, path):
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_scenarios_endpoint(self, service):
        status, body = self._get(service, "/scenarios")
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == len(all_scenarios())
        assert any(s["name"] == "gab" for s in payload["scenarios"])

    def test_influence_serves_four_processes(self, service):
        status, body = self._get(service, "/influence")
        assert status == 200
        payload = json.loads(body)
        assert payload["processes"] == ["Reddit", "/pol/", "Twitter", "Gab"]

    def test_gab_is_a_valid_filter(self, service):
        status, body = self._get(service, "/influence?source=Gab")
        assert status == 200
        cells = json.loads(body)["cells"]
        assert cells and all(c["source"] == "Gab" for c in cells)

    def test_paper_only_process_rejected(self, service):
        # The_Donald is a process of the paper's 8-axis ecosystem, not
        # of gab's merged 4-axis one: the filter validates against the
        # study's ecosystem, so it is a 400 here.
        status, _ = self._get(service, "/influence?source=The_Donald")
        assert status == 400


class TestGabLive:
    @pytest.fixture(scope="class")
    def engine(self, gab_study, gab_scenario):
        engine = LiveEngine(ecosystem=gab_scenario.ecosystem)
        for record in gab_study.data.merged().records:
            engine.process(record)
        return engine

    def test_aggregators_carry_gab_slice(self, engine, gab_study):
        assert "Gab" in engine.domains.counters
        top = engine.domains.top_domains("Gab", ALT, 5)
        assert top  # Gab is alternative-leaning: its slice has domains

    def test_live_first_hops_equal_batch(self, engine, gab_study):
        from repro.analysis import sequences
        slices = gab_study.data.sequence_slices()
        assert "Gab" in slices
        for category in (ALT, MAIN):
            batch = sequences.first_hop_distribution(slices, category)
            assert engine.first_hops.first_hop(category) == batch
            batch_triples = sequences.triplet_distribution(slices, category)
            assert engine.first_hops.triplets(category) == batch_triples

    def test_assembler_routes_through_process_of(self, engine, gab_study):
        cascades = engine.cascades.cascades()
        seen = {process for cascade in cascades
                for _, process in cascade.events}
        assert seen == {"Reddit", "/pol/", "Twitter", "Gab"}
        batch = {c.url: c.events for c in gab_study.cascades}
        live = {c.url: c.events for c in cascades}
        assert live == batch

    def test_windowed_refit_is_4x4(self, engine, gab_scenario):
        refitter = WindowedHawkesRefitter(
            policy=RefitPolicy(max_urls=8, method="em",
                               window_seconds=1e10),
            config=FAST,
            ecosystem=gab_scenario.ecosystem)
        now = engine.stream_time + refitter.policy.quiet_seconds + 1
        result = refitter.refit(engine.cascades, now)
        assert result is not None
        assert result.processes == ("Reddit", "/pol/", "Twitter", "Gab")
        assert result.fits[0].weights.shape == (4, 4)

    def test_engine_hands_ecosystem_to_refitter(self, gab_scenario):
        refitter = WindowedHawkesRefitter(config=FAST)
        engine = LiveEngine(refitter=refitter,
                            ecosystem=gab_scenario.ecosystem)
        assert refitter.ecosystem is gab_scenario.ecosystem
        assert engine.cascades.processes == frozenset(
            gab_scenario.ecosystem.processes)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestScenariosCli:
    def test_list_json_smoke(self, capsys):
        from repro.cli import main
        assert main(["scenarios", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(json.dumps(scenarios_payload()))

    def test_list_plain(self, capsys):
        from repro.cli import main
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "gab@v1" in out and "K=4" in out
        assert "web-centipede@v1" in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        from repro.cli import main
        assert main(["scenarios", "run", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err
