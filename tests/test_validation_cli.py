"""Tests for the paper-claim registry and the CLI."""

from pathlib import Path

import pytest

from repro.api import Study
from repro.claims import (
    BENCH_FILE,
    CLAIMS,
    EXPERIMENTS,
    ClaimResult,
    by_id,
    evaluate,
    format_results,
    run_claims,
)
from repro.cli import build_parser, main
from repro.config import HawkesConfig
from repro.platforms.registry import PAPER_ECOSYSTEM

GOLDEN_CLAIMS = Path(__file__).parent / "golden" / "claims_small.txt"


def _assert_golden(results):
    """Each result ran cleanly and has the status pinned for its id."""
    golden = dict(line.split() for line in
                  GOLDEN_CLAIMS.read_text(encoding="utf-8").splitlines())
    for result in results:
        assert not result.detail.startswith("error:"), result
        assert result.status == golden[result.claim.claim_id], result


class TestPaperRegistry:
    def test_all_experiments_present(self):
        ids = {e.exp_id for e in EXPERIMENTS}
        for n in range(1, 12):
            assert f"Table {n}" in ids
        for n in range(1, 12):
            assert f"Figure {n}" in ids

    def test_by_id(self):
        experiment = by_id("table 4")
        assert experiment.exp_id == "Table 4"

    def test_by_id_unknown(self):
        with pytest.raises(KeyError):
            by_id("Table 99")

    def test_by_id_abbreviations(self):
        assert by_id("fig 10").exp_id == "Figure 10"
        assert by_id("tab 1").exp_id == "Table 1"
        for query in ("fig", "Table 1 extra", "10", " 10"):
            with pytest.raises(KeyError):
                by_id(query)

    def test_every_experiment_has_claims_and_artifact(self):
        for experiment in EXPERIMENTS:
            assert experiment.claims
            assert experiment.artifact.startswith(experiment.slug + "_")
            assert experiment.paper_values

    def test_claim_ids_unique_and_prefixed(self):
        ids = [claim.claim_id for claim in CLAIMS]
        assert len(ids) == len(set(ids))
        for claim in CLAIMS:
            assert claim.claim_id.startswith(by_id(claim.experiment).slug
                                             + ".")
            assert claim.text
            assert set(claim.processes) <= set(PAPER_ECOSYSTEM.processes)


@pytest.fixture(scope="module")
def small_study(collected):
    return Study.from_data(
        collected, hawkes=HawkesConfig(gibbs_iterations=20, gibbs_burn_in=6),
        fit_seed=0, max_urls=16)


class TestValidation:
    def test_registry_matches_golden(self, small_study):
        """Every claim runs on the small world; PASS/FAIL pinned per id."""
        results = run_claims(small_study)
        assert [r.claim for r in results] == list(CLAIMS)
        for result in results:
            assert result.passed is not None, result.claim.claim_id
            assert not result.detail.startswith("error:"), result
        observed = "".join(f"{r.claim.claim_id} {r.status}\n"
                           for r in results)
        assert observed == GOLDEN_CLAIMS.read_text(encoding="utf-8")

    def test_collected_checks_run(self, small_study):
        """The dataset claims (Tables 1-10, Figures 1-9) match the golden."""
        results = run_claims(small_study, include_fits=False)
        assert results
        _assert_golden(results)

    def test_influence_checks_run(self, small_study):
        """The Hawkes-fit claims (Table 11, Figures 10-11) match the golden."""
        results = [evaluate(claim, small_study) for claim in CLAIMS
                   if by_id(claim.experiment).needs_fits]
        assert {r.claim.experiment for r in results} == {
            e.exp_id for e in EXPERIMENTS if e.needs_fits}
        _assert_golden(results)

    def test_skip_fits_drops_fit_experiments(self, small_study):
        results = run_claims(small_study, include_fits=False)
        experiments = {r.claim.experiment for r in results}
        assert experiments == {e.exp_id for e in EXPERIMENTS
                               if not e.needs_fits}

    def test_checks_never_crash(self):
        """A degenerate dataset yields failing checks, not exceptions."""
        from repro.api.tables import build_table
        from repro.collection.store import Dataset
        from repro.collection.recrawl import CategoryRecrawl, RecrawlStats

        class Empty:
            twitter = Dataset()
            reddit = Dataset()
            fourchan = Dataset()
            reddit_six = Dataset()
            reddit_other = Dataset()
            pol = Dataset()
            fourchan_other = Dataset()
            recrawl = RecrawlStats(alternative=CategoryRecrawl(),
                                   mainstream=CategoryRecrawl())

            def sequence_slices(self):
                return {"/pol/": Dataset(), "Reddit": Dataset(),
                        "Twitter": Dataset()}

            def url_domains(self):
                return {}

            def extra_slices(self):
                return {}

        class EmptyStudy:
            ecosystem = PAPER_ECOSYSTEM
            data = Empty()

            def table(self, table_id):
                return build_table(table_id, self.data)

            def corpus_summary(self):
                raise ValueError("no fits")

            def aggregate(self):
                raise ValueError("no fits")

            def percentages(self, category):
                raise ValueError("no fits")

        results = run_claims(EmptyStudy())
        assert len(results) == len(CLAIMS)
        assert all(isinstance(r, ClaimResult) and r.detail for r in results)
        assert not all(r.passed for r in results)

    def test_summary_format(self):
        claim = CLAIMS[0]
        text = format_results([ClaimResult(claim, True, "ok"),
                               ClaimResult(claim, False, "nope"),
                               ClaimResult(claim, None, "needs processes")])
        assert text.startswith("1/2 claims reproduced; 1 do not apply")
        assert "[PASS]" in text
        assert "[FAIL]" in text
        assert "[N/A]" in text
        assert claim.claim_id in text


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Figure 10" in out

    def test_list_json_shares_endpoint_serializer(self, capsys):
        import json
        from repro.api import experiments_payload
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(json.dumps(experiments_payload()))
        assert payload["count"] == len(EXPERIMENTS)
        assert payload["experiments"][0]["id"] == "Table 1"

    def test_world_command(self, tmp_path, capsys):
        code = main(["world", "--seed", "3", "--stories-alt", "30",
                     "--stories-main", "60", "--twitter-users", "50",
                     "--reddit-users", "50", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "twitter.jsonl").exists()
        assert (tmp_path / "reddit.jsonl").exists()
        assert (tmp_path / "fourchan.jsonl").exists()
        from repro.collection.store import Dataset
        loaded = Dataset.load_jsonl(tmp_path / "twitter.jsonl")
        assert len(loaded) > 0

    def test_experiments_command(self, tmp_path, capsys):
        out_md = tmp_path / "EXP.md"
        code = main(["experiments", "--out", str(out_md),
                     "--results", "results"])
        assert code == 0
        content = out_md.read_text()
        assert "Table 11" in content
        assert "paper vs. measured" in content

    def test_reproduce_unknown(self, capsys):
        assert main(["reproduce", "Table 99"]) == 2

    @pytest.mark.parametrize("query, slug", [("Table 9", "table09"),
                                             ("fig 10", "fig10")])
    def test_reproduce_runs_one_claims_case(self, monkeypatch, capsys,
                                            query, slug):
        calls = []
        monkeypatch.setattr(pytest, "main",
                            lambda argv: calls.append(argv) or 0)
        assert main(["reproduce", query]) == 0
        assert calls == [[BENCH_FILE, "-k", slug, "--benchmark-only", "-q"]]
