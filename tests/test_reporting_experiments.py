"""Tests for the EXPERIMENTS.md generator."""

from repro.claims import EXPERIMENTS
from repro.reporting.experiments import (
    generate_markdown,
    render_experiment,
    write_experiments_md,
)


class TestRenderExperiment:
    def test_with_artifact(self, tmp_path):
        experiment = EXPERIMENTS[0]
        (tmp_path / experiment.artifact).write_text("MEASURED CONTENT")
        text = render_experiment(experiment, tmp_path)
        assert experiment.exp_id in text
        assert "MEASURED CONTENT" in text
        assert "```" in text

    def test_without_artifact(self, tmp_path):
        experiment = EXPERIMENTS[0]
        text = render_experiment(experiment, tmp_path)
        assert "not generated yet" in text

    def test_paper_values_listed(self, tmp_path):
        experiment = EXPERIMENTS[0]
        text = render_experiment(experiment, tmp_path)
        for value in experiment.paper_values:
            assert value in text

    def test_claims_listed(self, tmp_path):
        for experiment in EXPERIMENTS:
            text = render_experiment(experiment, tmp_path)
            for claim in experiment.claims:
                assert f"`{claim.claim_id}`: {claim.text}" in text


class TestGenerateMarkdown:
    def test_index_contains_all(self, tmp_path):
        text = generate_markdown(tmp_path)
        for experiment in EXPERIMENTS:
            assert experiment.exp_id in text

    def test_write(self, tmp_path):
        out = tmp_path / "EXP.md"
        path = write_experiments_md(out, tmp_path)
        assert path == out
        assert out.read_text().startswith("# EXPERIMENTS")

    def test_uses_real_results_when_present(self, tmp_path):
        # Two registered experiment artifacts plus a bench-only file,
        # which generate_markdown must ignore.
        present = EXPERIMENTS[:2]
        assert present[0].artifact != present[1].artifact
        for i, experiment in enumerate(present):
            (tmp_path / experiment.artifact).write_text(f"MEASURED {i}\n")
        (tmp_path / "BENCH_fits.json").write_text("{}")
        text = generate_markdown(tmp_path)
        for i, experiment in enumerate(present):
            assert f"(`results/{experiment.artifact}`):" in text
            assert f"```\nMEASURED {i}\n```" in text
        assert "BENCH_fits.json" not in text
        missing = sum(f"`results/{e.artifact}` not generated yet" in text
                      for e in EXPERIMENTS)
        assert missing == len(EXPERIMENTS) - len(present)
