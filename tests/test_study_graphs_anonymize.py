"""Tests for the study report and anonymization."""

import pytest

from repro.collection.anonymize import (
    AnonymizationKey,
    anonymize_dataset,
    anonymize_record,
)
from repro.collection.store import Dataset, DatasetRecord, UrlOccurrence
from repro.api import Study
from repro.config import HawkesConfig
from repro.news.domains import NewsCategory
from repro.reporting.study import generate_study_report


class TestStudyReport:
    @pytest.fixture(scope="class")
    def study(self, collected):
        return Study.from_data(collected, max_urls=10, fit_seed=1,
                               hawkes=HawkesConfig(gibbs_iterations=30,
                                                   gibbs_burn_in=10))

    @pytest.fixture(scope="class")
    def report(self, study):
        return generate_study_report(study, include_influence=True)

    def test_contains_all_sections(self, report):
        for heading in ("Dataset overview", "Top domains",
                        "Per-user behavior", "Temporal dynamics",
                        "Appearance sequences", "Influence estimation"):
            assert heading in report

    def test_mentions_key_entities(self, report):
        assert "breitbart.com" in report
        assert "Twitter" in report
        assert "W(Twitter→Twitter)" in report

    def test_write_to_disk(self, study, tmp_path):
        path = study.write_report(tmp_path / "report.md",
                                  include_influence=False)
        content = path.read_text()
        assert content.startswith("# Web Centipede study report")
        assert "Influence estimation" not in content

    def test_skip_influence_flag(self, study):
        report = generate_study_report(study, include_influence=False)
        assert "Influence estimation" not in report


def record(author, post_id="p1"):
    return DatasetRecord(
        post_id=post_id, platform="twitter", community="Twitter",
        author_id=author, created_at=1.0,
        urls=(UrlOccurrence("http://rt.com/a", "rt.com",
                            NewsCategory.ALTERNATIVE),))


class TestAnonymization:
    def test_pseudonym_stable_under_key(self):
        key = AnonymizationKey(key=b"s3cret")
        assert key.pseudonym("alice") == key.pseudonym("alice")
        assert key.pseudonym("alice") != key.pseudonym("bob")

    def test_different_keys_unlinkable(self):
        a = AnonymizationKey(key=b"one")
        b = AnonymizationKey(key=b"two")
        assert a.pseudonym("alice") != b.pseudonym("alice")

    def test_anonymous_record_unchanged(self):
        anonymous = DatasetRecord(
            post_id="x", platform="4chan", community="/pol/",
            author_id=None, created_at=0.0, urls=())
        key = AnonymizationKey.generate()
        assert anonymize_record(anonymous, key) is anonymous

    def test_dataset_groupings_preserved(self):
        dataset = Dataset([record("alice", "p1"), record("alice", "p2"),
                           record("bob", "p3")])
        anonymized, key = anonymize_dataset(dataset)
        groups: dict[str, list[DatasetRecord]] = {}
        for rec in anonymized:
            groups.setdefault(rec.author_id, []).append(rec)
        assert len(groups) == 2
        sizes = sorted(len(v) for v in groups.values())
        assert sizes == [1, 2]
        # original ids no longer present
        assert "alice" not in groups
        # but recomputable with the key
        assert key.pseudonym("alice") in groups

    def test_everything_else_untouched(self):
        dataset = Dataset([record("alice")])
        anonymized, _ = anonymize_dataset(dataset)
        original = dataset.records[0]
        cloned = anonymized.records[0]
        assert cloned.post_id == original.post_id
        assert cloned.urls == original.urls
        assert cloned.created_at == original.created_at

    def test_generated_keys_differ(self):
        assert (AnonymizationKey.generate().key
                != AnonymizationKey.generate().key)
