"""Tests for the dataset store and JSONL persistence."""

import pytest

from repro.collection.store import (
    Dataset,
    DatasetRecord,
    UrlOccurrence,
    _source_family,
    iter_jsonl,
)
from repro.news.domains import NewsCategory
from repro.obs import get_registry

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM


def record(post_id="p1", platform="twitter", community="Twitter",
           author="u1", created_at=100.0, urls=()):
    return DatasetRecord(
        post_id=post_id, platform=platform, community=community,
        author_id=author, created_at=created_at, urls=tuple(urls))


def occ(url="http://breitbart.com/a", domain="breitbart.com",
        category=ALT):
    return UrlOccurrence(url=url, domain=domain, category=category)


@pytest.fixture()
def dataset():
    return Dataset([
        record("p1", community="Twitter", author="u1", created_at=100,
               urls=[occ()]),
        record("p2", community="Twitter", author="u1", created_at=200,
               urls=[occ("http://cnn.com/b", "cnn.com", MAIN)]),
        record("p3", platform="reddit", community="politics", author="u2",
               created_at=150, urls=[occ(), occ("http://cnn.com/b",
                                                "cnn.com", MAIN)]),
        record("p4", platform="4chan", community="/pol/", author=None,
               created_at=300, urls=[occ()]),
    ])


class TestBasics:
    def test_len_and_iter(self, dataset):
        assert len(dataset) == 4
        assert len(list(dataset)) == 4

    def test_add_extend(self):
        ds = Dataset()
        ds.add(record())
        ds.extend([record("p2"), record("p3")])
        assert len(ds) == 3

    def test_filter(self, dataset):
        twitter = dataset.filter(lambda r: r.platform == "twitter")
        assert len(twitter) == 2

    def test_urls_of(self, dataset):
        assert len(dataset.records[2].urls_of(ALT)) == 1
        assert len(dataset.records[2].urls_of(MAIN)) == 1

    def test_negative_timestamp_rejected(self):
        from repro.platforms.base import Post
        with pytest.raises(ValueError):
            Post(post_id="x", platform="t", community="c",
                 author_id=None, created_at=-5, text="")


class TestGroupings:
    def test_url_timestamps_sorted(self, dataset):
        stamps = dataset.url_timestamps()
        times = [t for t, _ in stamps["http://breitbart.com/a"]]
        assert times == sorted(times)
        assert len(times) == 3

    def test_url_timestamps_category_filter(self, dataset):
        alt_stamps = dataset.url_timestamps(ALT)
        assert set(alt_stamps) == {"http://breitbart.com/a"}

    def test_url_categories(self, dataset):
        categories = dataset.url_categories()
        assert categories["http://breitbart.com/a"] == ALT
        assert categories["http://cnn.com/b"] == MAIN

    def test_unique_urls(self, dataset):
        assert dataset.unique_urls() == {"http://breitbart.com/a",
                                         "http://cnn.com/b"}
        assert dataset.unique_urls(MAIN) == {"http://cnn.com/b"}

    def test_url_post_count(self, dataset):
        assert dataset.url_post_count() == 4
        assert dataset.url_post_count(ALT) == 3
        assert dataset.url_post_count(MAIN) == 2


class TestPersistence:
    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "data" / "records.jsonl"
        dataset.save_jsonl(path)
        loaded = Dataset.load_jsonl(path)
        assert len(loaded) == len(dataset)
        assert loaded.records[0] == dataset.records[0]
        assert loaded.records[3].author_id is None

    def test_json_preserves_category_enum(self, dataset, tmp_path):
        path = tmp_path / "r.jsonl"
        dataset.save_jsonl(path)
        loaded = Dataset.load_jsonl(path)
        assert loaded.records[0].urls[0].category is ALT

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(record().to_json() + "\n\n\n")
        assert len(Dataset.load_jsonl(path)) == 1


class TestIterJsonl:
    @pytest.mark.parametrize("name,family", [
        ("tweets-00017", "tweets"),
        ("tweets_2016.12", "tweets"),
        ("reddit", "reddit"),
        ("4chan", "4chan"),          # leading digits are not a shard id
        ("2016", "2016"),            # all digits: keep the stem
    ])
    def test_source_family(self, name, family, tmp_path):
        assert _source_family(tmp_path / f"{name}.jsonl") == family

    def test_skip_labels_by_source_family(self, tmp_path):
        path = tmp_path / "tweets-00017.jsonl"
        records = [record(f"p{i}", created_at=float(i)) for i in range(5)]
        lines = [r.to_json() for r in records] + ["{broken"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        counter = get_registry().counter(
            "repro_ingest_malformed_total",
            source="tweets", reason="malformed")
        before = counter.value
        assert list(iter_jsonl(path, on_malformed="skip")) == records
        assert counter.value == before + 1

    def test_on_malformed_validated_eagerly(self, tmp_path):
        # Raised by the call itself, before the stream is iterated.
        with pytest.raises(ValueError, match="on_malformed"):
            iter_jsonl(tmp_path / "missing.jsonl", on_malformed="bogus")
