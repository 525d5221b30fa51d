"""Tests for sequence tables (9, 10) and the Figure 8 ecosystem graph."""

import pytest

from repro.analysis import graphs, sequences
from repro.collection.store import Dataset, DatasetRecord, UrlOccurrence
from repro.config import PLATFORM_POL, PLATFORM_REDDIT, PLATFORM_TWITTER
from repro.news.domains import NewsCategory

ALT = NewsCategory.ALTERNATIVE


def rec(post_id, t, u, community, platform="x"):
    return DatasetRecord(
        post_id=post_id, platform=platform, community=community,
        author_id="u", created_at=float(t),
        urls=(UrlOccurrence(u, "breitbart.com", ALT),))


@pytest.fixture()
def slices():
    """URL layout:
    a: T(0) -> R(10) -> 4(20)   (triple)
    b: R(0) -> T(5)             (pair)
    c: T only
    d: 4(0) -> R(1) -> T(2)     (triple)
    """
    twitter = Dataset([
        rec("t1", 0, "a", "Twitter"),
        rec("t2", 5, "b", "Twitter"),
        rec("t3", 0, "c", "Twitter"),
        rec("t4", 2, "d", "Twitter"),
    ])
    reddit = Dataset([
        rec("r1", 10, "a", "politics"),
        rec("r2", 0, "b", "politics"),
        rec("r3", 1, "d", "news"),
    ])
    pol = Dataset([
        rec("f1", 20, "a", "/pol/"),
        rec("f2", 0, "d", "/pol/"),
    ])
    return {PLATFORM_POL: pol, PLATFORM_REDDIT: reddit,
            PLATFORM_TWITTER: twitter}


class TestFirstAppearances:
    def test_structure(self, slices):
        firsts = sequences.first_appearances(slices, ALT)
        assert set(firsts["a"]) == {PLATFORM_TWITTER, PLATFORM_REDDIT,
                                    PLATFORM_POL}
        assert firsts["a"][PLATFORM_TWITTER] == 0

    def test_sequence_order(self, slices):
        firsts = sequences.first_appearances(slices, ALT)
        assert sequences.sequence_of(firsts["a"]) == (
            PLATFORM_TWITTER, PLATFORM_REDDIT, PLATFORM_POL)
        assert sequences.sequence_of(firsts["d"]) == (
            PLATFORM_POL, PLATFORM_REDDIT, PLATFORM_TWITTER)

    def test_tie_broken_by_name(self):
        firsts = {"B": 0.0, "A": 0.0}
        assert sequences.sequence_of(firsts) == ("A", "B")


class TestTable9:
    def test_first_hop_distribution(self, slices):
        rows = sequences.first_hop_distribution(slices, ALT)
        shares = {r.sequence: r for r in rows}
        assert shares["T only"].count == 1
        assert shares["T→R"].count == 1     # url a
        assert shares["R→T"].count == 1     # url b
        assert shares["4→R"].count == 1     # url d
        total_pct = sum(r.percentage for r in rows)
        assert total_pct == pytest.approx(100.0)

    def test_empty(self):
        rows = sequences.first_hop_distribution(
            {PLATFORM_TWITTER: Dataset()}, ALT)
        assert rows == []


class TestTable10:
    def test_triplets_only(self, slices):
        rows = sequences.triplet_distribution(slices, ALT)
        shares = {r.sequence: r.count for r in rows}
        assert shares == {"T→R→4": 1, "4→R→T": 1}

    def test_head_share(self, slices):
        rows = sequences.triplet_distribution(slices, ALT)
        assert sequences.head_of_sequence_share(rows, "T") == \
            pytest.approx(50.0)
        assert sequences.head_of_sequence_share(rows, "4") == \
            pytest.approx(50.0)
        assert sequences.head_of_sequence_share(rows, "R") == 0.0


class TestFigure8Graph:
    def test_graph_structure(self, slices):
        url_domains = {u: "breitbart.com" for u in "abcd"}
        graph = graphs.build_ecosystem_graph(slices, ALT, url_domains)
        assert list(graph.domains) == ["breitbart.com"]
        # 4 URLs -> domain out-weight 4 split by first platform
        firsts = graph.domains["breitbart.com"]
        assert firsts[PLATFORM_TWITTER] == 2
        assert firsts[PLATFORM_REDDIT] == 1
        assert firsts[PLATFORM_POL] == 1

    def test_first_hop_edges(self, slices):
        url_domains = {u: "breitbart.com" for u in "abcd"}
        graph = graphs.build_ecosystem_graph(slices, ALT, url_domains)
        assert graph.hops[(PLATFORM_TWITTER, PLATFORM_REDDIT)] == 1
        assert graph.hops[(PLATFORM_REDDIT, PLATFORM_TWITTER)] == 1
        assert graph.hops[(PLATFORM_POL, PLATFORM_REDDIT)] == 1

    def test_unknown_domain_urls_skipped(self, slices):
        graph = graphs.build_ecosystem_graph(slices, ALT, {})
        assert graph.domains == {}

    def test_domain_first_platform_shares(self, slices):
        url_domains = {u: "breitbart.com" for u in "abcd"}
        graph = graphs.build_ecosystem_graph(slices, ALT, url_domains)
        rows = graphs.domain_first_platform_shares(
            graph, (PLATFORM_POL, PLATFORM_REDDIT, PLATFORM_TWITTER))
        assert len(rows) == 1
        row = rows[0]
        assert row.total == 4
        assert row.dominant == PLATFORM_TWITTER
        assert row.shares[PLATFORM_TWITTER] == pytest.approx(0.5)

    def test_tied_totals_keep_first_seen_order(self, slices):
        # URLs are first seen in the order a, d (/pol/), b (Reddit),
        # c (Twitter); every domain has one URL, so all totals tie and
        # the rows keep first-seen order, neither sorted nor reversed.
        url_domains = {"a": "breitbart.com", "d": "zerohedge.com",
                       "b": "abc.com", "c": "cnn.com"}
        graph = graphs.build_ecosystem_graph(slices, ALT, url_domains)
        assert list(graph.domains) == list(url_domains.values())
        rows = graphs.domain_first_platform_shares(
            graph, (PLATFORM_POL, PLATFORM_REDDIT, PLATFORM_TWITTER))
        assert [r.domain for r in rows] == list(url_domains.values())
        assert [r.total for r in rows] == [1, 1, 1, 1]
        assert [r.dominant for r in rows] == [
            PLATFORM_TWITTER, PLATFORM_POL, PLATFORM_REDDIT,
            PLATFORM_TWITTER]

    def test_platform_hop_weights(self, slices):
        url_domains = {u: "breitbart.com" for u in "abcd"}
        graph = graphs.build_ecosystem_graph(slices, ALT, url_domains)
        hops = graphs.platform_hop_weights(
            graph, (PLATFORM_POL, PLATFORM_REDDIT, PLATFORM_TWITTER))
        assert hops[(PLATFORM_TWITTER, PLATFORM_REDDIT)] == 1
        assert (PLATFORM_TWITTER, PLATFORM_POL) not in hops
