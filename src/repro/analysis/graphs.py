"""Figure 8: the news-ecosystem source graphs.

For each news category the graph links the news domains to the
platforms.  For every URL, an edge connects its domain to the platform
where it first appeared, and — first hop only — that platform to the
second platform that picked it up.  Edge weights count unique URLs, so
the graph is two count maps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from ..collection.store import Dataset
from ..news.domains import NewsCategory
from .sequences import first_appearances, sequence_of


class EcosystemGraph(NamedTuple):
    """The Figure 8 edge weights for one category."""

    #: domain -> Counter(first platform -> unique URLs), first-seen order.
    domains: dict[str, Counter]
    #: Counter((first platform, second platform) -> unique URLs).
    hops: Counter


def build_ecosystem_graph(named_slices: dict[str, Dataset],
                          category: NewsCategory,
                          url_domains: dict[str, str]) -> EcosystemGraph:
    """Build the Figure 8 graph for one category.

    ``url_domains`` maps each URL to its news domain (obtainable from
    any dataset's records).
    """
    domains: dict[str, Counter] = {}
    hops: Counter = Counter()
    for url, platform_firsts in first_appearances(
            named_slices, category).items():
        domain = url_domains.get(url)
        if domain is None:
            continue
        sequence = sequence_of(platform_firsts)
        domains.setdefault(domain, Counter())[sequence[0]] += 1
        if len(sequence) > 1:
            hops[sequence[:2]] += 1
    return EcosystemGraph(domains, hops)


@dataclass(frozen=True)
class DomainFirstPlatform:
    """Where one domain's URLs tend to appear first."""

    domain: str
    shares: dict[str, float]   # platform -> share of the domain's URLs
    total: int

    @property
    def dominant(self) -> str:
        return max(self.shares, key=lambda p: self.shares[p])


def domain_first_platform_shares(graph: EcosystemGraph,
                                 platforms: tuple[str, ...],
                                 ) -> list[DomainFirstPlatform]:
    """Per-domain distribution over first-appearance platforms.

    This is the quantity the paper reads off Figure 8 ("breitbart.com
    URLs appear first on the six selected subreddits more often...").
    Rows run by total, largest first; equal totals keep first-seen order.
    """
    rows = []
    for domain, firsts in graph.domains.items():
        total = sum(firsts[p] for p in platforms)
        if not total:
            continue
        rows.append(DomainFirstPlatform(
            domain=domain,
            shares={p: firsts[p] / total for p in platforms},
            total=total,
        ))
    rows.sort(key=lambda r: r.total, reverse=True)
    return rows


def platform_hop_weights(graph: EcosystemGraph,
                         platforms: tuple[str, ...],
                         ) -> dict[tuple[str, str], int]:
    """Unique-URL counts on platform-to-platform first-hop edges."""
    return {(src, dst): graph.hops[(src, dst)]
            for src in platforms for dst in platforms
            if (src, dst) in graph.hops}
