"""Golden digests of generated worlds: synthesis must stay bit-identical.

Each case pins the sha256 of every collected record's ``to_json()`` and
of every cascade's ``(url, events, viral)``.  A change to any random
draw, its order, or the float arithmetic around it moves a digest.  The
cases cover the paper's materializers on three small worlds, the
generic materializer (a small ``gab`` world), the diurnal reshaping
of event times, and a world large enough that /pol/ overflows its
capacity, so 4chan threads are purged and their archives expire.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.pipeline import collect
from repro.scenarios import get_scenario
from repro.synthesis.params import GroundTruth
from repro.synthesis.world import WorldConfig, build_world

_SMOKE = dict(n_stories_alternative=50, n_stories_mainstream=120,
              n_twitter_users=80, n_reddit_users=60)


def _config(case: str) -> WorldConfig:
    if case == "gab":
        return dataclasses.replace(
            get_scenario("gab").world, n_stories_alternative=60,
            n_stories_mainstream=150, n_twitter_users=80,
            n_reddit_users=60, n_generic_subreddits=30)
    if case == "diurnal":
        return WorldConfig(seed=7003, **_SMOKE,
                           ground_truth=GroundTruth(diurnal_enabled=True))
    if case == "purge":
        return WorldConfig(seed=7004, n_stories_alternative=300,
                           n_stories_mainstream=900, n_twitter_users=250,
                           n_reddit_users=200, n_generic_subreddits=30)
    return WorldConfig(seed=int(case), **_SMOKE)


def world_digests(config: WorldConfig) -> tuple[str, str]:
    """(collected records digest, cascades digest) of one world."""
    world = build_world(config)
    records = hashlib.sha256()
    for record in collect(world).merged().records:
        records.update(record.to_json().encode())
        records.update(b"\n")
    cascades = hashlib.sha256()
    for cascade in world.cascades:
        cascades.update(
            repr((cascade.url, cascade.events, cascade.viral)).encode())
        cascades.update(b"\n")
    return records.hexdigest(), cascades.hexdigest()


#: case -> (records sha256, cascades sha256)
GOLDEN = {
    "7000": (
        "592c9470b1e588c8f169d5bbc996afd238b4c5d70614456d9780fbb49c7ab1e9",
        "d40b7777fc34f2e596de81eee0d20e1466e4f53bb100420f065ca9f2c2a8fccc"),
    "7001": (
        "80acb6b4c8524e89db0207c55472b2430c8fdd8de392006845a6a4dd5a70887a",
        "b37f861aa04ed6d85043e2453a0b05dcba0dde58ba25b27fad99ad1e49683059"),
    "7002": (
        "1aa4a3a13ddeced1e13bfe4d22494ac463c4d69d4b02b336b4afb3cd328cb642",
        "cde4ad43d77064eb697b4983701d80530dfa0680cdca8138da09045ef0ed21a1"),
    "gab": (
        "5ebaf87221b309d27fc2e943b64293e18eaed16f301af32f567c8a71eed9fa2f",
        "88451047f21058ad5ea5fd1af2f6cc4321b8f526442e9e6bff58bc3610725741"),
    "diurnal": (
        "5fb1f9a177e34c55cb199c7930ff5f2eb715daf26c7390ade3d08cdfe5707631",
        "375c026ef2c5509446689793e25b90e3dfe1cf6d70bbb86e5e9eeb397569f63e"),
    "purge": (
        "e59721632548cab3172685c1e329c72ce8c1c9cbd047fe03c72dfe15586213b2",
        "6dc74c768cff2863a19a4e6ce13f1ec13c298cedf3ffc461cdbe17e6c11f14b0"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_world_digest(case):
    assert world_digests(_config(case)) == GOLDEN[case]
