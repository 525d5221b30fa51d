"""Exactness of the precomputed draws used by world synthesis.

Every fast path must consume the same generator outputs, in the same
order, and return the same values as the library call it replaces.
Each test runs the fast path and the library call on two generators
with one seed and compares results and the generators' final states.
"""

from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest

from repro.core.hawkes import HawkesParams, simulate_branching
from repro.core.hawkes.simulation import LagSampler
from repro.platforms.fourchan import FourchanPlatform
from repro.sampling import CategoricalCDF, WeightedChoice
from repro.synthesis.cascades import CascadeEngine
from repro.synthesis.diurnal import DiurnalProfile
from repro.synthesis.params import GroundTruth
from repro.synthesis.users import UserArchetype, UserPopulation
from repro.synthesis.world import WorldConfig, build_world


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _random_p(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.dirichlet(np.full(n, 0.7))
    p[rng.random(n) < 0.2] = 0.0  # zero-probability categories
    if not p.any():
        p[0] = 1.0
    return p / p.sum()


class TestCategoricalCDF:
    @pytest.mark.parametrize("seed", range(8))
    def test_scalar_draws_match_choice(self, seed):
        source = np.random.default_rng(100 + seed)
        fast, slow = _twins(seed)
        for _ in range(20):
            p = _random_p(source, int(source.integers(1, 30)))
            draw = CategoricalCDF(p)
            for _ in range(25):
                assert draw.draw(fast) == int(slow.choice(len(p), p=p))
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_sized_draws_match_choice(self, seed):
        source = np.random.default_rng(200 + seed)
        fast, slow = _twins(seed)
        for _ in range(20):
            p = _random_p(source, int(source.integers(1, 800)))
            size = int(source.integers(0, 40))
            got = CategoricalCDF(p).draws(fast, size)
            want = slow.choice(len(p), size=size, p=p)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_list_p_within_tolerance(self):
        p = [0.2, 0.3, 0.5 + 1e-9]  # off by less than sqrt(eps)
        fast, slow = _twins(3)
        draw = CategoricalCDF(p)
        # choice rescales the cumsum so no uniform can fall past its end.
        assert draw.cdf[-1] == 1.0
        assert [draw.draw(fast) for _ in range(50)] == [
            int(slow.choice(3, p=p)) for _ in range(50)]

    @pytest.mark.parametrize("p", [
        [0.5, 0.5 + 1e-6],           # sum off by more than sqrt(eps)
        [0.5, 0.6, -0.1],            # negative entry
        [0.5, np.nan, 0.5],          # not finite
        [0.5, np.inf],
        [[0.5, 0.5]],                # not 1-dimensional
        [],
    ])
    def test_rejects_what_choice_rejects(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(max(len(p), 1), p=p)
        with pytest.raises(ValueError):
            CategoricalCDF(p)


class TestSizedDraws:
    """The scalar loops rewritten as one sized draw of the same stream."""

    @pytest.mark.parametrize("n", [0, 1, 7, 19])
    def test_vote_coins(self, n):
        fast, slow = _twins(n)
        np.testing.assert_array_equal(fast.random(n),
                                      [slow.random() for _ in range(n)])
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_minute_jitter(self, n):
        fast, slow = _twins(n)
        np.testing.assert_array_equal(fast.uniform(0, 60, size=n),
                                      [slow.uniform(0, 60) for _ in range(n)])
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("size", [None, 1, 50])
    def test_diurnal_seconds(self, size):
        profile = DiurnalProfile()
        fast, slow = _twins(17)
        n = size if size is not None else 1
        hours = slow.choice(24, size=n, p=profile.normalized())
        seconds = hours * 3600 + slow.uniform(0, 3600, size=n)
        want = seconds if size is not None else seconds[0]
        np.testing.assert_array_equal(
            profile.sample_second_of_day(fast, size), want)
        assert fast.bit_generator.state == slow.bit_generator.state


def _params(impulse: np.ndarray) -> HawkesParams:
    k = impulse.shape[0]
    return HawkesParams(background=np.full(k, 0.02),
                        weights=np.full((k, k), 0.3), impulse=impulse)


class TestLagSampler:
    def test_draws_match_choice(self):
        source = np.random.default_rng(5)
        impulse = np.stack([np.stack([_random_p(source, 40)
                                      for _ in range(3)])
                            for _ in range(3)])
        sampler = LagSampler(impulse)
        lags = np.arange(1, 41)
        fast, slow = _twins(9)
        for _ in range(200):
            k, dst = (int(x) for x in source.integers(0, 3, size=2))
            n = int(source.integers(1, 6))
            np.testing.assert_array_equal(
                sampler.draws(fast, k, dst, n),
                slow.choice(lags, size=n, p=impulse[k, dst]))
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_shared_sampler_matches_fresh_one(self):
        params = _params(np.full((2, 2, 30), 1 / 30))
        shared = LagSampler(params.impulse)
        fast, slow = _twins(4)
        for _ in range(5):
            a = simulate_branching(params, 400, fast, lags=shared)
            b = simulate_branching(params, 400, slow)
            np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_sampler_of_another_impulse_rejected(self):
        params = _params(np.full((2, 2, 30), 1 / 30))
        with pytest.raises(ValueError):
            simulate_branching(params, 100, np.random.default_rng(0),
                               lags=LagSampler(params.impulse.copy()))

    @pytest.mark.parametrize("head", [(0.1 + 1e-5, 0.1),   # sums off
                                      (-1e-7, 0.2 + 1e-7)])  # negative
    def test_bad_impulse_row_still_raises(self, head):
        # HawkesParams accepts sums off by 1e-4 and entries down to
        # -1e-6; choice does not, and neither does the lag draw.
        impulse = np.full((2, 2, 10), 0.1)
        impulse[0, 1, :2] = head
        params = _params(impulse)
        with pytest.raises(ValueError):
            simulate_branching(params, 2000, np.random.default_rng(1))


class TestLocalHomes:
    def test_bad_local_home_probs_raise(self):
        truth = GroundTruth(local_home_probs=(0.3, 0.2, 0.05, 0.4, 0.06))
        with pytest.raises(ValueError):
            CascadeEngine(truth, np.random.default_rng(0))

    def test_wrong_length_raises(self):
        truth = GroundTruth(local_home_probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            CascadeEngine(truth, np.random.default_rng(0))


def _pool_weights(population: UserPopulation, alternative: bool):
    """Author pool and weights by the documented rule (activity x affinity)."""
    members, weights = [], []
    for profile in population.profiles:
        if profile.archetype == UserArchetype.MIXED:
            affinity = (profile.alt_preference if alternative
                        else 1.0 - profile.alt_preference)
        else:
            own = (UserArchetype.ALTERNATIVE_ONLY if alternative
                   else UserArchetype.MAINSTREAM_ONLY)
            affinity = 1.0 if profile.archetype == own else 0.0
        if affinity > 0:
            members.append(profile)
            weights.append(profile.activity * affinity)
    return members, weights


class TestWeightedChoice:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_random_choices(self, seed):
        source = random.Random(seed)
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(30):
            n = source.randrange(1, 50)
            weights = [source.random() * (source.random() < 0.8)
                       for _ in range(n)]
            weights[0] += 1e-3
            population = list(range(n))
            draw = WeightedChoice(population, weights)
            for _ in range(20):
                assert draw.draw(fast) == slow.choices(
                    population, weights=weights, k=1)[0]
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_sample_author_matches_random_choices(self, seed):
        population = UserPopulation("u", 300, seed=seed)
        slow = random.Random()
        slow.setstate(population._rng.getstate())
        for i in range(400):
            alternative = bool(i % 3 == 0)
            members, weights = _pool_weights(population, alternative)
            want = slow.choices(members, weights=weights, k=1)[0]
            assert population.sample_author(alternative) is want

    def test_rejects_what_choices_rejects(self):
        with pytest.raises(ValueError):
            WeightedChoice([1, 2], [0.0, 0.0])
        with pytest.raises(ValueError):
            WeightedChoice([1, 2], [1.0])
        with pytest.raises(ValueError):
            WeightedChoice([1, 2], [1.0, float("inf")])


def _reference_live(chan: FourchanPlatform, board: str) -> list:
    return [chan.threads[tid] for tid in chan.boards[board].thread_ids
            if chan.threads[tid].is_live]


def _reference_catalog(chan: FourchanPlatform, board: str) -> list:
    return sorted(_reference_live(chan, board),
                  key=lambda t: t.last_bumped_at, reverse=True)


class TestFourchanLiveIndex:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_operation_sequences(self, seed):
        rng = random.Random(seed)
        chan = FourchanPlatform()
        chan.create_board("pol", thread_capacity=rng.randrange(2, 30),
                          bump_limit=rng.randrange(1, 8))
        chan.create_board("sp", thread_capacity=rng.randrange(2, 10))
        now = 0
        for _ in range(600):
            # Coarse clock steps: many threads share a bump time.
            now += rng.choice((0, 0, 1, 3600, 86400))
            board = rng.choice(("pol", "pol", "sp"))
            op = rng.random()
            live = _reference_live(chan, board)
            if op < 0.3 or not live:
                chan.create_thread(board, "op", now)
            elif op < 0.97:
                thread = rng.choice(live)
                chan.reply(thread.thread_id, "re", now,
                           sage=rng.random() < 0.3)
            else:
                chan.expire_archives(now)
            for name in ("pol", "sp"):
                assert chan._live[name] == _reference_live(chan, name)
                assert chan.catalog(name) == _reference_catalog(chan, name)
        reference = _reference_catalog(chan, "pol")
        assert chan.catalog("pol")[:20] == reference[:20]
        for position, thread in enumerate(reference):
            assert chan.bump_position(thread.thread_id) == position

    def test_ties_keep_creation_order(self):
        chan = FourchanPlatform()
        chan.create_board("pol", thread_capacity=3)
        threads = [chan.create_thread("pol", "op", 100) for _ in range(3)]
        assert chan.catalog("pol") == threads  # equal bumps: oldest first
        chan.create_thread("pol", "op", 100)
        assert not threads[0].is_live  # the oldest of the tie is purged


_TINY = dict(n_stories_alternative=120, n_stories_mainstream=300,
             n_twitter_users=60, n_reddit_users=50, n_generic_subreddits=20)


class TestPickledBeforeTheIndexes:
    """Worlds cached without the live-thread and author indexes."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig(seed=31, **_TINY))

    def _as_old_pickle(self, world):
        old = copy.deepcopy(world)
        del old.fourchan.__dict__["_live"]
        for population in (old.twitter_users, old.reddit_users):
            del population.__dict__["_authors"]
            population._pool = {
                alternative: _pool_weights(population, alternative)
                for alternative in (False, True)}
        return pickle.loads(pickle.dumps(old))

    def test_catalog_and_bump_positions(self, world):
        old = self._as_old_pickle(world)
        for board in world.fourchan.boards:
            new_catalog = world.fourchan.catalog(board)
            old_catalog = old.fourchan.catalog(board)
            assert ([t.thread_id for t in old_catalog]
                    == [t.thread_id for t in new_catalog])
            for thread in new_catalog:
                assert (old.fourchan.bump_position(thread.thread_id)
                        == world.fourchan.bump_position(thread.thread_id))
        # The rebuilt index keeps working as threads come and go.
        for when in range(3):
            old.fourchan.create_thread("sp", "op", 2_000_000_000 + when)
            assert (old.fourchan._live["sp"]
                    == _reference_live(old.fourchan, "sp"))

    def test_author_draws(self, world):
        old = self._as_old_pickle(world)
        new = copy.deepcopy(world)
        for i in range(300):
            alternative = bool(i % 2)
            assert (old.twitter_users.sample_author(alternative).name
                    == new.twitter_users.sample_author(alternative).name)
            assert (old.reddit_users.sample_author(alternative).name
                    == new.reddit_users.sample_author(alternative).name)
        assert not hasattr(old.twitter_users, "_pool")
