"""Fast-kernel vs naive-loop equivalence for the Hawkes statistical core.

The naive reference implementations below are straight transcriptions of
the historical per-event Python loops the vectorized kernels replaced.
They pin down two contracts:

* **EM is bit-identical**: the batched EM program (``fit_em`` is its
  one-cascade call) must reproduce the historical EM output exactly
  (``np.array_equal``, not ``allclose``) — the rewrite is a pure
  algebraic reorganization.  ``naive_fit_em`` is the one frozen EM
  reference.
* **Gibbs is distributionally equivalent**: the segmented attribution
  sampler draws from the same conditional law as the historical
  per-event ``multinomial`` sampler, so posterior means agree across
  seeds within Monte-Carlo tolerance (the draw *streams* differ by
  design).
"""

import numpy as np
import pytest
from scipy.special import gammaln

from repro.core.events import DiscreteEvents
from repro.core.hawkes import kernels
from repro.core.hawkes.basis import DirichletLagBasis, LogBinnedLagBasis
from repro.core.hawkes.batched import BatchedParentStructure, PackedCascades
from repro.core.hawkes.inference import (
    Priors,
    _initial_state,
    fit_em,
    fit_gibbs,
)
from repro.core.hawkes.model import (
    HawkesParams,
    discrete_log_likelihood,
    expected_rate,
)
from repro.core.hawkes.simulation import simulate_branching

from gibbs_reference import sample_parent_attributions
from parent_reference import ParentStructure


# ---------------------------------------------------------------------------
# Naive reference implementations (historical per-event loops)
# ---------------------------------------------------------------------------

class NaiveParentStructure:
    """Loop-built candidate arrays, as the original implementation did."""

    def __init__(self, events, basis):
        self.events = events
        self.basis = basis
        ev_bins = events.bins
        self.cand_src, self.cand_lag = [], []
        self.cand_cnt, self.cand_bucket = [], []
        for m in range(len(events)):
            t = int(ev_bins[m])
            lo = np.searchsorted(ev_bins, t - basis.max_lag, side="left")
            hi = np.searchsorted(ev_bins, t, side="left")
            idx = np.arange(lo, hi)
            lags = (t - ev_bins[idx]).astype(np.int64)
            self.cand_src.append(events.processes[idx].astype(np.int64))
            self.cand_lag.append(lags)
            self.cand_cnt.append(events.counts[idx].astype(np.float64))
            self.cand_bucket.append(basis.bucket_of[lags - 1])
        sizes = [len(src) for src in self.cand_src]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        if self.offsets[-1]:
            self.flat_src = np.concatenate(self.cand_src)
            self.flat_lag = np.concatenate(self.cand_lag)
            self.flat_cnt = np.concatenate(self.cand_cnt)
            self.flat_bucket = np.concatenate(self.cand_bucket)
            self.flat_dst = np.repeat(
                events.processes.astype(np.int64), sizes)
        else:
            self.flat_src = np.empty(0, dtype=np.int64)
            self.flat_lag = np.empty(0, dtype=np.int64)
            self.flat_cnt = np.empty(0, dtype=np.float64)
            self.flat_bucket = np.empty(0, dtype=np.int64)
            self.flat_dst = np.empty(0, dtype=np.int64)

    def all_candidate_values(self, weights, lag_pmf):
        if not len(self.flat_src):
            return np.empty(0, dtype=np.float64)
        return (self.flat_cnt
                * weights[self.flat_src, self.flat_dst]
                * lag_pmf[self.flat_src, self.flat_dst, self.flat_lag - 1])

    def exposure(self, lag_cdf):
        events = self.events
        k_procs = events.n_processes
        out = np.zeros((k_procs, k_procs))
        remaining = events.n_bins - 1 - events.bins
        capped = np.minimum(remaining, self.basis.max_lag)
        for m in range(len(events)):
            cap = int(capped[m])
            if cap <= 0:
                continue
            src = int(events.processes[m])
            out[src, :] += events.counts[m] * lag_cdf[src, :, cap - 1]
        return out


def naive_expected_rate(params, events, query_bins=None):
    if query_bins is None:
        query_bins = np.unique(events.bins)
    query_bins = np.asarray(query_bins, dtype=np.int64)
    kernel = params.branching_kernel()
    rates = np.tile(params.background, (len(query_bins), 1))
    if not len(events):
        return rates
    ev_bins = events.bins
    for qi, t in enumerate(query_bins):
        lo = np.searchsorted(ev_bins, t - params.max_lag, side="left")
        hi = np.searchsorted(ev_bins, t, side="left")
        for m in range(lo, hi):
            lag = int(t - ev_bins[m])
            src = int(events.processes[m])
            rates[qi, :] += events.counts[m] * kernel[src, :, lag - 1]
    return rates


def naive_rate_integral(params, events):
    total = params.background * events.n_bins
    if not len(events):
        return total
    cdf = np.cumsum(params.impulse, axis=2)
    remaining = events.n_bins - 1 - events.bins
    capped = np.minimum(remaining, params.max_lag)
    for m in range(len(events)):
        cap = int(capped[m])
        if cap <= 0:
            continue
        src = int(events.processes[m])
        total += (events.counts[m] * params.weights[src, :]
                  * cdf[src, :, cap - 1])
    return total


def naive_log_likelihood(params, events):
    integral = float(naive_rate_integral(params, events).sum())
    if not len(events):
        return -integral
    rates = naive_expected_rate(params, events)
    uniq = np.unique(events.bins)
    row_of = {int(t): i for i, t in enumerate(uniq)}
    log_term = 0.0
    for m in range(len(events)):
        lam = rates[row_of[int(events.bins[m])], int(events.processes[m])]
        if lam <= 0:
            return -np.inf
        count = int(events.counts[m])
        log_term += count * np.log(lam) - float(gammaln(count + 1))
    return log_term - integral


def naive_fit_em(events, max_lag, basis=None, priors=None,
                 max_iterations=200, tol=1e-6):
    """Transcription of the historical EM fitter (per-event loop kernels)."""
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    k_procs = events.n_processes
    structure = NaiveParentStructure(events, basis)
    background, weights, buckets = _initial_state(events, basis, priors)

    previous_ll = -np.inf
    iterations_run = 0
    for iteration in range(max_iterations):
        iterations_run = iteration + 1
        lag_pmf = basis.expand(buckets)
        z_background = np.zeros(k_procs)
        flat_vals = structure.all_candidate_values(weights, lag_pmf)
        offsets = structure.offsets
        counts = events.counts.astype(np.float64)
        dst_all = events.processes.astype(np.int64)
        if len(flat_vals):
            seg_sums = np.add.reduceat(
                np.concatenate([flat_vals, [0.0]]), offsets[:-1])
            seg_sums[offsets[:-1] == offsets[1:]] = 0.0
        else:
            seg_sums = np.zeros(len(events))
        totals = background[dst_all] + seg_sums
        safe = totals > 0
        bg_resp = np.where(safe, counts * background[dst_all]
                           / np.where(safe, totals, 1.0), counts)
        np.add.at(z_background, dst_all, bg_resp)
        z_weight = np.zeros((k_procs, k_procs))
        z_bucket = np.zeros((k_procs, k_procs, basis.n_buckets))
        if len(flat_vals):
            scale = np.where(safe, counts / np.where(safe, totals, 1.0),
                             0.0)
            flat_resp = flat_vals * np.repeat(scale, np.diff(offsets))
            np.add.at(z_weight, (structure.flat_src, structure.flat_dst),
                      flat_resp)
            np.add.at(z_bucket,
                      (structure.flat_src, structure.flat_dst,
                       structure.flat_bucket), flat_resp)
        background = ((priors.background_shape - 1.0 + z_background)
                      / (priors.background_rate + events.n_bins))
        background = np.maximum(background, 1e-12)
        lag_cdf = np.cumsum(lag_pmf, axis=2)
        exposure = structure.exposure(lag_cdf)
        weights = ((priors.weight_shape - 1.0 + z_weight)
                   / (priors.weight_rate + exposure))
        weights = np.maximum(weights, 0.0)
        conc = priors.impulse_concentration - 1.0 + z_bucket
        conc = np.maximum(conc, 1e-12)
        buckets = conc / conc.sum(axis=2, keepdims=True)

        params = HawkesParams(background=background, weights=weights,
                              impulse=basis.expand(buckets))
        current_ll = naive_log_likelihood(params, events)
        if abs(current_ll - previous_ll) < tol * (1 + abs(previous_ll)):
            previous_ll = current_ll
            break
        previous_ll = current_ll

    params = HawkesParams(background=background, weights=weights,
                          impulse=basis.expand(buckets))
    return params, previous_ll, iterations_run


def naive_fit_gibbs(events, max_lag, basis=None, priors=None,
                    n_iterations=120, burn_in=40, rng=None):
    """Transcription of the historical per-event multinomial sampler."""
    rng = rng or np.random.default_rng()
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    k_procs = events.n_processes
    structure = NaiveParentStructure(events, basis)
    background, weights, buckets = _initial_state(events, basis, priors)

    kept_bg, kept_w, kept_buckets = [], [], []
    for sweep in range(n_iterations):
        lag_pmf = basis.expand(buckets)
        z_background = np.zeros(k_procs)
        z_weight = np.zeros((k_procs, k_procs))
        z_bucket = np.zeros((k_procs, k_procs, basis.n_buckets))
        flat_vals = structure.all_candidate_values(weights, lag_pmf)
        flat_draws = np.zeros(len(flat_vals))
        offsets = structure.offsets
        for m in range(len(events)):
            vals = flat_vals[offsets[m]:offsets[m + 1]]
            count = int(events.counts[m])
            dst = int(events.processes[m])
            total = background[dst] + vals.sum()
            if total <= 0:
                z_background[dst] += count
                continue
            probs = np.empty(len(vals) + 1)
            probs[0] = background[dst]
            probs[1:] = vals
            draws = rng.multinomial(count, probs / total)
            z_background[dst] += draws[0]
            if len(draws) > 1 and draws[1:].any():
                flat_draws[offsets[m]:offsets[m + 1]] = draws[1:]
        if len(flat_draws):
            np.add.at(z_weight, (structure.flat_src, structure.flat_dst),
                      flat_draws)
            np.add.at(z_bucket,
                      (structure.flat_src, structure.flat_dst,
                       structure.flat_bucket), flat_draws)
        background = rng.gamma(
            priors.background_shape + z_background,
            1.0 / (priors.background_rate + events.n_bins))
        lag_cdf = np.cumsum(lag_pmf, axis=2)
        exposure = structure.exposure(lag_cdf)
        weights = rng.gamma(priors.weight_shape + z_weight,
                            1.0 / (priors.weight_rate + exposure))
        conc = priors.impulse_concentration + z_bucket
        buckets = rng.gamma(conc, 1.0)
        buckets = np.maximum(buckets, 1e-12)
        buckets /= buckets.sum(axis=2, keepdims=True)
        if sweep >= burn_in:
            kept_bg.append(background.copy())
            kept_w.append(weights.copy())
            kept_buckets.append(buckets.copy())
    return (np.mean(kept_bg, axis=0), np.mean(kept_w, axis=0))


def single_structure(events, basis):
    """A batch of one: the packed structure fits and likelihoods run on."""
    return BatchedParentStructure(
        PackedCascades([events], basis.max_lag), basis)


def batched_rate_integral(params, events):
    """Per-process rate integral of one cascade from the likelihood's
    kernels, with every lag its own bucket (as ``discrete_log_likelihood``
    evaluates it)."""
    structure = single_structure(events, DirichletLagBasis(params.max_lag))
    return structure.rate_integrals(
        params.background[None], params.weights[None],
        structure.lag_cdf_rows(params.impulse[None]))[0]


def em_exposure(events, basis, buckets):
    """EM's exposure of one cascade: the exact lag-CDF pass of the
    batched structure, as ``fit_em`` computes it."""
    structure = single_structure(events, basis)
    return structure.exposure_from_cdf(
        structure.lag_cdf_rows(buckets[None]))[0]


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def make_params(k=2, max_lag=30):
    weights = np.array([[0.30, 0.12], [0.06, 0.25]])[:k, :k]
    pmf = np.exp(-np.arange(1, max_lag + 1) / 6.0)
    pmf /= pmf.sum()
    return HawkesParams(
        background=np.array([0.012, 0.008])[:k],
        weights=weights,
        impulse=np.tile(pmf, (k, k, 1)),
    )


@pytest.fixture(scope="module")
def medium_case():
    params = make_params()
    events = simulate_branching(params, 4000, np.random.default_rng(5))
    assert len(events) > 50
    return params, events


# ---------------------------------------------------------------------------
# Structure and model kernels vs naive loops
# ---------------------------------------------------------------------------

class TestParentStructureKernel:
    def test_matches_naive_arrays(self, medium_case):
        _, events = medium_case
        basis = LogBinnedLagBasis(30, 6)
        fast = ParentStructure(events, basis)
        naive = NaiveParentStructure(events, basis)
        assert np.array_equal(fast.offsets, naive.offsets)
        assert np.array_equal(fast.flat_src, naive.flat_src)
        assert np.array_equal(fast.flat_lag, naive.flat_lag)
        assert np.array_equal(fast.flat_cnt, naive.flat_cnt)
        assert np.array_equal(fast.flat_bucket, naive.flat_bucket)
        assert np.array_equal(fast.flat_dst, naive.flat_dst)

    def test_candidate_values_bit_equal(self, medium_case):
        _, events = medium_case
        basis = LogBinnedLagBasis(30, 6)
        fast = ParentStructure(events, basis)
        naive = NaiveParentStructure(events, basis)
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.01, 0.4, (2, 2))
        buckets = rng.dirichlet(np.ones(basis.n_buckets), size=(2, 2))
        assert np.array_equal(
            fast.candidate_values(weights, buckets),
            naive.all_candidate_values(weights, basis.expand(buckets)))

    def test_empty_events(self):
        events = DiscreteEvents.from_pairs([], n_bins=50, n_processes=2)
        structure = ParentStructure(events, DirichletLagBasis(10))
        assert len(structure.flat_src) == 0
        assert structure.offsets.tolist() == [0]
        assert structure.cand_src == []
        vals = structure.candidate_values(
            np.ones((2, 2)), np.full((2, 2, 10), 0.1))
        assert len(vals) == 0

    def test_all_candidates_beyond_max_lag(self):
        events = DiscreteEvents.from_pairs(
            [(0, 0), (50, 1), (100, 0)], n_bins=200, n_processes=2)
        structure = ParentStructure(events, DirichletLagBasis(10))
        assert structure.sizes.tolist() == [0, 0, 0]
        assert len(structure.flat_src) == 0

    def test_single_process(self):
        events = DiscreteEvents.from_pairs(
            [(0, 0), (2, 0), (3, 0)], n_bins=10, n_processes=1)
        structure = ParentStructure(events, DirichletLagBasis(5))
        assert structure.sizes.tolist() == [0, 1, 2]
        vals = structure.candidate_values(
            np.array([[0.5]]), np.full((1, 1, 5), 0.2))
        assert vals == pytest.approx([0.1, 0.1, 0.1])

    def test_exposure_zero_for_cap_nonpositive_rows(self):
        # Event in the final bin has no post-event window at all.
        events = DiscreteEvents.from_pairs(
            [(99, 0)], n_bins=100, n_processes=1)
        assert np.array_equal(
            em_exposure(events, DirichletLagBasis(10),
                        np.full((1, 1, 10), 0.1)),
            np.zeros((1, 1)))

    def test_exposure_bit_equal_to_naive(self, window_end_case):
        events = window_end_case
        for basis in (LogBinnedLagBasis(30, 6), DirichletLagBasis(30)):
            naive = NaiveParentStructure(events, basis)
            for seed in range(3):
                buckets = np.random.default_rng(seed).dirichlet(
                    np.ones(basis.n_buckets), size=(2, 2))
                cdf = np.cumsum(basis.expand(buckets), axis=2)
                assert np.array_equal(em_exposure(events, basis, buckets),
                                      naive.exposure(cdf))

    def test_zero_count_process_row(self):
        # Process 1 never fires: its exposure row still accumulates from
        # nothing and its candidate arrays never reference it as source.
        events = DiscreteEvents.from_pairs(
            [(0, 0), (3, 0)], n_bins=100, n_processes=2)
        basis = DirichletLagBasis(10)
        structure = ParentStructure(events, basis)
        assert not np.any(structure.flat_src == 1)
        buckets = np.full((2, 2, 10), 0.1)
        assert np.all(structure.bucket_exposure(buckets)[1] == 0)
        assert np.all(em_exposure(events, basis, buckets)[1] == 0)


class TestModelKernels:
    def test_expected_rate_bit_equal(self, medium_case):
        params, events = medium_case
        assert np.array_equal(expected_rate(params, events),
                              naive_expected_rate(params, events))

    def test_expected_rate_custom_query_bit_equal(self, medium_case):
        params, events = medium_case
        query = np.arange(0, events.n_bins, 7)
        assert np.array_equal(
            expected_rate(params, events, query_bins=query),
            naive_expected_rate(params, events, query_bins=query))

    def test_rate_integral_bit_equal(self, medium_case):
        params, events = medium_case
        assert np.array_equal(batched_rate_integral(params, events),
                              naive_rate_integral(params, events))

    def test_log_likelihood_bit_equal(self, medium_case):
        params, events = medium_case
        assert (discrete_log_likelihood(params, events)
                == naive_log_likelihood(params, events))

    @pytest.mark.parametrize("k", [1, 8])
    def test_log_likelihood_bit_equal_across_k(self, k):
        # K = 1 sums one rate-integral cell; K = 8 (the paper's process
        # set) sums the per-process integrals in NumPy's pairwise order.
        rng = np.random.default_rng(k)
        pmf = rng.dirichlet(np.ones(30), size=(k, k))
        params = HawkesParams(background=rng.uniform(0.002, 0.01, k),
                              weights=rng.uniform(0.0, 0.6 / k, (k, k)),
                              impulse=pmf)
        events = simulate_branching(params, 3000, np.random.default_rng(7))
        assert len(events) > 20
        assert (discrete_log_likelihood(params, events)
                == naive_log_likelihood(params, events))

    def test_log_likelihood_zero_rate_is_neg_inf(self):
        events = DiscreteEvents.from_pairs([(5, 0)], n_bins=10,
                                           n_processes=1)
        params = HawkesParams(background=np.array([0.0]),
                              weights=np.array([[0.0]]),
                              impulse=np.full((1, 1, 5), 0.2))
        assert discrete_log_likelihood(params, events) == -np.inf

    def test_empty_events_likelihood(self):
        events = DiscreteEvents.from_pairs([], n_bins=100, n_processes=1)
        params = HawkesParams(background=np.array([0.03]),
                              weights=np.array([[0.1]]),
                              impulse=np.full((1, 1, 5), 0.2))
        assert (discrete_log_likelihood(params, events)
                == naive_log_likelihood(params, events))


class TestKernelCaching:
    def test_pickle_drops_kernel_cache(self):
        import pickle

        params = make_params(max_lag=10)
        events = simulate_branching(params, 800, np.random.default_rng(2))
        cold = len(pickle.dumps(events))
        fit_em(events, 10, basis=LogBinnedLagBasis(10, 4),
               max_iterations=3)
        assert len(pickle.dumps(events)) == cold
        clone = pickle.loads(pickle.dumps(events))
        assert np.array_equal(clone.bins, events.bins)
        # The clone fits to the same bits as the original.
        assert (fit_em(clone, 10, basis=LogBinnedLagBasis(10, 4),
                       max_iterations=2).log_likelihood
                == fit_em(events, 10, basis=LogBinnedLagBasis(10, 4),
                          max_iterations=2).log_likelihood)

    def test_add_rates_chunking_preserves_bit_identity(
            self, medium_case, monkeypatch):
        params, events = medium_case
        monkeypatch.setattr(kernels, "_SCATTER_CHUNK", 7)
        query = np.arange(events.n_bins)
        assert np.array_equal(
            expected_rate(params, events, query_bins=query),
            naive_expected_rate(params, events, query_bins=query))


# ---------------------------------------------------------------------------
# Bucket-space (Gibbs) kernels vs the per-lag kernels
# ---------------------------------------------------------------------------

BASES = {"log-binned": LogBinnedLagBasis(30, 6),
         "dirichlet": DirichletLagBasis(30)}


@pytest.fixture(scope="module")
def window_end_case():
    """Events whose last entries sit within ``max_lag`` of the window
    end, so their truncation window covers only part of a bucket."""
    params = make_params()
    events = simulate_branching(params, 400, np.random.default_rng(11))
    tail = [(t, k) for t in (372, 380, 391, 396, 398) for k in (0, 1)]
    pairs = [(int(t), int(k)) for t, k, c in zip(
        events.bins, events.processes, events.counts) for _ in range(c)]
    return DiscreteEvents.from_pairs(pairs + tail, n_bins=400,
                                     n_processes=2)


def random_buckets(basis, seed, k=2):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.01, 0.4, (k, k)),
            rng.dirichlet(np.ones(basis.n_buckets), size=(k, k)))


@pytest.mark.parametrize("basis_name", sorted(BASES))
class TestBucketSpaceKernels:
    def test_candidate_values_bit_equal_to_per_lag(self, medium_case,
                                                   basis_name):
        _, events = medium_case
        basis = BASES[basis_name]
        structure = ParentStructure(events, basis)
        weights, buckets = random_buckets(basis, 0)
        naive = NaiveParentStructure(events, basis)
        assert np.array_equal(
            structure.candidate_values(weights, buckets),
            naive.all_candidate_values(weights, basis.expand(buckets)))

    def test_bincount_tallies_bit_equal_to_add_at(self, medium_case,
                                                  basis_name):
        # Gibbs tallies one np.bincount of the chosen candidates' bucket
        # cells; it must equal the add.at tally of per-candidate counts.
        _, events = medium_case
        basis = BASES[basis_name]
        structure = ParentStructure(events, basis)
        weights, buckets = random_buckets(basis, 1)
        _, flat_draws = sample_parent_attributions(
            structure, np.full(2, 0.01),
            structure.candidate_values(weights, buckets),
            np.random.default_rng(2))
        assert flat_draws.sum() > 0
        z_weight = np.zeros((2, 2))
        z_bucket = np.zeros((2, 2, basis.n_buckets))
        np.add.at(z_weight, (structure.flat_src, structure.flat_dst),
                  flat_draws)
        np.add.at(z_bucket, (structure.flat_src, structure.flat_dst,
                             structure.flat_bucket), flat_draws)
        chosen = np.repeat(np.arange(len(flat_draws)),
                           flat_draws.astype(np.int64))
        tallied_bucket = (
            np.bincount(structure._bucket_index[chosen],
                        minlength=z_bucket.size).reshape(z_bucket.shape)
            + 0.0)
        assert np.array_equal(tallied_bucket.sum(axis=-1), z_weight)
        assert np.array_equal(tallied_bucket, z_bucket)

    def test_closed_form_exposure_matches_per_lag(self, window_end_case,
                                                  basis_name):
        events = window_end_case
        basis = BASES[basis_name]
        structure = ParentStructure(events, basis)
        # Entries within max_lag of the window end; under the log-binned
        # basis some of them cover only part of their cap bucket.
        remaining = events.n_bins - 1 - events.bins
        assert np.any((remaining > 0) & (remaining < basis.max_lag))
        assert basis_name == "dirichlet" or np.any(structure.v_frac < 1.0)
        naive = NaiveParentStructure(events, basis)
        for seed in range(5):
            _, buckets = random_buckets(basis, seed)
            per_lag = naive.exposure(
                np.cumsum(basis.expand(buckets), axis=2))
            closed = structure.bucket_exposure(buckets)
            assert np.allclose(closed, per_lag, rtol=1e-12, atol=0.0)

    def test_same_seed_same_fit_result(self, window_end_case, basis_name):
        basis = BASES[basis_name]
        runs = [fit_gibbs(window_end_case, 30, basis=basis,
                          n_iterations=12, burn_in=4,
                          rng=np.random.default_rng(9))
                for _ in range(2)]
        first, second = runs
        assert np.array_equal(first.background, second.background)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.params.impulse, second.params.impulse)
        assert np.array_equal(first.weight_samples, second.weight_samples)
        assert first.log_likelihood == second.log_likelihood
        assert first.n_iterations == second.n_iterations


# ---------------------------------------------------------------------------
# Fitter-level golden tests
# ---------------------------------------------------------------------------

class TestEmGolden:
    def test_bit_identical_to_historical_em(self, medium_case):
        """The vectorized EM is a pure algebraic reorganization."""
        _, events = medium_case
        basis = LogBinnedLagBasis(30, 6)
        fast = fit_em(events, 30, basis=basis, max_iterations=40)
        naive_params, naive_ll, naive_iters = naive_fit_em(
            events, 30, basis=basis, max_iterations=40)
        assert fast.n_iterations == naive_iters
        assert fast.log_likelihood == naive_ll
        assert np.array_equal(fast.background, naive_params.background)
        assert np.array_equal(fast.weights, naive_params.weights)
        assert np.array_equal(fast.params.impulse, naive_params.impulse)

    def test_bit_identical_with_nondefault_priors(self, medium_case):
        _, events = medium_case
        basis = DirichletLagBasis(30)
        priors = Priors(background_rate=50.0, weight_rate=4.0,
                        impulse_concentration=2.0)
        fast = fit_em(events, 30, basis=basis, priors=priors,
                      max_iterations=12)
        naive_params, naive_ll, _ = naive_fit_em(
            events, 30, basis=basis, priors=priors, max_iterations=12)
        assert fast.log_likelihood == naive_ll
        assert np.array_equal(fast.weights, naive_params.weights)


class TestGibbsEquivalence:
    def test_posterior_means_match_historical_sampler(self, medium_case):
        """Same conditional law, different draw stream: posterior means
        averaged across seeds agree within Monte-Carlo tolerance."""
        _, events = medium_case
        basis = LogBinnedLagBasis(30, 6)
        seeds = [0, 1, 2]
        new_w = np.mean([
            fit_gibbs(events, 30, basis=basis, n_iterations=60, burn_in=20,
                      rng=np.random.default_rng(s),
                      keep_samples=False).weights
            for s in seeds], axis=0)
        old_w = np.mean([
            naive_fit_gibbs(events, 30, basis=basis, n_iterations=60,
                            burn_in=20, rng=np.random.default_rng(s))[1]
            for s in seeds], axis=0)
        assert np.allclose(new_w, old_w, rtol=0.25, atol=0.03)

    def test_attribution_counts_conserved(self, medium_case):
        _, events = medium_case
        basis = LogBinnedLagBasis(30, 6)
        structure = ParentStructure(events, basis)
        background = np.full(2, 0.01)
        flat_vals = structure.candidate_values(
            np.full((2, 2), 0.2),
            np.full((2, 2, basis.n_buckets), 1.0 / basis.n_buckets))
        z_bg, flat_draws = sample_parent_attributions(
            structure, background, flat_vals, np.random.default_rng(0))
        assert z_bg.sum() + flat_draws.sum() == events.total_events
        # Per-entry conservation: each entry's draws sum to its count.
        per_entry = np.add.reduceat(
            np.concatenate([flat_draws, [0.0]]), structure.offsets[:-1])
        per_entry[structure.sizes == 0] = 0.0
        assert np.all(per_entry <= events.counts)

    def test_no_parents_all_background(self):
        events = DiscreteEvents.from_pairs(
            [(0, 0), (50, 1)], n_bins=200, n_processes=2)
        structure = ParentStructure(events, DirichletLagBasis(10))
        flat_vals = structure.candidate_values(
            np.ones((2, 2)), np.full((2, 2, 10), 0.1))
        z_bg, flat_draws = sample_parent_attributions(
            structure, np.array([0.01, 0.01]), flat_vals,
            np.random.default_rng(0))
        assert z_bg.tolist() == [1.0, 1.0]
        assert flat_draws.sum() == 0

    def test_zero_total_mass_falls_back_to_background(self):
        events = DiscreteEvents.from_pairs(
            [(0, 0), (1, 0)], n_bins=10, n_processes=1)
        structure = ParentStructure(events, DirichletLagBasis(5))
        flat_vals = structure.candidate_values(
            np.zeros((1, 1)), np.full((1, 1, 5), 0.2))
        z_bg, flat_draws = sample_parent_attributions(
            structure, np.zeros(1), flat_vals, np.random.default_rng(0))
        assert z_bg.tolist() == [2.0]
        assert flat_draws.sum() == 0

    def test_sampler_deterministic_given_seed(self, medium_case):
        _, events = medium_case
        basis = LogBinnedLagBasis(30, 6)
        runs = [fit_gibbs(events, 30, basis=basis, n_iterations=12,
                          burn_in=4, rng=np.random.default_rng(9))
                for _ in range(2)]
        assert np.array_equal(runs[0].weights, runs[1].weights)
        assert np.array_equal(runs[0].background, runs[1].background)
        assert runs[0].log_likelihood == runs[1].log_likelihood

    def test_single_process_fit(self):
        params = HawkesParams(background=np.array([0.02]),
                              weights=np.array([[0.3]]),
                              impulse=np.tile(
                                  np.full(10, 0.1), (1, 1, 1)))
        events = simulate_branching(params, 2000,
                                    np.random.default_rng(3))
        result = fit_gibbs(events, 10, n_iterations=40, burn_in=10,
                           rng=np.random.default_rng(4))
        assert result.params.n_processes == 1
        assert np.isfinite(result.log_likelihood)


class TestSegmentHelpers:
    def test_segment_ranges(self):
        flat, sizes, offsets = kernels.segment_ranges(
            np.array([0, 2, 5]), np.array([3, 2, 8]))
        assert flat.tolist() == [0, 1, 2, 5, 6, 7]
        assert sizes.tolist() == [3, 0, 3]
        assert offsets.tolist() == [0, 3, 3, 6]

    def test_segment_ranges_empty(self):
        flat, sizes, offsets = kernels.segment_ranges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert len(flat) == 0
        assert offsets.tolist() == [0]
