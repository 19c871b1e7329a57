import math

import numpy as np
import pytest
from conftest import class_probabilities

from bsf import posterior, sampler
from bsf.data import dataset_from_euclidean
from bsf.kernels import EUCLIDEAN_GAUSSIAN, KernelSpec, log_gaussian_kernel
from bsf.oracle import GaussianOracleSpec, generate_gaussian
from bsf.partitions import Partition, canonicalize
from bsf.posterior import DP_MAX_N, BlockWeights, BsfConfig, exact_posterior
from bsf.sampler import (
    ChainState,
    McmcSettings,
    _class_index,
    _pick,
    combined_transition_matrix,
    gibbs_sweep,
    gibbs_sweep_matrix,
    run_chain,
    single_site_matrix,
    split_merge_matrix,
    split_merge_move,
)

SPEC = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0)


def tv_distance(freqs, exact):
    keys = set(freqs) | set(exact)
    return 0.5 * sum(abs(freqs.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)


def test_single_point_chain_is_absorbing():
    data = dataset_from_euclidean([[0.0]])
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5))
    summary = run_chain(data, cfg, McmcSettings(50, 0, 1), seed=0)
    assert all(labels == (0,) for labels in summary.samples)


def test_seed_determinism():
    rng = np.random.default_rng(0)
    data = dataset_from_euclidean(rng.normal(size=(6, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.4))
    a = run_chain(data, cfg, McmcSettings(800, 100, 2), seed=42)
    b = run_chain(data, cfg, McmcSettings(800, 100, 2), seed=42)
    assert a.samples == b.samples
    assert np.array_equal(a.cocluster_counts, b.cocluster_counts)
    assert a.accept_counts == b.accept_counts
    c = run_chain(data, cfg, McmcSettings(800, 100, 2), seed=43)
    assert c.samples != a.samples


def test_burnin_schedule_and_validation():
    data = dataset_from_euclidean([[0.0], [2.0]])
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5))
    one = run_chain(data, cfg, McmcSettings(10, 9, 1), seed=1)
    assert one.n_samples == 1
    with pytest.raises(ValueError):
        McmcSettings(5, 5, 1)
    with pytest.raises(ValueError):
        McmcSettings(5, 1, 0)


# the dense table's list lookup, and the lazy store's lookup and window
LOOKUPS = (DP_MAX_N, 0)


@pytest.mark.parametrize("n", [3, 4, 5])  # Bell(n) = 5, 15, 52 classes
def test_exhaustive_kernels_are_stationary(n, monkeypatch):
    rng = np.random.default_rng(7)
    data = dataset_from_euclidean(rng.normal(size=(n, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.7))
    pi = np.array(list(class_probabilities(exact_posterior(data, cfg, retain=True)).values()))
    for table_max_n in LOOKUPS:
        monkeypatch.setattr(sampler, "DP_MAX_N", table_max_n)
        weights = BlockWeights(data, cfg)
        combined = combined_transition_matrix(weights)
        assert np.abs(combined.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(pi @ combined - pi).max() < 1e-8
        # the split-merge kernel and each single-site Gibbs update are reversible
        kernels = [split_merge_matrix(weights)] + [single_site_matrix(weights, i)
                                                   for i in range(n)]
        for kernel in kernels:
            flux = pi[:, None] * kernel
            assert np.abs(flux - flux.T).max() < 1e-12
        sweep = gibbs_sweep_matrix(weights)
        assert np.abs(pi @ sweep - pi).max() < 1e-12


def test_live_moves_sample_the_exact_kernels(monkeypatch):
    # One move from every class of n = 4, each on a fresh state: the
    # next-class frequencies must follow the exact kernel's row.  This
    # checks the random draws (point order, pair, route bits, uniforms)
    # that the shared ChainState core leaves to the live moves, under
    # both lookups.  Over at most 15 classes, P(TV > tol) <= 2^15
    # exp(-2 draws tol^2) (Bretagnolle-Huber-Carol), about 1e-4 per row.
    n, draws, tol = 4, 2_000, 0.07
    rng = np.random.default_rng(5)
    data = dataset_from_euclidean(rng.normal(size=(n, 1)))
    classes, index = _class_index(n)
    for table_max_n in LOOKUPS:
        monkeypatch.setattr(sampler, "DP_MAX_N", table_max_n)
        weights = BlockWeights(data, BsfConfig(SPEC, log_lambda=math.log(0.7)))
        moves = [(split_merge_matrix(weights), split_merge_move),
                 (gibbs_sweep_matrix(weights), gibbs_sweep)]
        for seed, (exact, move) in enumerate(moves):
            for row, labels in enumerate(classes):
                chain_rng = np.random.default_rng([seed, row])
                counts = np.zeros(len(classes))
                for _ in range(draws):
                    state = ChainState(weights, labels, chain_rng)
                    move(state)
                    counts[index[state.rgs()]] += 1
                tv = 0.5 * np.abs(counts / draws - exact[row]).sum()
                assert tv < tol, (table_max_n, move.__name__, labels)


def test_two_point_chain_matches_stationary_odds():
    data = dataset_from_euclidean([[0.0], [1.0]])
    log_f12 = log_gaussian_kernel(np.zeros(1), np.ones(1), SPEC)
    cfg = BsfConfig(kernel=SPEC, log_delta=0.0, log_lambda=log_f12 - math.log(3.0))
    weights = BlockWeights(data, cfg)
    combined = combined_transition_matrix(weights)
    evals, evecs = np.linalg.eig(combined.T)
    stat = np.real(evecs[:, np.argmax(np.real(evals))])
    stat = stat / stat.sum()
    # classes in RGS order: together (0,0) then split (0,1); odds f12/(dl) = 3
    assert stat[0] / stat[1] == pytest.approx(3.0, abs=1e-10)
    summary = run_chain(data, cfg, McmcSettings(40_000, 2_000, 1), seed=5)
    freqs = summary.class_frequencies()
    assert freqs[(0, 0)] / freqs[(0, 1)] == pytest.approx(3.0, rel=0.1)


def test_split_acceptance_saturates_at_matched_weights():
    # three identical points, prior product tuned so splitting a pair is
    # weight-neutral: the Metropolis ratio is exactly 1
    data = dataset_from_euclidean([[0.0], [0.0], [0.0]])
    log_w = log_gaussian_kernel(np.zeros(1), np.zeros(1), SPEC)
    k_before = 2  # state {0,1} | {2}
    log_dl = math.log(2.0) + log_w - math.log(k_before + 1)
    cfg = BsfConfig(kernel=SPEC, log_delta=0.0, log_lambda=log_dl)
    weights = BlockWeights(data, cfg)
    pair_mask = 0b011
    log_acc = (
        math.log(k_before + 1)
        + weights.block(0b001) + weights.block(0b010) - weights.block(pair_mask)
        + 0.0  # m == 2: no free pattern bits
    )
    assert abs(log_acc) < 1e-12
    # the exact kernel puts the full pick probability on that split
    sm = split_merge_matrix(weights)
    _, classes = _class_index(3)
    row = classes[(0, 0, 1)]
    col = classes[(0, 1, 2)]
    assert sm[row, col] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_empirical_frequencies_match_exact_small_n():
    rng = np.random.default_rng(11)
    data = dataset_from_euclidean(rng.normal(size=(5, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5))
    exact = class_probabilities(exact_posterior(data, cfg, retain=True))
    summary = run_chain(data, cfg, McmcSettings(30_000, 3_000, 1), seed=3)
    assert tv_distance(summary.class_frequencies(), exact) < 0.05


def test_cocluster_blocks_on_separated_data():
    spec = GaussianOracleSpec(
        means=((0.0, 0.0), (40.0, 0.0)),
        covs=(np.eye(2) * 0.25, np.eye(2) * 0.25),
    )
    data, truth = generate_gaussian(spec, 8, seed=21)
    cfg = BsfConfig(kernel=KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0),
                    log_delta=0.0, log_lambda=-40.0)
    summary = run_chain(data, cfg, McmcSettings(4_000, 500, 1), seed=9)
    co = summary.cocluster
    assert np.allclose(np.diag(co), 1.0)
    labels = np.asarray(truth.labels)
    same = labels[:, None] == labels[None, :]
    assert co[~same].max() < 0.01
    assert co[same].min() > 0.95


def test_cache_audit_detects_corruption(monkeypatch):
    # the audit checks what the moves read: the state's list on the dense
    # table, the store's dict otherwise
    rng = np.random.default_rng(3)
    data = dataset_from_euclidean(rng.normal(size=(5, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5))
    for table_max_n in LOOKUPS:
        monkeypatch.setattr(sampler, "DP_MAX_N", table_max_n)
        weights = BlockWeights(data, cfg)
        state = ChainState(weights, [0, 0, 1, 1, 2], np.random.default_rng(0))
        assert (state.table is None) == (table_max_n == 0)
        assert state.audit_cache() <= 1e-12
        stored = weights._cache if state.table is None else state.table
        stored[state.slots[1]] = 123.0  # sabotage
        with pytest.raises(RuntimeError):
            state.audit_cache()


def test_pricing_window_and_cache_bound_leave_the_chain_unchanged(monkeypatch):
    # n = 17 is above DP_MAX_N, so every block is priced lazily
    rng = np.random.default_rng(11)
    data = dataset_from_euclidean(rng.normal(size=(17, 1)) * 2.0)
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))

    def chain():
        return run_chain(data, cfg, McmcSettings(60, 10, 1), seed=5)

    windowed = chain()
    monkeypatch.setattr(sampler, "PRICE_WINDOW", 1)
    alone = chain()
    monkeypatch.undo()
    cap = 256
    monkeypatch.setattr(posterior, "LOG_DET_CACHE_CAP", cap)
    stored = []
    store = BlockWeights._store

    def spy(self, masks, vals):
        store(self, masks, vals)
        stored.append(len(self._cache) - cap - len(masks))

    monkeypatch.setattr(BlockWeights, "_store", spy)
    bounded = chain()
    for other in (alone, bounded):
        assert other.samples == windowed.samples
        assert other.k_counts == windowed.k_counts
        assert np.array_equal(other.cocluster_counts, windowed.cocluster_counts)
        assert other.accept_counts == windowed.accept_counts
    assert windowed.pricing["stacked"] > windowed.pricing["stacks"] > 0
    assert alone.pricing["stacked"] == alone.pricing["stacks"] == 0
    assert windowed.pricing["evicted"] == alone.pricing["evicted"] == 0
    assert bounded.pricing["evicted"] > 0
    assert max(stored) <= 0  # never past the cap plus the stack just stored


@pytest.mark.parametrize("n", [14, 16])
def test_chain_is_the_same_on_both_lookups(n, monkeypatch):
    # up to DP_MAX_N the chain reads the dense table; the lazy store
    # prices the same blocks to the same bits
    rng = np.random.default_rng(n)
    data = dataset_from_euclidean(rng.normal(size=(n, 1)) * 2.0)
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))
    assert n <= DP_MAX_N
    chains = []
    for table_max_n in LOOKUPS:
        monkeypatch.setattr(sampler, "DP_MAX_N", table_max_n)
        chains.append(run_chain(data, cfg, McmcSettings(40, 5, 1), seed=3))
    full, lazy = chains
    assert full.samples == lazy.samples
    assert full.k_counts == lazy.k_counts
    assert np.array_equal(full.cocluster_counts, lazy.cocluster_counts)
    assert full.accept_counts == lazy.accept_counts
    assert full.pricing["stacks"] == 0 < lazy.pricing["stacks"]
    assert len(set(full.samples)) > 2  # the chain moved


def test_chain_on_the_full_table_never_misses():
    rng = np.random.default_rng(12)
    data = dataset_from_euclidean(rng.normal(size=(7, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))
    summary = run_chain(data, cfg, McmcSettings(50, 0, 1), seed=1)
    assert summary.pricing == {"alone": 0, "stacked": 0, "stacks": 0, "evicted": 0}


def _reference_iteration(state, probs_seen):
    # One iteration written out without the memo or the ChainState site
    # methods: the other points' blocks sorted ascending, weights.block
    # lookups, numpy normalization, one scalar uniform per site and
    # searchsorted over the cumulative sums.
    rng, w = state.rng, state.weights
    for i in rng.permutation(state.n).tolist():
        bit = 1 << i
        others = sorted(mask & ~bit for mask in state.slots if mask & ~bit)
        scores = [w.block(mask | bit) - w.block(mask) for mask in others]
        scores.append(math.log(len(others) + 1) + w.block(bit))
        arr = np.asarray(scores, dtype=float)
        probs = np.exp(arr - arr.max())
        probs /= probs.sum()
        probs_seen.append(probs.tolist())
        choice = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        if choice < len(others):
            others[choice] |= bit
        else:  # the new singleton, scored last; the clamp
            others.append(bit)
        state.slots = sorted(others)
    split_merge_move(state)


def _labels_of(blocks, n):
    return canonicalize([next(k for k, mask in enumerate(blocks) if mask >> t & 1)
                         for t in range(n)]).labels


@pytest.mark.parametrize("n", [12, 17])  # the full table; lazy stacked pricing
def test_moves_match_the_reference_sweep_in_lockstep(n):
    rng = np.random.default_rng(n)
    data = dataset_from_euclidean(rng.normal(size=(n, 1)) * 2.0)
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))
    live_weights, ref_weights = BlockWeights(data, cfg), BlockWeights(data, cfg)
    live = ChainState(live_weights, range(n), np.random.default_rng(9))
    ref = ChainState(ref_weights, range(n), np.random.default_rng(9))
    ref.block = ref_weights.block  # split-merge through BlockWeights too
    assert (live.table is not None) == (n <= DP_MAX_N)
    live_probs, ref_probs = [], []
    remove = live.remove

    def spy(i, upcoming=()):
        probs = remove(i, upcoming)
        live_probs.append(list(probs))
        return probs

    live.remove = spy
    ks = set()
    for _ in range(50):
        gibbs_sweep(live)
        split_merge_move(live)
        _reference_iteration(ref, ref_probs)
        assert live_probs == ref_probs
        assert live.slots == ref.slots == sorted(ref.slots)
        assert live.rgs() == _labels_of(ref.slots, n)
        ks.add(live.K)
    assert len(ks) > 2  # the chain moved
    assert live.memo_hits > 0  # the memo answered some of the sites compared
    assert live.rng.random() == ref.rng.random()  # both used the same draws


def test_pick_matches_clamped_searchsorted():
    tenths = [0.1] * 10  # running sums end at 0.9999999999999999
    assert math.fsum(tenths) == 1.0 and float(np.cumsum(tenths)[-1]) < 1.0
    last = float(np.cumsum(tenths)[-1])
    cases = [
        ([0.25, 0.25, 0.5], 0.0),
        ([0.0, 0.5, 0.5], 0.0),  # a zero weight ahead of u = 0
        ([0.25, 0.25, 0.5], 0.25),  # u exactly a running sum
        ([0.25, 0.25, 0.5], 0.5),
        (tenths, float(np.cumsum(tenths)[4])),
        (tenths, last),  # at the last sum: the clamp
        (tenths, float(np.nextafter(last, 1.0))),  # above it
        ([1.0], 0.3),
    ]
    rng = np.random.default_rng(4)
    for k in (2, 5, 9):
        for _ in range(200):
            probs = np.exp(rng.normal(size=k) * 3)
            probs /= probs.sum()
            cases.append((probs.tolist(), float(rng.random())))
            cases.append((probs.tolist(), float(np.cumsum(probs)[rng.integers(k)])))
    for probs, u in cases:
        want = int(np.searchsorted(np.cumsum(probs), u, side="right"))
        assert _pick(probs, u) == min(want, len(probs) - 1), (probs, u)


@pytest.mark.parametrize("n", [14, 17])  # the full table; the lazy store
def test_memo_leaves_the_chain_unchanged_and_stays_bounded(n, monkeypatch):
    rng = np.random.default_rng(n)
    data = dataset_from_euclidean(rng.normal(size=(n, 1)) * 2.0)
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))
    sizes = []
    remove = ChainState.remove

    def spy(self, i, upcoming=()):
        probs = remove(self, i, upcoming)
        sizes.append(len(self.memo))
        return probs

    monkeypatch.setattr(ChainState, "remove", spy)
    chains, default_cap = {}, sampler.MEMO_CAP
    for cap in (default_cap, 8, 0):
        monkeypatch.setattr(sampler, "MEMO_CAP", cap)
        sizes.clear()
        chains[cap] = run_chain(data, cfg, McmcSettings(60, 5, 1), seed=4)
        assert max(sizes) <= cap
    default = chains.pop(default_cap)
    for cap, other in chains.items():
        assert other.samples == default.samples
        assert other.k_counts == default.k_counts
        assert np.array_equal(other.cocluster_counts, default.cocluster_counts)
        assert other.accept_counts == default.accept_counts
        assert other.memo["hits"] + other.memo["misses"] == 60 * n
    assert default.memo["hits"] > chains[8].memo["hits"] > chains[0].memo["hits"] == 0
    assert len(set(default.samples)) > 2  # the chain moved


def test_summary_equals_the_per_sample_accumulation():
    rng = np.random.default_rng(6)
    n = 7
    data = dataset_from_euclidean(rng.normal(size=(n, 1)) * 2.0)
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))
    summary = run_chain(data, cfg, McmcSettings(300, 20, 3), seed=2)
    k_counts: dict[int, int] = {}
    cocluster = np.zeros((n, n), dtype=np.int64)
    for labels in summary.samples:
        k = max(labels) + 1
        k_counts[k] = k_counts.get(k, 0) + 1
        z = np.asarray(labels)
        cocluster += (z[:, None] == z[None, :])
    assert summary.n_samples == len(summary.samples) == 94
    assert list(summary.k_counts.items()) == list(k_counts.items())
    assert summary.cocluster_counts.dtype == cocluster.dtype
    assert summary.cocluster_counts.tobytes() == cocluster.tobytes()
    assert len(set(summary.samples)) > 2  # the chain moved
