import builtins
import math

import numpy as np
import pytest
from conftest import class_probabilities

from bsf.data import dataset_from_euclidean
from bsf.kernels import EUCLIDEAN_GAUSSIAN, KernelSpec, log_gaussian_kernel
from bsf.linalg import subset_log_det, sum_in_order
from bsf.oracle import GaussianOracleSpec, posterior_concentration_log_bound, separation_stats
from bsf.partitions import Partition, canonicalize, hamming_distance, rgs_chunks
from bsf import posterior
from bsf.posterior import (
    BlockWeights,
    BsfConfig,
    ConfigError,
    class_weight_chunks,
    exact_posterior,
    expected_hamming,
)
from bsf.theory import (verify_forest_factorization, verify_ratio_bound_coarse,
                        verify_ratio_bound_fine)

SPEC = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0)
_BUILTIN_SUM = builtins.sum


def _partitions(n):
    return [Partition(tuple(row)) for chunk in rgs_chunks(n) for row in chunk.tolist()]


def two_point_setup(odds=9.0):
    data = dataset_from_euclidean([[0.0], [1.0]])
    log_f12 = log_gaussian_kernel(np.zeros(1), np.ones(1), SPEC)
    cfg = BsfConfig(kernel=SPEC, log_delta=0.0, log_lambda=log_f12 - math.log(odds))
    return data, cfg, log_f12


def test_two_point_labeled_weights():
    data, cfg, log_f12 = two_point_setup()
    weights = BlockWeights(data, cfg)
    together = weights.labeled(Partition((0, 0)))
    split = weights.labeled(Partition((0, 1)))
    log_dl = cfg.log_delta_lambda
    assert together == pytest.approx(log_dl + math.log(2) + log_f12, abs=1e-12)
    assert split == pytest.approx(2 * log_dl, abs=1e-12)


def test_two_point_class_ratio_and_posterior():
    data, cfg, log_f12 = two_point_setup(odds=9.0)
    weights = BlockWeights(data, cfg)
    ratio = weights.class_weight(Partition((0, 0))) - weights.class_weight(Partition((0, 1)))
    assert ratio == pytest.approx(math.log(9.0), abs=1e-12)
    table = exact_posterior(data, cfg, retain=True)
    probs = class_probabilities(table)
    assert probs[(0, 0)] == pytest.approx(0.9, abs=1e-12)
    assert probs[(0, 1)] == pytest.approx(0.1, abs=1e-12)
    assert table.map_partition.labels == (0, 0)


def test_all_singletons_weight():
    rng = np.random.default_rng(3)
    data = dataset_from_euclidean(rng.normal(size=(6, 2)))
    cfg = BsfConfig(kernel=SPEC, log_delta=math.log(0.7), log_lambda=math.log(0.2))
    got = BlockWeights(data, cfg).labeled(Partition(tuple(range(6))))
    assert got == pytest.approx(6 * cfg.log_delta_lambda, abs=1e-12)


def test_class_weight_adds_log_k_factorial():
    rng = np.random.default_rng(4)
    data = dataset_from_euclidean(rng.normal(size=(5, 1)))
    weights = BlockWeights(data, BsfConfig(SPEC, log_lambda=math.log(0.5)))
    one = canonicalize([0, 0, 0, 0, 0])
    assert weights.class_weight(one) == pytest.approx(weights.labeled(one), abs=1e-12)
    three = canonicalize([0, 1, 2, 0, 1])
    assert weights.class_weight(three) == pytest.approx(
        weights.labeled(three) + math.log(6), abs=1e-12
    )


def test_class_weight_reads_the_dense_table_once_built():
    rng = np.random.default_rng(7)
    data = dataset_from_euclidean(rng.normal(size=(7, 2)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))
    part = canonicalize([0, 1, 0, 2, 1, 1, 2])
    weights = BlockWeights(data, cfg)
    weights.precompute()
    counters = dict(weights.counters)
    got = weights.class_weight(part)
    assert type(got) is float
    assert weights.counters == counters
    assert not any(mask in weights for mask in range(1 << data.n))
    # the same bits as a store that prices the blocks on demand
    assert got == BlockWeights(data, cfg).class_weight(part)


def test_within_block_index_permutation_invariance():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 2))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.8))
    part = canonicalize([0, 0, 0, 1, 1, 1])
    base = BlockWeights(dataset_from_euclidean(pts), cfg).labeled(part)
    # swap points inside each block; the partition is unchanged
    perm = [2, 0, 1, 5, 4, 3]
    permuted = BlockWeights(dataset_from_euclidean(pts[perm]), cfg).labeled(part)
    assert permuted == pytest.approx(base, abs=1e-10)


def test_global_label_invariance():
    rng = np.random.default_rng(6)
    data = dataset_from_euclidean(rng.normal(size=(7, 2)))
    weights = BlockWeights(data, BsfConfig(SPEC, log_lambda=math.log(0.4)))
    raw = [0, 1, 2, 0, 1, 2, 1]
    base = weights.class_weight(canonicalize(raw))
    for _ in range(20):
        perm = rng.permutation(3)
        relabeled = canonicalize([int(perm[lab]) for lab in raw])
        assert weights.class_weight(relabeled) == base


def test_symmetric_three_points_equal_probabilities():
    # equilateral triangle: all pairwise kernels equal
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    data = dataset_from_euclidean(pts)
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5))
    table = exact_posterior(data, cfg, retain=True)
    two_cluster = [p for labels, p in class_probabilities(table).items() if max(labels) == 1]
    assert len(two_cluster) == 3
    assert max(two_cluster) - min(two_cluster) < 1e-14


def test_map_tie_breaks_to_lexicographic_smallest():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    data = dataset_from_euclidean(pts)
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5))
    table = exact_posterior(data, cfg, only_K=2)
    assert table.map_partition.labels == (0, 0, 1)


def test_posterior_ratio_properties():
    rng = np.random.default_rng(7)
    data = dataset_from_euclidean(rng.normal(size=(6, 2)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.6))
    weights = BlockWeights(data, cfg)

    def log_ratio(a, b):
        return weights.class_weight(a) - weights.class_weight(b)

    p1 = canonicalize([0, 0, 1, 1, 2, 2])
    p2 = canonicalize([0, 1, 0, 1, 0, 1])
    assert log_ratio(p1, p1) == 0.0
    assert log_ratio(p1, p2) == pytest.approx(-log_ratio(p2, p1), abs=1e-12)
    probs = class_probabilities(exact_posterior(data, cfg, retain=True))
    quotient = math.log(probs[p1.labels]) - math.log(probs[p2.labels])
    assert log_ratio(p1, p2) == pytest.approx(quotient, abs=1e-9)


def test_normalization_and_k_marginals():
    rng = np.random.default_rng(8)
    data = dataset_from_euclidean(rng.normal(size=(7, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))
    table = exact_posterior(data, cfg, retain=True)
    assert sum(class_probabilities(table).values()) == pytest.approx(1.0, abs=1e-10)
    assert sum(table.k_marginals().values()) == pytest.approx(1.0, abs=1e-10)
    # normalizer from the dynamic program equals the enumerated one
    lws = table.log_weights
    peak = lws.max()
    enumerated = peak + math.log(np.exp(lws - peak).sum())
    assert table.log_normalizer == pytest.approx(enumerated, abs=1e-10)


def test_log_class_weights_do_not_move_with_the_origin():
    # sigma 0.7 and log(delta lambda) -5, as in the mcmc-mixing benchmark
    rng = np.random.default_rng(12)
    # coordinates on a 2^-20 grid, so the shifted points are exact
    points = np.round(rng.normal(scale=0.7, size=(7, 2)) * 2**20) / 2**20
    cfg = BsfConfig(KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=0.7), log_lambda=-5.0)
    near, far = (exact_posterior(dataset_from_euclidean(points + shift), cfg, retain=True)
                 for shift in (0.0, 1e5))
    assert np.array_equal(near.labels, far.labels)
    assert np.abs(near.log_weights - far.log_weights).max() <= 1e-12


def test_block_weights_refuse_an_unpriceable_model():
    data = dataset_from_euclidean([[0.0], [1.0], [3.0]])
    # a class weight adds log(delta lambda) once per block, here up to three times
    with pytest.raises(ConfigError, match="overflows over 3 blocks"):
        BlockWeights(data, BsfConfig(SPEC, log_lambda=1e308))
    BlockWeights(dataset_from_euclidean([[0.0]]), BsfConfig(SPEC, log_lambda=1e308))
    # a bandwidth far below the data's scale sends the kernel to -inf
    with np.errstate(over="ignore"):
        with pytest.raises(ConfigError, match="non-finite kernel value"):
            BlockWeights(dataset_from_euclidean([[0.0], [1e300]]), BsfConfig(SPEC))


def _map_test_problems():
    rng = np.random.default_rng(9)
    for _ in range(10):
        data = dataset_from_euclidean(rng.normal(size=(6, 2)))
        yield data, BsfConfig(SPEC, log_lambda=math.log(float(rng.uniform(0.05, 2.0))))
    # points around four centres: some MAPs have three or more mixed blocks,
    # where a block sum in another order than the table's would show as a
    # last-digit difference
    for _ in range(30):
        centres = rng.integers(0, 4, size=7) * 5.0
        points = np.c_[centres + rng.normal(scale=0.4, size=7), rng.normal(scale=0.4, size=7)]
        yield dataset_from_euclidean(points), BsfConfig(
            SPEC, log_lambda=math.log(float(rng.uniform(0.01, 0.5))))


def test_map_from_dp_matches_enumeration():
    for data, cfg in _map_test_problems():
        retained = exact_posterior(data, cfg, retain=True)
        bare = exact_posterior(data, cfg, retain=False)
        best = int(np.argmax(retained.log_weights))  # the first maximum in RGS order
        best_labels = tuple(retained.labels[best].tolist())
        best_lw = float(retained.log_weights[best])
        assert bare.map_partition.labels == best_labels
        assert retained.map_partition.labels == best_labels
        assert retained.map_log_weight == best_lw
        assert bare.map_log_weight == best_lw


def test_refinement_cell_decomposition_of_ratio():
    rng = np.random.default_rng(10)
    data = dataset_from_euclidean(rng.normal(size=(8, 2)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.7))
    weights = BlockWeights(data, cfg)
    log_dl = cfg.log_delta_lambda

    def log_det(mask):
        return subset_log_det(weights.logw, [t for t in range(8) if mask >> t & 1])

    for _ in range(10):
        p1 = canonicalize(rng.integers(0, 3, size=8).tolist())
        p2 = canonicalize(rng.integers(0, 3, size=8).tolist())
        direct = weights.labeled(p1) - weights.labeled(p2)
        # cell (i, j) holds the points in block i of p1 and block j of p2;
        # the determinant of each non-empty cell (empty cells count 1)
        cells = {}
        for t, (a, b) in enumerate(zip(p1.labels, p2.labels)):
            cells[a, b] = cells.get((a, b), 0) | 1 << t
        cell_dets = {key: log_det(mask) for key, mask in cells.items()}
        first = 0.0
        for i, mask in enumerate(p1.block_masks()):
            first += log_det(mask)
            first -= sum(v for (a, _), v in cell_dets.items() if a == i)
        second = 0.0
        for j, mask in enumerate(p2.block_masks()):
            second += sum(v for (_, b), v in cell_dets.items() if b == j)
            second -= log_det(mask)
        decomposed = (p1.K - p2.K) * log_dl + first + second
        assert direct == pytest.approx(decomposed, abs=1e-8)


def test_restrictions_and_cap():
    rng = np.random.default_rng(11)
    data = dataset_from_euclidean(rng.normal(size=(6, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5), enum_cap=6)
    only2 = exact_posterior(data, cfg, only_K=2, retain=True)
    assert (only2.labels.max(axis=1) == 1).all()
    assert sum(class_probabilities(only2).values()) == pytest.approx(1.0, abs=1e-10)
    max1 = exact_posterior(data, cfg, max_K=1, retain=True)
    assert list(class_probabilities(max1).values()) == [pytest.approx(1.0)]
    small_cap = BsfConfig(SPEC, log_lambda=math.log(0.5), enum_cap=5)
    with pytest.raises(ValueError):
        exact_posterior(data, small_cap)


def test_streaming_weights_match_table():
    rng = np.random.default_rng(12)
    data = dataset_from_euclidean(rng.normal(size=(6, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5))
    weights = BlockWeights(data, cfg)
    block_table = weights.precompute()
    streamed = [
        (tuple(row), k, lw)
        for labels, ks, lws in class_weight_chunks(block_table, 6)
        for row, k, lw in zip(labels.tolist(), ks.tolist(), lws.tolist())
    ]
    assert [row for row, _, _ in streamed] == [p.labels for p in _partitions(6)]
    for row, k, lw in streamed:
        # the vectorized core reproduces the per-partition floats exactly
        assert k == max(row) + 1
        assert lw == weights.class_weight(Partition(row))
    only = [tuple(row) for labels, _, _ in class_weight_chunks(block_table, 6, only_K=3)
            for row in labels.tolist()]
    assert only == [row for row, k, _ in streamed if k == 3]
    capped = [tuple(row) for labels, _, _ in class_weight_chunks(block_table, 6, max_K=2)
              for row in labels.tolist()]
    assert capped == [row for row, k, _ in streamed if k <= 2]


def test_retained_table_is_the_concatenated_chunks():
    rng = np.random.default_rng(17)
    data = dataset_from_euclidean(rng.normal(size=(8, 2)))  # 4,140 classes: three chunks
    weights = BlockWeights(data, BsfConfig(SPEC, log_lambda=math.log(0.5)))
    block_table = weights.precompute()
    for max_K, only_K in ((None, None), (3, None), (None, 3), (5, 3), (None, 8)):
        table = exact_posterior(data, weights.cfg, max_K=max_K, only_K=only_K, retain=True,
                                weights=weights)
        chunks = list(class_weight_chunks(block_table, 8, max_K, only_K))
        labels = np.concatenate([c[0] for c in chunks])
        log_weights = np.concatenate([c[2] for c in chunks])
        assert table.labels.shape == (len(log_weights), 8)
        assert np.array_equal(table.labels, labels), (max_K, only_K)
        assert np.array_equal(table.log_weights, log_weights), (max_K, only_K)
        bare = exact_posterior(data, weights.cfg, max_K=max_K, only_K=only_K, weights=weights)
        assert bare.labels is None and bare.log_weights is None


class _FixedTable:
    """Stands in for BlockWeights with a given block table."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def precompute(self):
        return self.table


def _first_rgs_maximum(table, n):
    """Brute force: the first maximum of the class weight in RGS order."""
    best = None
    for part in _partitions(n):
        lw = math.lgamma(part.K + 1) + sum(int(table[m]) for m in part.block_masks())
        if best is None or lw > best[1]:
            best = (part.labels, lw)
    return best


def _integer_tables(rng, n, count):
    """Dense tables in -3..3, and sparse ones: a few favoured blocks, all
    equal, and every other block far below, so that many classes tie
    through different first blocks."""
    for _ in range(count):
        yield rng.integers(-3, 4, size=1 << n)
        sparse = np.full(1 << n, -100)
        sparse[rng.integers(1, 1 << n, size=2 * n)] = 0
        sparse[[1 << i for i in rng.permutation(n)[: n // 2]]] = 0
        yield sparse


def test_map_ties_follow_rgs_order_on_integer_tables():
    # integer block weights sum exactly in any order, so ties are exact
    rng = np.random.default_rng(14)
    for n in range(3, 8):
        data = dataset_from_euclidean(np.arange(float(n))[:, None])
        cfg = BsfConfig(SPEC)
        for table in _integer_tables(rng, n, 40):
            labels, lw = _first_rgs_maximum(table, n)
            for retain in (False, True):
                post = exact_posterior(data, cfg, retain=retain, weights=_FixedTable(table))
                assert post.map_partition.labels == labels, (n, table.tolist())
                assert post.map_log_weight == lw


def test_map_tie_compares_whole_completions():
    # {0,3}|{1}|{2,4} = (0,1,2,0,2) and {0}|{1,2}|{3,4} = (0,1,1,2,2) tie
    # exactly.  The lowest point where the first blocks differ, 3, lies in
    # {0,3}, yet point 2 below it decides for (0,1,1,2,2).
    table = np.full(32, -100.0)
    for block in (0b01001, 0b00010, 0b10100, 0b00001, 0b00110, 0b11000):
        table[block] = 0.0
    data = dataset_from_euclidean(np.arange(5.0)[:, None])
    for retain in (False, True):
        post = exact_posterior(data, BsfConfig(SPEC), retain=retain,
                               weights=_FixedTable(table))
        assert post.map_partition.labels == (0, 1, 1, 2, 2)
        assert post.map_log_weight == math.lgamma(4)


def test_map_ties_across_block_counts_follow_rgs_order():
    # {0}|{1,2,3} (K = 2) and {0,1}|{2}|{3} (K = 3) tie exactly; the K = 3
    # class has the smaller restricted growth string
    table = np.full(16, -100.0)
    table[0b0001] = table[0b1110] = table[0b0100] = table[0b1000] = 0.0
    table[0b0011] = math.lgamma(3) - math.lgamma(4)
    assert math.lgamma(4) + table[0b0011] == math.lgamma(3)
    data = dataset_from_euclidean(np.arange(4.0)[:, None])
    post = exact_posterior(data, BsfConfig(SPEC), retain=False,
                           weights=_FixedTable(table))
    assert post.map_partition.labels == (0, 0, 1, 2)
    assert post.map_log_weight == math.lgamma(3)


def test_expected_hamming_and_block_weights_consistency(monkeypatch):
    rng = np.random.default_rng(13)
    data = dataset_from_euclidean(rng.normal(size=(5, 1)))
    cfg = BsfConfig(SPEC, log_lambda=math.log(0.5))
    weights = BlockWeights(data, cfg)
    truth = canonicalize([0, 0, 1, 1, 1])
    for only_K in (None, 2):
        table = exact_posterior(data, cfg, only_K=only_K, retain=True)
        # brute force: every allowed class weighed on its own
        parts = [p for p in _partitions(5) if only_K in (None, p.K)]
        lws = [weights.class_weight(p) for p in parts]
        log_z = _logsumexp(lws)
        direct = sum(math.exp(lw - log_z) * hamming_distance(p, truth) for p, lw in zip(parts, lws))
        plain = expected_hamming(table, truth)
        assert plain == pytest.approx(direct, abs=1e-12), only_K
        with monkeypatch.context() as patched:
            patched.setattr(builtins, "sum", _sum_of_no_floats)
            assert expected_hamming(table, truth) == plain, only_K
    with pytest.raises(ValueError):
        expected_hamming(exact_posterior(data, cfg), truth)
    for part in _partitions(5):
        for mask in part.block_masks():
            members = [i for i in range(5) if mask >> i & 1]
            expected_det = subset_log_det(weights.logw, members)
            assert weights.block(mask) == pytest.approx(
                cfg.log_delta_lambda + expected_det, abs=1e-12
            )
    # every other in-order float sum, none of which calls the builtin sum()
    assert sum_in_order([1e16, 1.0, -1e16]) == 0.0 != math.fsum([1e16, 1.0, -1e16])
    lazy = [weights.labeled(part) for part in _partitions(5)]
    apart = dataset_from_euclidean([[0.0], [0.1], [0.2], [20.0], [20.1]])
    stats = separation_stats(apart, canonicalize([0, 0, 0, 1, 1]), SPEC)
    with monkeypatch.context() as patched:
        patched.setattr(builtins, "sum", _sum_of_no_floats)
        assert [weights.labeled(part) for part in _partitions(5)] == lazy
        weights.precompute()
        assert [weights.labeled(part) for part in _partitions(5)] == lazy
        assert math.isfinite(posterior_concentration_log_bound(stats, 2, 5, -3.0))
        GaussianOracleSpec(means=((0.0,), (3.0,)), covs=(((1.0,),),) * 2, weights=(0.1, 0.2))
        for check in (verify_ratio_bound_coarse, verify_ratio_bound_fine,
                      verify_forest_factorization):
            assert check(trials=20).passed, check


def _sum_of_no_floats(values, start=0):
    """The builtin sum(), refusing floats: Python >= 3.12 compensates them,
    which would change the bits of a sum that must run left to right."""
    values = list(values)
    if any(isinstance(v, float) for v in [start, *values]):
        raise AssertionError("builtin sum() of floats")
    return _BUILTIN_SUM(values, start)


def _logsumexp(values):
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


def test_forward_dp_matches_enumeration():
    rng = np.random.default_rng(15)
    for n in range(1, 9):
        data = dataset_from_euclidean(rng.normal(size=(n, 2)))
        cfg = BsfConfig(SPEC, log_lambda=math.log(float(rng.uniform(0.1, 2.0))))
        weights = BlockWeights(data, cfg)
        block_table = weights.precompute()
        labeled = {}
        for part in _partitions(n):
            labeled.setdefault(part.K, []).append(weights.labeled(part))
        g_sum, g_max = posterior._forward_dp(block_table, n, n)
        for k, lws in labeled.items():
            assert g_sum[k][0] == pytest.approx(_logsumexp(lws), rel=1e-13, abs=1e-13)
            # the max DP adds blocks in the same order as BlockWeights.labeled
            assert g_max[k][0] == max(lws)
        for max_K in range(1, n + 1):
            table = exact_posterior(data, weights.cfg, max_K=max_K, retain=False, weights=weights)
            assert table.k_log_weights == pytest.approx(
                {k: math.lgamma(k + 1) + _logsumexp(labeled[k]) for k in range(1, max_K + 1)},
                rel=1e-13, abs=1e-13)
            only = exact_posterior(data, weights.cfg, only_K=max_K, retain=False, weights=weights)
            assert only.k_log_weights == {max_K: table.k_log_weights[max_K]}
            assert only.map_log_weight == math.lgamma(max_K + 1) + max(labeled[max_K])


def _backward_dp(block_table, n, reduce):
    """Reference: the backward DP ``table[k, S]`` over partitions of S into k
    blocks, with the block holding ``min(S)`` as the first block."""
    s_arr, t_arr = [], []
    for s_mask in range(1, 1 << n):
        anchor = s_mask & -s_mask
        rest = s_mask ^ anchor
        sub = rest
        while True:
            s_arr.append(s_mask)
            t_arr.append(anchor | sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    s_arr, t_arr = np.array(s_arr), np.array(t_arr)
    starts = np.flatnonzero(np.diff(s_arr, prepend=0))
    table = np.full((n + 1, 1 << n), -np.inf)
    table[0, 0] = 0.0
    for k in range(1, n + 1):
        vals = block_table[t_arr] + table[k - 1][s_arr ^ t_arr]
        peak = np.maximum.reduceat(vals, starts)
        if reduce == "max":
            table[k, 1:] = peak
            continue
        finite = peak > -np.inf
        shifted = np.exp(vals - np.where(finite, peak, 0.0)[s_arr - 1])
        sums = np.add.reduceat(shifted, starts)
        table[k, 1:] = np.where(finite, peak + np.log(np.where(finite, sums, 1.0)), -np.inf)
    return table[:, -1]


@pytest.mark.parametrize("n", [11, 12, 13, 14])
def test_forward_dp_matches_backward_dp(n):
    rng = np.random.default_rng(16 + n)
    centres = rng.integers(0, 3, size=n) * 4.0
    data = dataset_from_euclidean(np.c_[centres + rng.normal(size=n), rng.normal(size=n)])
    block_table = BlockWeights(data, BsfConfig(SPEC, log_lambda=math.log(0.2))).precompute()
    g_sum, g_max = posterior._forward_dp(block_table, n, n)
    # log weights to 1e-12 absolute: the weights to 1e-12 relative
    for reduce, forward in (("sum", g_sum), ("max", g_max)):
        backward = _backward_dp(block_table, n, reduce)
        for k in range(1, n + 1):
            assert forward[k][0] == pytest.approx(backward[k], rel=0, abs=1e-12), (reduce, k)


def test_pull_table_structure():
    for m in range(1, 10):
        table = posterior._pull_table(m)
        bounds, t_arr = table
        assert t_arr.dtype == np.uint16
        assert len(t_arr) == bounds[-1] == (3 ** m - 1) // 2
        # T alone is kept: 2 bytes a row plus the segment bounds
        assert sum(arr.nbytes for arr in table) == 2 * len(t_arr) + bounds.nbytes
        # segment i holds Q = 2i, every anchored pair (R, T) with R \\ T = Q
        # in ascending T: the order the DP's sums run in
        expected, expected_bounds = [], [0]
        for q in range(0, 1 << m, 2):
            expected += [(q | t, t) for t in range(1, 1 << m)
                         if not t & q and (q | t) & -(q | t) & t]
            expected_bounds.append(len(expected))
        r_arr = np.repeat(2 * np.arange(len(bounds) - 1), np.diff(bounds)) | t_arr
        assert list(zip(r_arr.tolist(), t_arr.tolist())) == expected
        assert bounds.tolist() == expected_bounds


def test_forward_dp_does_not_depend_on_the_slab_size(monkeypatch):
    rng = np.random.default_rng(18)
    default = posterior.DP_SLAB_ROWS
    for n in (1, 2, 5, 8, 10):
        data = dataset_from_euclidean(rng.normal(size=(n, 2)) * 2.0)
        cfg = BsfConfig(SPEC, log_lambda=math.log(0.3))
        weights = BlockWeights(data, cfg)
        block_table = weights.precompute()
        runs = {}
        for slab in (default, 1, 3, 50):
            monkeypatch.setattr(posterior, "DP_SLAB_ROWS", slab)
            dps = [posterior._forward_dp(block_table, n, k) for k in range(1, n + 1)]
            tables = [exact_posterior(data, cfg, **{key: k}, weights=weights)
                      for k in range(1, n + 1) for key in ("max_K", "only_K")]
            runs[slab] = (
                [b"".join(g.tobytes() for g in g_sum[1:] + g_max[1:]) for g_sum, g_max in dps],
                [(t.log_normalizer, t.k_log_weights, t.map_partition, t.map_log_weight)
                 for t in tables],
            )
        whole = runs.pop(default)
        for slab, run in runs.items():
            assert run == whole, (n, slab)
