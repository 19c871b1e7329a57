import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsf import partitions
from bsf.partitions import (
    Partition,
    canonicalize,
    hamming_distance,
    rgs_chunks,
)
from bsf.posterior import DP_MAX_N

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def stirling2(n, k):
    total = 0
    for j in range(k + 1):
        total += (-1) ** j * math.comb(k, j) * (k - j) ** n
    return total // math.factorial(k)


labels_strategy = st.lists(st.integers(0, 5), min_size=1, max_size=10)


def test_canonicalize_examples():
    assert canonicalize([7, 7, 3]).labels == (0, 0, 1)
    assert canonicalize([2, 1, 2, 1]).labels == (0, 1, 0, 1)


@given(labels_strategy)
def test_canonicalize_idempotent_and_bijection_invariant(raw):
    canon = canonicalize(raw)
    assert canonicalize(canon.labels).labels == canon.labels
    # relabel through a fixed bijection of the symbols
    mapping = {lab: 91 - lab for lab in set(raw)}
    assert canonicalize([mapping[lab] for lab in raw]).labels == canon.labels


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 0))
    with pytest.raises(ValueError):
        Partition((0, 2))
    with pytest.raises(ValueError):
        Partition(())
    part = Partition((0, 1, 0, 2))
    assert part.K == 3 and part.sizes == (2, 1, 1)
    assert part.blocks() == [[0, 2], [1], [3]]
    assert part.block_masks() == [0b0101, 0b0010, 0b1000]
    assert part.to_string() == "0,1,0,2"


def _block_counts(n, k_cap=None):
    """Number of blocks of every row of :func:`rgs_chunks`."""
    return np.concatenate([c.max(axis=1) + 1 for c in rgs_chunks(n, k_cap)])


def test_enumeration_counts_match_bell_and_stirling():
    for n in range(1, 11):
        assert len(_block_counts(n)) == BELL[n]
    assert (_block_counts(4, 2) == 2).sum() == 7
    assert len(_block_counts(1)) == 1
    for n in range(2, 9):
        for k in range(1, n + 1):
            assert (_block_counts(n, k) == k).sum() == stirling2(n, k), (n, k)
    with pytest.raises(ValueError):
        next(rgs_chunks(14))


def test_enumeration_is_lexicographic_and_unique():
    labels = [tuple(row) for chunk in rgs_chunks(7) for row in chunk.tolist()]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)


def _successor_rgs(n, cap):
    """Restricted growth strings by the classic successor rule: bump the
    rightmost label that may grow, reset everything after it to 0."""
    labels = [0] * n
    peaks = [1] * n  # peaks[i] = 1 + max(labels[:i+1])
    while True:
        yield tuple(labels)
        i = n - 1
        while i > 0 and not (labels[i] < peaks[i - 1] and labels[i] + 1 < cap):
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        peaks[i] = max(peaks[i - 1], labels[i] + 1)
        for j in range(i + 1, n):
            labels[j] = 0
            peaks[j] = peaks[i]


@pytest.mark.parametrize("chunk_rows", [3, 50])
def test_rgs_chunks_match_successor_order(monkeypatch, chunk_rows):
    monkeypatch.setattr(partitions, "RGS_CHUNK_ROWS", chunk_rows)
    for n in range(1, 10):
        caps = range(1, n + 1) if n < 9 else (1, 2, 5, 9)
        for cap in caps:
            chunks = list(rgs_chunks(n, cap))
            assert all(0 < len(c) <= max(chunk_rows, cap) for c in chunks)
            labels = np.concatenate(chunks)
            assert labels.shape[1] == n
            assert [tuple(r) for r in labels.tolist()] == list(_successor_rgs(n, cap)), (n, cap)
            # every row is a restricted growth string
            peak = np.maximum.accumulate(labels, axis=1)
            assert (labels[:, 0] == 0).all()
            assert (labels[:, 1:] <= peak[:, :-1] + 1).all()
            ks = np.bincount(peak[:, -1] + 1, minlength=n + 1)
            for k in range(1, n + 1):
                assert ks[k] == (stirling2(n, k) if k <= cap else 0), (n, cap, k)


def test_hamming_examples():
    assert hamming_distance(Partition((0, 0, 1, 1)), Partition((0, 0, 1, 1))) == 0
    assert hamming_distance(Partition((0, 0, 1, 1)), canonicalize([1, 1, 0, 0])) == 0
    assert hamming_distance(Partition((0, 0, 0, 1)), Partition((0, 0, 1, 1))) == 1
    # unequal block counts get padded with empty blocks
    assert hamming_distance(Partition((0, 0, 0, 0)), Partition((0, 1, 2, 3))) == 3
    # 40 blocks on one side: the matching table is indexed by the 2-block side
    singletons, halves = Partition(tuple(range(40))), Partition((0,) * 20 + (1,) * 20)
    assert hamming_distance(singletons, halves) == hamming_distance(halves, singletons) == 38


def brute_force_hamming(p1, p2):
    k = max(p1.K, p2.K)
    best = p1.n
    for perm in itertools.permutations(range(k)):
        mismatches = sum(
            1 for a, b in zip(p1.labels, p2.labels) if perm[a] != b
        )
        best = min(best, mismatches)
    return best


def test_assignment_solver_matches_bruteforce(rng):
    for _ in range(500):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 7))
        p1 = canonicalize(rng.integers(0, k, size=n).tolist())
        p2 = canonicalize(rng.integers(0, k, size=n).tolist())
        assert hamming_distance(p1, p2) == brute_force_hamming(p1, p2)


@given(labels_strategy, labels_strategy, labels_strategy)
def test_hamming_metric_properties(raw1, raw2, raw3):
    n = min(len(raw1), len(raw2), len(raw3))
    p1, p2, p3 = (canonicalize(raw[:n]) for raw in (raw1, raw2, raw3))
    d12 = hamming_distance(p1, p2)
    assert d12 == hamming_distance(p2, p1)
    assert d12 >= 0
    if p1 == p2:
        assert d12 == 0
    assert d12 <= hamming_distance(p1, p3) + hamming_distance(p3, p2)


@given(labels_strategy)
def test_hamming_zero_iff_equivalent(raw):
    part = canonicalize(raw)
    relabeled = canonicalize([10 - lab for lab in raw])
    assert hamming_distance(part, relabeled) == 0


def test_assignment_solver_matches_scipy(rng):
    from scipy.optimize import linear_sum_assignment

    for _ in range(300):
        n = int(rng.integers(1, 60))
        p1 = canonicalize(rng.integers(0, int(rng.integers(1, 16)), size=n).tolist())
        p2 = canonicalize(rng.integers(0, int(rng.integers(1, 16)), size=n).tolist())
        mat = np.zeros((p1.K, p2.K), dtype=np.int64)
        np.add.at(mat, (list(p1.labels), list(p2.labels)), 1)
        rows, cols = linear_sum_assignment(mat, maximize=True)
        assert hamming_distance(p1, p2) == n - mat[rows, cols].sum(), (p1, p2)
    for k in range(1, DP_MAX_N + 1):
        # one square stack, solved in step; small values give many tied optima, all
        # zeros check the DP's zero start, and permutations a single optimum
        perms = np.eye(k, dtype=np.int64)[np.array([rng.permutation(k) for _ in range(8)])]
        for mats in (rng.integers(0, 4, size=(40, k, k)), np.zeros((8, k, k), dtype=np.int64),
                     perms):
            best = [mat[linear_sum_assignment(mat, maximize=True)].sum() for mat in mats]
            assert partitions._max_assignments(mats).tolist() == best
    for shape in [(40, 3, 9), (40, 9, 3), (8, 1, 12), (3, 40, 2)]:
        # rectangular stacks: the DP runs over the sets of the smaller side
        mats = rng.integers(0, 4, size=shape)
        best = [mat[linear_sum_assignment(mat, maximize=True)].sum() for mat in mats]
        assert partitions._max_assignments(mats).tolist() == best


def test_hamming_distances_of_a_label_array_match_pairwise(rng):
    truth = canonicalize([0, 0, 1, 1, 2, 2, 0, 1])
    labels = np.concatenate(list(rgs_chunks(8)))  # 4140 rows: K from 1 to 8, two runs
    dists = partitions.hamming_distances(labels, truth)
    assert dists.tolist() == [hamming_distance(Partition(tuple(r)), truth)
                              for r in labels.tolist()]
    picks = rng.choice(len(labels), size=200, replace=False)
    assert all(dists[i] == brute_force_hamming(Partition(tuple(labels[i].tolist())), truth)
               for i in picks)
    with pytest.raises(ValueError):
        partitions.hamming_distances(labels[:, 1:], truth)
