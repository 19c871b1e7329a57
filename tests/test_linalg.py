import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bsf import linalg
from bsf.data import dataset_from_euclidean
from bsf.kernels import EUCLIDEAN_GAUSSIAN, KernelSpec
from bsf.linalg import all_block_log_dets, subset_log_det
from bsf.partitions import Partition
from bsf.posterior import BlockWeights, BsfConfig
from bsf.theory import (
    all_spanning_tree_edges,
    coarsened_laplacian,
    laplacian_from_log_weights,
    log_det_L_plus_J,
    log_det_minor,
    shifted_spectrum,
    spanning_tree_weight_bruteforce,
)


def random_logw(rng, n, low=0.1, high=2.0):
    w = rng.uniform(low, high, size=(n, n))
    w = np.triu(w, 1)
    logw = np.log(w + w.T + np.eye(n))
    np.fill_diagonal(logw, 0.0)
    return logw


def test_singleton_laplacian():
    lap = laplacian_from_log_weights(np.zeros((1, 1)))
    assert lap.n == 1 and lap.log_scale == 0.0
    assert np.array_equal(lap.scaled, np.zeros((1, 1)))
    assert subset_log_det(np.zeros((2, 2)), [1]) == 0.0
    with pytest.raises(ValueError):
        subset_log_det(np.zeros((2, 2)), [])


def test_laplacian_of_vanishing_weights_has_no_overflow():
    # every weight below e^-709: the unused diagonal must not reach exp
    logw = np.full((3, 3), -800.0)
    np.fill_diagonal(logw, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lap = laplacian_from_log_weights(logw)
    assert lap.log_scale == -800.0
    assert np.array_equal(lap.scaled, 3.0 * np.eye(3) - 1.0)


def test_two_point_laplacian_unscales_to_weight():
    w = 0.37
    lap = laplacian_from_log_weights(np.log(w) * (1 - np.eye(2)))
    dense = lap.dense()
    assert dense == pytest.approx(np.array([[w, -w], [-w, w]]), abs=1e-15)


def test_complete_graph_unit_weights():
    lap = laplacian_from_log_weights(np.zeros((3, 3)))
    assert np.allclose(lap.dense(), 2 * np.eye(3) - (1 - np.eye(3)) + np.eye(3) * 0)
    dense = lap.dense()
    assert np.allclose(np.diag(dense), 2.0)
    assert np.allclose(dense - np.diag(np.diag(dense)), -(1 - np.eye(3)))


def test_log_det_plus_j_small_cases():
    assert log_det_L_plus_J(laplacian_from_log_weights(np.zeros((1, 1)))) == 0.0
    lap2 = laplacian_from_log_weights(np.log(0.5) * (1 - np.eye(2)))
    assert log_det_L_plus_J(lap2) == pytest.approx(0.0, abs=1e-12)  # 2w = 1
    lap3 = laplacian_from_log_weights(np.zeros((3, 3)))
    assert log_det_L_plus_J(lap3) == pytest.approx(math.log(9), abs=1e-12)


def test_log_det_minor_small_cases(rng):
    w = 1.7
    lap2 = laplacian_from_log_weights(np.log(w) * (1 - np.eye(2)))
    assert log_det_minor(lap2) == pytest.approx(math.log(w), abs=1e-12)
    lap3 = laplacian_from_log_weights(np.zeros((3, 3)))
    for drop in range(3):
        assert log_det_minor(lap3, drop) == pytest.approx(math.log(3), abs=1e-12)
    with pytest.raises(ValueError):
        log_det_minor(laplacian_from_log_weights(np.zeros((1, 1))))
    logw = random_logw(rng, 6)
    lap = laplacian_from_log_weights(logw)
    brute = spanning_tree_weight_bruteforce(logw)
    for drop in range(6):
        assert log_det_minor(lap, drop) == pytest.approx(brute, abs=1e-9)


def test_kirchhoff_triple_identity(rng):
    for _ in range(40):
        n = int(rng.integers(2, 9))
        logw = random_logw(rng, n)
        lap = laplacian_from_log_weights(logw)
        via_j = log_det_L_plus_J(lap)
        brute = spanning_tree_weight_bruteforce(logw)
        assert via_j == pytest.approx(math.log(n) + brute, abs=1e-9)
        for drop in range(n):
            assert via_j == pytest.approx(math.log(n) + log_det_minor(lap, drop), abs=1e-9)


def test_scale_shift_is_exact():
    # integer log weights and integer log scale: no rounding anywhere
    rng = np.random.default_rng(5)
    base = rng.integers(-3, 3, size=(5, 5)).astype(float)
    base = np.triu(base, 1)
    logw = base + base.T
    shift = 7.0
    n = 5
    a = log_det_minor(laplacian_from_log_weights(logw))
    b = log_det_minor(laplacian_from_log_weights(logw + shift * (1 - np.eye(n))))
    assert b == a + (n - 1) * shift


def test_psd_and_positive_definite_shift(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        lap = laplacian_from_log_weights(random_logw(rng, n))
        ev = np.linalg.eigvalsh(lap.dense())
        assert ev.min() >= -1e-8 * ev.max()
        evj = np.linalg.eigvalsh(lap.dense() + np.ones((n, n)) / n)
        assert evj.min() > 0


def test_shifted_spectrum_cases(rng):
    w = 1.3
    lap2 = laplacian_from_log_weights(np.log(w) * (1 - np.eye(2)))
    spec = shifted_spectrum(lap2, a=0.0, b=0.5)
    assert spec == pytest.approx(np.sort([2 * w, 1.0]), abs=1e-12)
    lap = laplacian_from_log_weights(random_logw(rng, 5))
    shifted = shifted_spectrum(lap, a=1.0, b=0.0)
    assert shifted.min() == pytest.approx(1.0, abs=1e-9)
    direct = np.linalg.eigvalsh(lap.dense() + 0.3 * np.eye(5) + 0.7 * np.ones((5, 5)))
    assert np.abs(np.sort(direct) - shifted_spectrum(lap, 0.3, 0.7)).max() < 1e-8


def test_bruteforce_tree_sums():
    assert spanning_tree_weight_bruteforce(np.log(0.4) * (1 - np.eye(2))) == pytest.approx(
        math.log(0.4), abs=1e-12
    )
    assert spanning_tree_weight_bruteforce(np.zeros((3, 3))) == pytest.approx(
        math.log(3), abs=1e-12
    )
    logw4 = math.log(2.0) * (1 - np.eye(4))
    assert spanning_tree_weight_bruteforce(logw4) == pytest.approx(
        math.log(16 * 2**3), abs=1e-12
    )
    with pytest.raises(ValueError):
        all_spanning_tree_edges(10)


def test_tree_enumeration_counts():
    for n in range(2, 8):
        assert all_spanning_tree_edges(n).shape == (n ** (n - 2), n - 1, 2)
    # the table is cached, but a refused size is refused on every call
    for bad in (1, 10, 1, 10):
        with pytest.raises(ValueError):
            all_spanning_tree_edges(bad)


@pytest.mark.parametrize("values, expected", [
    ([], -math.inf),
    ([-math.inf, -math.inf], -math.inf),
    ([-math.inf, 0.0, -math.inf, math.log(3.0)], math.log(4.0)),
])
def test_logsumexp_edge_cases(values, expected):
    # an infinite expected value is approximately equal only to itself
    assert linalg.logsumexp(np.array(values, dtype=float)) == pytest.approx(expected, abs=1e-15)


def test_coarsened_laplacian():
    logw = np.zeros((4, 4))
    one = coarsened_laplacian(logw, Partition((0, 0, 0, 0)))
    assert one.n == 1
    w = 0.9
    two = coarsened_laplacian(np.log(w) * (1 - np.eye(2)), Partition((0, 1)))
    assert two.dense() == pytest.approx(np.array([[w, -w], [-w, w]]), abs=1e-12)
    quad = coarsened_laplacian(logw, Partition((0, 0, 1, 1)))
    # 2x2 cross pairs with unit weights aggregate to 4
    assert quad.dense()[0, 1] == pytest.approx(-4.0, abs=1e-12)


@given(
    m=st.integers(2, 8),
    span=st.floats(0.0, 1500.0),
    bridged=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=6, span=29.0, bridged=True, seed=0)  # dense float Cholesky is off by 1.5e-6 here
@example(m=8, span=1500.0, bridged=True, seed=1)  # past float underflow: the log-domain hand-off
@example(m=7, span=1500.0, bridged=False, seed=2)
def test_block_log_dets_match_spanning_trees_at_any_range(m, span, bridged, seed):
    # log weights in [-span, 0]; bridged blocks are two tight groups whose
    # cross weights sit at the bottom of that range
    rng = np.random.default_rng(seed)
    if bridged:
        group = rng.integers(0, 2, size=m)
        cross = group[:, None] != group[None, :]
        depth = np.where(cross, rng.uniform(0.9, 1.0, (m, m)), rng.uniform(0.0, 0.1, (m, m)))
    else:
        depth = rng.uniform(0.0, 1.0, (m, m))
    depth = np.triu(depth, 1)
    logw = -span * (depth + depth.T)
    expect = math.log(m) + spanning_tree_weight_bruteforce(logw)
    assert subset_log_det(logw, range(m)) == pytest.approx(expect, abs=1e-9)
    table = all_block_log_dets(logw)
    for mask in range(1, 1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        k = len(members)
        block = logw[np.ix_(members, members)]
        expect = 0.0 if k == 1 else math.log(k) + spanning_tree_weight_bruteforce(block)
        assert table[mask] == pytest.approx(expect, abs=1e-9)


def test_extreme_weight_ranges_stay_finite_and_factorized():
    # two tight groups bridged by astronomically small cross weights
    logw = np.full((6, 6), -2000.0)
    logw[:3, :3] = 0.0
    logw[3:, 3:] = 0.0
    np.fill_diagonal(logw, 0.0)
    got = subset_log_det(logw, range(6))
    # leading term: 6 * (9 e^-2000) * 3 * 3 spanning structures
    expect = math.log(6) + math.log(9) - 2000.0 + 2 * math.log(3)
    assert got == pytest.approx(expect, abs=1e-6)
    table = all_block_log_dets(logw)
    assert np.all(np.isfinite(table))
    assert table[(1 << 6) - 1] == pytest.approx(got, abs=1e-9)


def test_block_table_matches_subsets(rng):
    # the table and single blocks run one kernel, so every entry has the
    # bits of its block alone, at a normal and at a deep weight range
    # (log weights spanning past float underflow inside a block)
    n = 8
    for scale in (1.0, 1000.0):
        logw = random_logw(rng, n) * scale
        table = all_block_log_dets(logw)
        assert table[0] == 0.0
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            assert table[mask] == subset_log_det(logw, members), (scale, mask)


def test_block_table_chunks_keep_every_entry(rng, monkeypatch):
    # a block's bits do not depend on its stack, so pricing each size in
    # stacks of 7 blocks gives the default table, at a normal and at a deep
    # weight range, where both routes run
    n = 8
    for scale in (1.0, 1000.0):
        logw = random_logw(rng, n) * scale
        whole = all_block_log_dets(logw)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "TABLE_STACK_MAX", 7)
            chunked = all_block_log_dets(logw)
        assert np.array_equal(chunked, whole), scale


def test_pivot_rows_stay_contiguous_for_any_member_order(rng):
    # numpy sums a contiguous pivot row pairwise and a strided one left to
    # right, so a member array in Fortran order must not reach the
    # elimination in that order; m = 12 makes rows of 9 and more
    n, m, b = 16, 12, 32
    logw = random_logw(rng, n)
    members = np.sort(np.argsort(rng.random((b, n)), axis=1)[:, :m], axis=1)
    transposed = np.ascontiguousarray(members.T).T  # a view, not C-contiguous
    assert not transposed.flags.c_contiguous
    assert np.array_equal(linalg.block_log_dets(logw, transposed),
                          linalg.block_log_dets(logw, members))


@pytest.mark.parametrize("deep", [False, True])
def test_stacked_pricing_equals_single_blocks(deep, monkeypatch):
    # one price() call over mixed sizes, repeats, singletons, mask 0 and
    # stored masks gives every new block the bits subset_log_det gives it
    rng = np.random.default_rng(16)
    n = 16
    x = rng.normal(size=(n, 2)) * (12.0 if deep else 1.0)
    cfg = BsfConfig(KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0), log_lambda=math.log(0.3))
    weights = BlockWeights(dataset_from_euclidean(x), cfg)
    const = cfg.log_delta_lambda
    routed = []
    star_mesh = linalg._star_mesh_batch
    monkeypatch.setattr(linalg, "_star_mesh_batch",
                        lambda sub: routed.append(len(sub)) or star_mesh(sub))
    kept, sentinel = 0b11, 0b1011 << 4
    weights.block(kept)
    weights.block(sentinel)
    weights._cache[sentinel] = 123.0  # a stored value price() must leave alone
    new = [int((1 << rng.choice(n, m, replace=False)).sum())
           for m in range(2, n) for _ in range(3)] + [(1 << n) - 1]
    weights.price([0, 1 << 5, kept, sentinel, *new, new[0]])
    deep_blocks = sum(routed)
    assert weights.counters == {"alone": 3, "stacked": 3 * (n - 2), "stacks": n - 2,
                                "evicted": 0}
    for mask in new + [kept]:
        members = [i for i in range(n) if mask >> i & 1]
        assert weights.block(mask) == subset_log_det(weights.logw, members) + const
    assert weights.block(0) == weights.block(1 << 5) == const
    assert weights.block(sentinel) == 123.0
    assert weights.counters["alone"] == 3  # every block() above hit the dict
    if deep:  # both routes ran inside the stacks
        assert 0 < deep_blocks < len(new)
    else:
        assert deep_blocks == 0
