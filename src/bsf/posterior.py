"""Integrated partition posterior for spanning-forest clustering.

The unnormalized posterior of a labeled partition with blocks ``V_1..V_K``
is ``(delta * lambda)^K * prod_k |L_{V_k} + J/n_k|``: each block pays the
root/prior factor once and contributes the matrix-tree determinant of its
complete weighted subgraph.  Equivalently, per block,
``lambda * |L_V[1]| * (sum of root densities over the block)``, where the
root kernel is flat: every root density is ``delta``.

Canonical partitions stand for whole equivalence classes.  A class of a
K-block partition contains exactly K! labelings with identical posterior
mass, so the class weight is ``K!`` times the labeled weight; that factor
is added analytically here and nowhere else.  Normalization is over
equivalence classes.

Block weights have one store, :class:`BlockWeights`: a lazy dict of
blocks priced on demand (alone, or in stacks per block size) and the dense
2^n table, built once on request.  A block reads the same bits from both.

Exact normalizers, K-marginals, and MAP partitions come from one forward
set-partition dynamic program over subset bitmasks, which stays exact far
beyond the point where enumerating Bell(n) classes is practical.  Its state
is (blocks carved ``j``, points left ``R``); each block is carved at the
lowest point left, so ``R`` lies in ``{j..n-1}`` and depth ``j`` has
(3^(n-j) - 1)/2 transitions, 402,670 over all depths at n = 13.  One pass
gives the sum and the max tables; the K-sums are the sum table at ``(K,
{})``.  The MAP is the max-DP walk-back, which breaks exact ties in the
max DP to the lexicographically smallest restricted growth string, taking
a state's candidate last blocks from the pull-table segment the DP reduced.

The transitions of an m-point universe form a pull table, built once per
process by recurrence from the table of m - 1 points: segment bounds and
one uint16 column, T, grouped in segments of equal ``Q = R \\ T``
(ascending Q, then ascending T, the order the sums run in); segment i has
``Q = 2i``, so the DP rebuilds ``R = Q | T`` as it reads.  A depth runs in
slabs of whole segments, about ``DP_SLAB_ROWS`` rows each, so its
temporaries stay under a MB whatever n is.  What grows is the cached
tables, 2 bytes a row: about 22 MB for all tables up to m = 15, which an
n = 16 posterior uses.  Table 16 alone would hold 43 MB, so the DP runs at
n <= ``DP_MAX_N`` = 16 only, whatever the enumeration cap says.

Per-class tables come from one enumeration core, :func:`class_weight_chunks`:
bounded chunks of RGS label rows from :func:`bsf.partitions.rgs_chunks`,
weighed by gathering block masks from the dense block table.  It feeds both
the streamed table of ``bsf exact`` and, on request, the table that
:func:`exact_posterior` retains: the concatenated label rows and log class
weights, two arrays that estimators such as :func:`expected_hamming` sum
over directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import islice

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, log_weight_matrix
from .linalg import all_block_log_dets, block_log_dets, logsumexp, subset_log_det, sum_in_order
from .partitions import ENUM_CAP, Partition, hamming_distances, rgs_chunks

DEFAULT_ENUM_CAP = 12
# entries BlockWeights' lazy dict holds before it drops its oldest half;
# the dense table is an array outside the dict
LOG_DET_CACHE_CAP = 1 << 20

# largest n the forward DP runs at: its pull tables hold about 22 MB at n = 16.
# A sampler chain reads the dense 2^n block table up to the same n.
DP_MAX_N = 16
# pull-table rows one slab of a forward-DP depth reads at once
DP_SLAB_ROWS = 1 << 14


class ConfigError(ValueError):
    """A configuration or design that no run could use."""


class CapError(ValueError):
    """n points are beyond the enumeration cap."""


def check_cap(n: int, enum_cap: int, enumerates: bool) -> None:
    """Raise CapError unless n fits ``enum_cap``, and the enumeration core's
    ``ENUM_CAP`` when every class is enumerated, or the forward DP's
    ``DP_MAX_N`` when only the DP runs."""
    cap = min(enum_cap, ENUM_CAP if enumerates else DP_MAX_N)
    if n > cap:
        raise CapError(f"n={n} exceeds the enumeration cap {cap}")


@dataclass(frozen=True)
class BsfConfig:
    """Model configuration: prior/root scaling, kernel, enumeration cap.

    ``log_delta`` and ``log_lambda`` are kept in the log domain because
    consistency schedules drive their product below the smallest positive
    float at modest n.  The two only ever enter through their sum.
    """

    kernel: KernelSpec
    log_delta: float = 0.0
    log_lambda: float = 0.0
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        if not math.isfinite(self.log_delta + self.log_lambda):
            raise ValueError("log(delta * lambda) must be finite")
        if self.enum_cap < 1:
            raise ValueError("enum_cap must be positive")

    @property
    def log_delta_lambda(self) -> float:
        return self.log_delta + self.log_lambda


class BlockWeights:
    """Per-block unnormalized log weights over subset bitmasks: the one
    store that prices blocks, for the exact machinery and the sampler alike.

    A block's weight is ``log lambda + log |L_T + J/|T|| + log(mean root
    density over T)``; for the flat root the mean root density is exactly
    ``delta``, so the weight is the block log-det plus one constant.  Every
    log-det comes from :func:`bsf.linalg.block_log_dets`, whose bits do not
    depend on the stack a block rides in, so the two ways to read a weight
    agree exactly:

    - :meth:`precompute` builds the dense table over all 2^n masks once, one
      stack per block size, and keeps it;
    - :meth:`block` reads a lazy dict.  On a miss it prices the block alone;
      :meth:`price` fills the dict for many masks at once, one stack per
      block size.

    :meth:`labeled` and :meth:`class_weight` read the table once it is built
    and the dict before.  Before a stack would take the dict past
    ``LOG_DET_CACHE_CAP`` entries, it drops its oldest half in insertion
    order.  ``counters`` holds the
    blocks the dict priced alone and in stacks of two or more, those stacks
    and the entries evicted; the dense table is not counted.
    """

    def __init__(self, data: Dataset, cfg: BsfConfig):
        self.cfg = cfg
        self.n = data.n
        self.logw = log_weight_matrix(data, cfg.kernel)
        if not np.all(np.isfinite(self.logw)):
            raise ConfigError("non-finite kernel value in the weight matrix")
        self._const = cfg.log_delta_lambda
        # a class weight adds the constant once per block, up to n times
        if not math.isfinite(self.n * self._const):
            raise ConfigError(f"log(delta * lambda) = {self._const!r} overflows over "
                              f"{self.n} blocks")
        self._cache: dict[int, float] = {}
        self._table: np.ndarray | None = None
        self._bytes = (self.n + 7) // 8
        self.counters = {"alone": 0, "stacked": 0, "stacks": 0, "evicted": 0}

    def precompute(self) -> np.ndarray:
        """Dense table of block weights for every subset mask, built on the
        first call."""
        if self._table is None:
            self._table = all_block_log_dets(self.logw) + self._const
        return self._table

    def __contains__(self, mask: int) -> bool:
        return mask in self._cache

    def block(self, mask: int) -> float:
        val = self._cache.get(mask)
        if val is None:
            self.price((mask,))
            val = self._cache[mask]
        return val

    def price(self, masks) -> None:
        """Price every mask not yet in the dict, one kernel stack per block
        size.

        Masks of at most one point have log-det 0 and skip the kernel; masks
        already in keep their values.  Repeats are priced once: a Gibbs
        window over singleton blocks {a} and {b} asks for {a, b} from both.
        """
        cache = self._cache
        by_size: dict[int, list[int]] = {}
        for mask in dict.fromkeys(masks):
            if mask not in cache:
                by_size.setdefault(mask.bit_count(), []).append(mask)
        for size, group in by_size.items():
            if size < 2:
                dets = np.zeros(len(group))
            else:
                if len(group) == 1:
                    self.counters["alone"] += 1
                else:
                    self.counters["stacked"] += len(group)
                    self.counters["stacks"] += 1
                dets = block_log_dets(self.logw, self._members(group))
            self._store(group, (dets + self._const).tolist())

    def _members(self, group: list[int]) -> np.ndarray:
        """Member indices of equal-size masks, one sorted row per mask."""
        raw = b"".join(mask.to_bytes(self._bytes, "little") for mask in group)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(group), -1),
                             axis=1, bitorder="little")
        return np.nonzero(bits)[1].reshape(len(group), -1)

    def _store(self, masks: list[int], vals: list[float]) -> None:
        cache = self._cache
        if len(cache) + len(masks) > LOG_DET_CACHE_CAP:
            drop = len(cache) // 2
            for mask in list(islice(cache, drop)):
                del cache[mask]
            self.counters["evicted"] += drop
        cache.update(zip(masks, vals))

    def fresh(self, mask: int) -> float:
        """The block's weight recomputed outside the store (audit hook)."""
        indices = [i for i in range(self.n) if mask >> i & 1]
        return subset_log_det(self.logw, indices) + self._const

    def labeled(self, partition: Partition) -> float:
        read = self.block if self._table is None else self._table.item
        return sum_in_order(map(read, partition.block_masks()))

    def class_weight(self, partition: Partition) -> float:
        return math.lgamma(partition.K + 1) + self.labeled(partition)


@cache  # data independent, so kept for the process's life
def _pull_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every transition ``(R, T, Q = R \\ T)`` over an m-point universe with
    ``min R`` in ``T``, grouped by ``Q`` for ``reduceat``.

    Each point lies in Q, in T or in neither, and a row is kept when the
    lowest point of ``Q | T`` is in T: (3^m - 1)/2 rows.  Q never holds point
    0 and every Q has the row ``T = {0}``, so segment i is ``Q = 2i``, and
    ``R = 2i | T`` need not be stored; rows run in ascending T within a
    segment.  Returns the 2^(m-1) + 1 segment bounds and T (uint16, which
    holds every T while m <= 16).

    Table m grows from table m - 1 with ``b = 1 << (m - 1)``: a segment Q
    without b is its old rows, then ``T = {b}`` when Q is empty, then its old
    rows with b added to T; the segments ``Q | b`` follow, with the old T.
    The old rows with b added are staged in the new table's tail, which the
    segments ``Q | b`` overwrite last, so the only temporary is a mask.
    """
    if m == 1:
        return np.array([0, 1]), np.ones(1, dtype=np.uint16)
    bounds, old = _pull_table(m - 1)
    bit = 1 << (m - 1)
    rows = len(old)
    counts = np.diff(bounds)
    added = counts.copy()
    added[0] += 1
    # marks the rows that segments without b copy unchanged from table m - 1
    kept = np.repeat(np.tile([True, False], len(counts)),
                     np.column_stack([counts, added]).ravel())
    table = np.empty(3 * rows + 1, dtype=np.uint16)
    head, tail = table[:2 * rows + 1], table[2 * rows + 1:]
    head[kept] = old
    # then the other rows, but for T = {b}, which follows segment 0's old rows
    kept[counts[0]] = True
    np.bitwise_or(old, bit, out=tail)
    head[np.logical_not(kept, out=kept)] = tail
    head[counts[0]] = bit
    tail[:] = old
    segments = np.concatenate((counts + added, counts))
    return np.concatenate(([0], np.cumsum(segments))), table


def _forward_dp(block_table: np.ndarray, n: int, k_max: int) -> tuple[list, list]:
    """Sum and max set-partition DPs over (blocks carved ``j``, points left ``R``).

    Each block is carved at the lowest point left, so after ``j`` blocks
    ``R`` lies in ``{j..n-1}``; ``g[j]`` is indexed by ``R >> j``.
    ``g_sum[j][R]`` is the log sum and ``g_max[j][R]`` the log max, over
    the ways to carve ``j`` blocks leaving ``R``, of the product of block
    weights; ``g[K][0]`` covers the partitions into exactly ``K`` blocks.
    The max DP adds blocks left to right in order of their minima, the
    order of :meth:`BlockWeights.class_weight`.  Depth 1 reads the block
    table; depth ``j + 1`` pulls over the (3^(n-j) - 1)/2 transitions of an
    (n-j)-point universe, and both DPs share one gather of block weights.

    A depth runs in slabs of whole segments of about ``DP_SLAB_ROWS`` rows,
    so its temporaries stay bounded; every ``reduceat`` group is the one a
    single pass would reduce, so the floats do not depend on the slab size.
    Each slab rebuilds its R column, ``2i | T`` in segment i, as ``intp``
    from the segment counts its sums repeat by.
    """
    full = (1 << n) - 1
    first = block_table[full ^ (np.arange(1 << (n - 1)) << 1)]
    g_sum, g_max = [None, first], [None, first]
    for j in range(1, k_max):
        bounds, t_all = _pull_table(n - j)
        segs = len(bounds) - 1
        sum_prev, max_prev = g_sum[j], g_max[j]
        sum_next, max_next = np.empty(segs), np.empty(segs)
        # the segment holding every DP_SLAB_ROWS-th row opens a slab
        firsts = np.searchsorted(bounds, np.arange(0, bounds[-1], DP_SLAB_ROWS), side="right")
        cuts = list(dict.fromkeys((firsts - 1).tolist()))
        for lo, hi in zip(cuts, cuts[1:] + [segs]):
            t_arr = t_all[bounds[lo]:bounds[hi]]
            counts = np.diff(bounds[lo:hi + 1])
            r_arr = np.repeat(2 * np.arange(lo, hi), counts)
            r_arr |= t_arr
            w = block_table[np.left_shift(t_arr, j, dtype=np.intp)]
            at = bounds[lo:hi] - bounds[lo]
            np.maximum.reduceat(max_prev[r_arr] + w, at, out=max_next[lo:hi])
            vals = sum_prev[r_arr] + w
            peak = np.maximum.reduceat(vals, at)
            vals -= np.repeat(peak, counts)
            sum_next[lo:hi] = peak + np.log(np.add.reduceat(np.exp(vals, out=vals), at))
        g_sum.append(sum_next)
        g_max.append(max_next)
    return g_sum, g_max


def _smallest_map_labels(block_table: np.ndarray, g_max: list, n: int, j: int, q_mask: int,
                         memo: dict) -> tuple[int, ...]:
    """Smallest labels of the points carved before state ``(j, Q)`` over the
    maximizing ways to reach it in the max DP.

    Points in ``Q`` read ``n``, the others their block number.  Every
    completion of ``(j, Q)`` labels only points in ``Q``, so the smallest
    RGS through the state extends these labels; each step keeps the
    smallest over the tied last blocks, memoized per ``(j, Q)`` in ``memo``.
    The candidates are the transitions the max DP reduced into the state,
    segment ``Q >> j`` of ``_pull_table(n - j + 1)``.
    """
    key = (j, q_mask)
    if key in memo:
        return memo[key]
    if j == 1:
        best = tuple(n if q_mask >> i & 1 else 0 for i in range(n))
    else:
        shift = j - 1
        bounds, t_all = _pull_table(n - shift)
        seg = q_mask >> j
        cand = t_all[bounds[seg]:bounds[seg + 1]].astype(np.intp)
        vals = g_max[shift][cand | (q_mask >> shift)] + block_table[cand << shift]
        best = None
        for t_local in cand[vals == g_max[j][seg]].tolist():
            t_mask = t_local << shift
            prev = _smallest_map_labels(block_table, g_max, n, shift, q_mask | t_mask, memo)
            labels = tuple(shift if t_mask >> i & 1 else lab for i, lab in enumerate(prev))
            if best is None or labels < best:
                best = labels
    memo[key] = best
    return best


def _class_log_weights(labels: np.ndarray, block_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block counts and log class weights of a chunk of RGS rows.

    Blocks are summed left to right in order of their minima and ``log K!``
    is added last, the order of :meth:`BlockWeights.class_weight`, so both
    give the same floats.
    """
    rows, n = labels.shape
    K = labels.max(axis=1).astype(np.int64) + 1
    masks = np.zeros((rows, int(K.max())), dtype=np.int64)
    at = np.arange(rows)
    for i in range(n):
        masks[at, labels[:, i]] |= 1 << i
    lw = block_table[masks[:, 0]]
    for b in range(1, masks.shape[1]):
        np.add(lw, block_table[masks[:, b]], out=lw, where=K > b)
    log_k_factorial = np.array([math.lgamma(k + 1) for k in range(masks.shape[1] + 1)])
    return K, log_k_factorial[K] + lw


def _k_cap(n: int, max_K: int | None, only_K: int | None) -> int:
    if only_K is not None:
        return min(only_K, n)
    return n if max_K is None else min(max_K, n)


def class_weight_chunks(block_table: np.ndarray, n: int, max_K: int | None = None,
                        only_K: int | None = None):
    """Yield ``(labels, K, log_class_weight)`` arrays for every allowed class,
    in RGS order, one bounded chunk of :func:`rgs_chunks` at a time."""
    for labels in rgs_chunks(n, _k_cap(n, max_K, only_K)):
        K, lw = _class_log_weights(labels, block_table)
        if only_K is not None:
            keep = K == only_K
            labels, K, lw = labels[keep], K[keep], lw[keep]
        yield labels, K, lw


@dataclass
class PosteriorTable:
    """Normalized posterior over partition equivalence classes.

    Normalizer, K-marginals and MAP always come from the dynamic program.
    Only ``exact_posterior(retain=True)`` fills ``labels``, every class in
    the allowed set as a ``(rows, n)`` array of RGS rows in lexicographic
    order, and ``log_weights``, their log class weights; by default both
    are None.

    ``map_partition`` is the max-DP maximizer, ties broken to the
    lexicographically smallest RGS.  The max DP adds a class's blocks in
    the order :func:`class_weight_chunks` does, so ``map_log_weight`` is the
    MAP row's own weight.  Ties are exact ties in the max DP: a class whose
    partial sum is lower than the best one, but whose final weight rounds to
    the same float, is not walked, so such rounding ties may not follow the
    RGS rule.
    """

    n: int
    log_normalizer: float
    k_log_weights: dict[int, float]
    map_partition: Partition
    map_log_weight: float
    labels: np.ndarray | None = None
    log_weights: np.ndarray | None = None

    def k_marginals(self) -> dict[int, float]:
        return {k: math.exp(lw - self.log_normalizer) for k, lw in self.k_log_weights.items()}

    def prob_of_k(self, k: int) -> float:
        return math.exp(self.k_log_weights.get(k, -math.inf) - self.log_normalizer)

    def probability_of_log_weight(self, log_class_weight: float) -> float:
        return math.exp(log_class_weight - self.log_normalizer)


def exact_posterior(data: Dataset, cfg: BsfConfig, max_K: int | None = None,
                    only_K: int | None = None, retain: bool = False,
                    weights: BlockWeights | None = None) -> PosteriorTable:
    """Normalizer, K-marginals and MAP over every equivalence class, from the
    forward subset DP; with ``retain`` also every class's label row and log
    weight, from the enumeration core.

    ``max_K`` restricts to classes with at most that many blocks; ``only_K``
    to exactly that many (the known-cluster-count regime).
    """
    n = data.n
    check_cap(n, cfg.enum_cap, enumerates=retain)
    if None not in (only_K, max_K) and max_K < only_K:
        raise ValueError("max_K is below only_K")
    allowed = [k for k in range(1, _k_cap(n, max_K, only_K) + 1) if only_K in (None, k)]
    if not allowed:
        raise ValueError("no admissible number of blocks")

    if weights is None:
        weights = BlockWeights(data, cfg)
    block_table = weights.precompute()

    g_sum, g_max = _forward_dp(block_table, n, max(allowed))
    k_log_weights = {k: math.lgamma(k + 1) + float(g_sum[k][0]) for k in allowed}
    log_normalizer = logsumexp(np.array(list(k_log_weights.values())))
    map_lws = {k: math.lgamma(k + 1) + float(g_max[k][0]) for k in allowed}
    map_lw = max(map_lws.values())
    memo: dict = {}
    map_part = Partition(min(_smallest_map_labels(block_table, g_max, n, k, 0, memo)
                             for k, lw in map_lws.items() if lw == map_lw))

    labels = log_weights = None
    if retain:
        label_chunks, _, weight_chunks = zip(*class_weight_chunks(block_table, n, max_K, only_K))
        labels, log_weights = np.concatenate(label_chunks), np.concatenate(weight_chunks)

    return PosteriorTable(
        n=n,
        log_normalizer=log_normalizer,
        k_log_weights=k_log_weights,
        map_partition=map_part,
        map_log_weight=map_lw,
        labels=labels,
        log_weights=log_weights,
    )


def expected_hamming(table: PosteriorTable, truth: Partition) -> float:
    """Posterior expectation of the Hamming distance to ``truth`` over the
    table's classes (requires a retained table)."""
    if table.labels is None:
        raise ValueError("expected_hamming needs a retained table")
    dists = hamming_distances(table.labels, truth)
    return sum_in_order(math.exp(lw - table.log_normalizer) * d
                        for lw, d in zip(table.log_weights.tolist(), dists.tolist()))
