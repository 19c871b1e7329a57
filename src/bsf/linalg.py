"""Weighted graph Laplacians and stable log-determinants.

The clustering posterior is a product of determinants ``|L_V + J/|V||``
over cluster blocks, where ``L_V`` is the Laplacian of the complete graph
on the block with kernel edge weights.  Under bandwidth schedules the raw
weights span hundreds of orders of magnitude, so weights are rescaled by
the block maximum (entries in ``(0, 1]``) and the exact scale is restored
additively in the log domain: multiplying all weights by ``c`` multiplies
any spanning-tree sum, and hence ``|L[i]|`` and ``|L + J/n|``, by
``c^(n-1)``.

Every block log-det the model uses comes from one kernel over a stack of
blocks: node elimination in linear arithmetic whose pivots are sums of
positive weights (GTH elimination), so it never subtracts and is accurate
to rounding at any weight range.  ``subset_log_det`` runs it on a stack of
one, ``all_block_log_dets`` on one stack per block size.  Blocks whose
scaled weights would fall below the smallest normal float (about 708 nats
of in-block range) are handed to the same elimination done in the log
domain.  A block's value does not depend on the stack it rides in, so
the three ways ``LogDetCache`` prices blocks give the same bits: the full
table (which the sampler fills at n <= ``sampler.FULL_TABLE_MAX_N``), one
stack per size for a Gibbs site's window of
predicted blocks, and a stack of one for any other miss (split-merge
proposals, cache audits, the exact transition matrices).

The matrix-tree identity ``|L + J/n| = n |L[i]| = n * (sum over spanning
trees of edge-weight products)`` is the correctness anchor.  The dense
Cholesky determinants and a vectorized Prufer-sequence enumerator of all
spanning trees are independent legs that check the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

BRUTE_FORCE_CAP = 9  # n^(n-2) labeled trees; 9 -> 4.8e6
# entries a LogDetCache's lazy dict holds before it drops its oldest half;
# the full table is an array outside the dict
LOG_DET_CACHE_CAP = 1 << 20

# all-spanning-trees edge tables, keyed by node count (data independent)
_TREE_CACHE: dict[int, np.ndarray] = {}
# per-size subset masks and their members for the block table, keyed by n
_MASK_CACHE: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}


@dataclass(frozen=True)
class WeightedLaplacian:
    """Laplacian of a complete weighted graph, stored at unit scale.

    ``scaled`` is the Laplacian of the weights ``exp(logw - log_scale)``;
    ``log_scale`` is the factored-out maximum log weight, so determinant
    results of (n-1)-degree in the weights are corrected by adding
    ``(n - 1) * log_scale``.
    """

    scaled: np.ndarray
    log_scale: float

    def __post_init__(self):
        mat = np.asarray(self.scaled, dtype=float)
        object.__setattr__(self, "scaled", mat)

    @property
    def n(self) -> int:
        return self.scaled.shape[0]

    def dense(self) -> np.ndarray:
        """Laplacian in the original weights; overflows for extreme scales."""
        return self.scaled * math.exp(self.log_scale)


def laplacian_from_log_weights(logw: np.ndarray) -> WeightedLaplacian:
    """Build a scaled Laplacian from a symmetric matrix of log edge weights."""
    logw = np.asarray(logw, dtype=float)
    m = logw.shape[0]
    if m == 1:
        return WeightedLaplacian(np.zeros((1, 1)), 0.0)
    off = ~np.eye(m, dtype=bool)
    scale = float(logw[off].max())
    w = np.zeros((m, m))
    w[off] = np.exp(logw[off] - scale)
    lap = -w
    np.fill_diagonal(lap, w.sum(axis=1))
    return WeightedLaplacian(lap, scale)


def log_det_L_plus_J(lap: WeightedLaplacian) -> float:
    """``log |L + J/n|`` in the original weights.

    ``L + J/n`` is symmetric positive definite for strictly positive
    weights, so a Cholesky factorization of the scaled matrix succeeds;
    failure signals a numerically indefinite input.
    """
    m = lap.n
    if m == 1:
        return 0.0
    chol = np.linalg.cholesky(lap.scaled + 1.0 / m)
    return 2.0 * float(np.log(np.diag(chol)).sum()) + (m - 1) * lap.log_scale


def log_det_minor(lap: WeightedLaplacian, drop: int = 0) -> float:
    """``log |L[drop]|`` in the original weights; independent of ``drop``."""
    m = lap.n
    if m < 2:
        raise ValueError("principal minor needs at least 2 nodes")
    if not 0 <= drop < m:
        raise ValueError(f"drop index {drop} out of range for n={m}")
    keep = [i for i in range(m) if i != drop]
    chol = np.linalg.cholesky(lap.scaled[np.ix_(keep, keep)])
    return 2.0 * float(np.log(np.diag(chol)).sum()) + (m - 1) * lap.log_scale


def shifted_spectrum(lap: WeightedLaplacian, a: float, b: float) -> np.ndarray:
    """Predicted eigenvalues of ``L + aI + bJ`` from the spectrum of ``L``.

    The constant vector is an eigenvector of both ``L`` (eigenvalue 0) and
    ``J`` (eigenvalue n), so the predicted multiset is ``{lambda_i + a}``
    over the n-1 non-constant eigendirections plus ``n b + a``.  Returned
    sorted; intended for diagnostics at moderate weight scales.
    """
    dense = lap.dense()
    ev = np.linalg.eigvalsh(dense)
    predicted = np.concatenate([ev[1:] + a, [lap.n * b + a]])
    return np.sort(predicted)


def _all_tree_edges(n: int) -> np.ndarray:
    """Edge lists of all n^(n-2) labeled spanning trees on [n].

    Decodes every Prufer sequence at once with vectorized bookkeeping.
    Returns an int array of shape ``(n^(n-2), n-1, 2)``.
    """
    if n == 2:
        return np.array([[[0, 1]]], dtype=np.int8)
    count = n ** (n - 2)
    seqs = np.indices((n,) * (n - 2), dtype=np.int8).reshape(n - 2, count).T
    degree = np.ones((count, n), dtype=np.int16)
    np.add.at(degree, (np.arange(count)[:, None], seqs.astype(np.intp)), 1)
    edges = np.empty((count, n - 1, 2), dtype=np.int8)
    rows = np.arange(count)
    for k in range(n - 2):
        leaf = np.argmax(degree == 1, axis=1)
        other = seqs[:, k].astype(np.intp)
        edges[:, k, 0] = leaf
        edges[:, k, 1] = other
        degree[rows, leaf] -= 1
        degree[rows, other] -= 1
    first = np.argmax(degree == 1, axis=1)
    degree[rows, first] -= 1
    second = np.argmax(degree == 1, axis=1)
    edges[:, n - 2, 0] = first
    edges[:, n - 2, 1] = second
    return edges


def all_spanning_tree_edges(n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("spanning trees need at least 2 nodes")
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute-force enumeration capped at n <= {BRUTE_FORCE_CAP}")
    if n not in _TREE_CACHE:
        _TREE_CACHE[n] = _all_tree_edges(n)
    return _TREE_CACHE[n]


def spanning_tree_log_weights(logw: np.ndarray) -> np.ndarray:
    """Log weight (sum of log edge weights) of every labeled spanning tree."""
    logw = np.asarray(logw, dtype=float)
    n = logw.shape[0]
    edges = all_spanning_tree_edges(n)
    vals = logw[edges[..., 0].astype(np.intp), edges[..., 1].astype(np.intp)]
    return vals.sum(axis=1)


def spanning_tree_weight_bruteforce(logw: np.ndarray) -> float:
    """Log of the sum over all labeled spanning trees of edge-weight products.

    Independent oracle for ``log |L[i]|``; capped at small n by the
    n^(n-2) enumeration.
    """
    tree_logs = spanning_tree_log_weights(logw)
    peak = float(tree_logs.max())
    return peak + math.log(float(np.exp(tree_logs - peak).sum()))


def coarsened_laplacian(logw: np.ndarray, partition) -> WeightedLaplacian:
    """Laplacian on the K blocks with aggregated cross weights.

    Edge weight between blocks s and t is the sum of all kernel values
    over cross pairs, accumulated in the log domain.
    """
    logw = np.asarray(logw, dtype=float)
    blocks = partition.blocks()
    k = len(blocks)
    if k == 1:
        return WeightedLaplacian(np.zeros((1, 1)), 0.0)
    log_tau = np.zeros((k, k))
    for s in range(k):
        for t in range(s + 1, k):
            vals = logw[np.ix_(blocks[s], blocks[t])].ravel()
            peak = float(vals.max())
            log_tau[s, t] = peak + math.log(float(np.exp(vals - peak).sum()))
            log_tau[t, s] = log_tau[s, t]
    return laplacian_from_log_weights(log_tau)


# scaled weights below the smallest normal float (e^-708) lose precision
_LOG_TINY = math.log(np.finfo(float).tiny)


def _star_mesh_batch(sub: np.ndarray) -> np.ndarray:
    """``log |L[last]|`` for a stack of log-weight matrices ``(B, m, m)``,
    by node elimination entirely in the log domain."""
    b, m, _ = sub.shape
    cur = np.array(sub, dtype=float)
    idx = np.arange(m)
    cur[:, idx, idx] = -np.inf
    total = np.zeros(b)
    for _ in range(m - 1):
        row = cur[:, 0, 1:]
        peak = row.max(axis=1)
        pivot = peak + np.log(np.exp(row - peak[:, None]).sum(axis=1))
        total += pivot
        cur = np.logaddexp(
            cur[:, 1:, 1:], row[:, :, None] + row[:, None, :] - pivot[:, None, None]
        )
        k = cur.shape[1]
        cur[:, np.arange(k), np.arange(k)] = -np.inf
    return total


def _gth_batch(w: np.ndarray) -> np.ndarray:
    """``log |L[last]|`` for a stack of positive weight matrices ``(B, m, m)``.

    Eliminating a node is a star-mesh transform: its pivot is its current
    degree, taken as a sum of its weights, and every remaining weight gains
    ``w_ik * w_jk / d_k``.  Nothing is ever subtracted, so each entry stays
    accurate to rounding whatever the weights' range (Grassmann, Taksar and
    Heyman 1985; O'Cinneide 1993).  The diagonal is never read.
    """
    b, m, _ = w.shape
    pivots = np.empty((b, m - 1))
    for k in range(m - 1):
        row = w[:, 0, 1:]
        pivots[:, k] = d = row.sum(axis=1)
        w = w[:, 1:, 1:] + (row / d[:, None])[:, :, None] * row[:, None, :]
    return np.log(pivots).sum(axis=1)


def _block_log_dets(sub: np.ndarray) -> np.ndarray:
    """``log |L + J/m|`` for a stack of log-weight matrices ``(B, m, m)``.

    Each block is scaled by its largest off-diagonal weight, which is
    restored as ``(m - 1) * peak``; ``log m`` turns the minor ``|L[last]|``
    into ``|L + J/m|`` by the matrix-tree theorem.  The diagonal is ignored
    and ``sub`` is overwritten.
    """
    b, m, _ = sub.shape
    diag = np.arange(m)
    sub[:, diag, diag] = -np.inf
    peak = sub.max(axis=(1, 2))
    sub -= peak[:, None, None]
    sub[:, diag, diag] = 0.0  # not below any off-diagonal entry, so the min ignores it
    deep = sub.min(axis=(1, 2)) < _LOG_TINY
    if deep.any():
        minors = np.empty(b)
        minors[deep] = _star_mesh_batch(sub[deep])
        minors[~deep] = _gth_batch(np.exp(sub[~deep]))
    else:
        minors = _gth_batch(np.exp(sub))
    return math.log(m) + minors + (m - 1) * peak


def subset_log_det(logw: np.ndarray, indices) -> float:
    """``log |L_T + J/|T||`` for the block on ``indices`` (original weights).

    A stack of one for the block log-det kernel: elimination in linear
    arithmetic on max-scaled weights, handed to the log domain when the
    block's weights span more than float64 can hold (about 708 nats)."""
    indices = list(indices)
    if not indices:
        raise ValueError("empty subset")
    if len(indices) == 1:
        return 0.0
    sub = np.asarray(logw, dtype=float)[np.ix_(indices, indices)]
    return float(_block_log_dets(sub[None])[0])


def _masks_by_size(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each popcount m in 2..n, all bitmasks of m of n bits and their
    member indices; cached per n."""
    if n not in _MASK_CACHE:
        from itertools import combinations

        tables = []
        for m in range(2, n + 1):
            idx = np.array(list(combinations(range(n), m)), dtype=np.intp)
            tables.append(((1 << idx).sum(axis=1), idx))
        _MASK_CACHE[n] = tables
    return _MASK_CACHE[n]


def all_block_log_dets(logw: np.ndarray) -> np.ndarray:
    """``log |L_T + J/|T||`` for every subset mask T of [n], one stack per size.

    Each size is one call of the block log-det kernel that
    ``subset_log_det`` uses, so table entries and single blocks agree to
    rounding.  Entry 0 and all singleton masks are 0 (the one-point
    Laplacian is the 1x1 zero matrix and ``|0 + 1| = 1``).  Intended for n
    up to about ``sampler.FULL_TABLE_MAX_N``.
    """
    logw = np.asarray(logw, dtype=float)
    n = logw.shape[0]
    out = np.zeros(1 << n)
    for masks, idx in _masks_by_size(n):
        out[masks] = _block_log_dets(logw[idx[:, :, None], idx[:, None, :]])
    return out


class LogDetCache:
    """Lazy per-subset ``log |L_T + J/|T||`` values keyed by bitmask.

    Shared by the exact-posterior machinery and the MCMC sampler so both
    price blocks identically.  A block is priced in one of three ways, all
    through the one block log-det kernel, so each gives the same bits:

    - ``precompute_all`` fills the full table for small n (the sampler does
      this at n <= ``sampler.FULL_TABLE_MAX_N``) in one stack per block
      size; ``get`` reads that array after, and no lookup misses.
    - ``price`` takes the masks a Gibbs site predicts it and the next sites
      of the sweep will need, and prices the uncached ones in one stack per
      block size.
    - ``get`` on any other miss (split-merge proposals, cache audits, the
      exact transition matrices) prices the one block as a stack of one.

    Before a stack would take the cache past ``LOG_DET_CACHE_CAP`` entries,
    it drops its oldest half in insertion order.  ``counters`` holds the
    blocks priced alone and in stacks of two or more, those stacks and the
    entries evicted; the full table is not counted.
    """

    def __init__(self, logw: np.ndarray):
        self.logw = np.asarray(logw, dtype=float)
        self.n = self.logw.shape[0]
        self._cache: dict[int, float] = {0: 0.0}
        self._table: np.ndarray | None = None
        self._bytes = (self.n + 7) // 8
        self.counters = {"alone": 0, "stacked": 0, "stacks": 0, "evicted": 0}

    @property
    def complete(self) -> bool:
        """Whether the full table is in, so no lookup can miss."""
        return self._table is not None

    def __contains__(self, mask: int) -> bool:
        return self._table is not None or mask in self._cache

    def precompute_all(self) -> np.ndarray:
        if self._table is None:
            self._table = all_block_log_dets(self.logw)
        return self._table

    def get(self, mask: int) -> float:
        if self._table is not None:
            return float(self._table[mask])
        val = self._cache.get(mask)
        if val is None:
            self.price((mask,))
            val = self._cache[mask]
        return val

    def price(self, masks) -> None:
        """Price every mask not yet cached, one kernel stack per block size.

        Masks of at most one point are 0 and skip the kernel; masks already
        cached keep their values.  Repeats are priced once: a Gibbs window
        over singleton blocks {a} and {b} asks for {a, b} from both.  With
        the full table in there is nothing to price.
        """
        if self._table is not None:
            return
        cache = self._cache
        by_size: dict[int, list[int]] = {}
        for mask in dict.fromkeys(masks):
            if mask not in cache:
                by_size.setdefault(mask.bit_count(), []).append(mask)
        for size, group in by_size.items():
            if size < 2:
                self._store(group, [0.0] * len(group))
                continue
            if len(group) == 1:
                self.counters["alone"] += 1
            else:
                self.counters["stacked"] += len(group)
                self.counters["stacks"] += 1
            idx = self._members(group)
            self._store(group, _block_log_dets(self.logw[idx[:, :, None], idx[:, None, :]]).tolist())

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
        """Recompute without the cache (self-audit hook)."""
        indices = [i for i in range(self.n) if mask >> i & 1]
        return subset_log_det(self.logw, indices)
