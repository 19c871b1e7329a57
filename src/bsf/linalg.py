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
equal-size blocks, :func:`block_log_dets`: node elimination in linear
arithmetic whose pivots are sums of positive weights (GTH elimination), so
it never subtracts and is accurate to rounding at any weight range.
``subset_log_det`` runs it on a stack of one, ``all_block_log_dets`` on
one stack per block size, and :class:`bsf.posterior.BlockWeights` on the
stacks of blocks it prices lazily.  Blocks whose scaled weights would fall
below the smallest normal float (about 708 nats of in-block range) are
handed to the same elimination done in the log domain.  A block's value
does not depend on the stack it rides in, so every caller gets the same
bits for it.

The matrix-tree identity ``|L + J/n| = n |L[i]| = n * (sum over spanning
trees of edge-weight products)`` is the correctness anchor.  The dense
Cholesky determinants and a vectorized Prufer-sequence enumerator of all
spanning trees are independent legs that check the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_CAP = 9  # n^(n-2) labeled trees; 9 -> 4.8e6

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


def logsumexp(values: np.ndarray) -> float:
    """``log(sum(exp(values)))``, shifted by the peak; -inf for an empty or
    all -inf array."""
    peak = float(values.max()) if values.size else -math.inf
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(float(np.exp(values - peak).sum()))


def spanning_tree_weight_bruteforce(logw: np.ndarray) -> float:
    """Log of the sum over all labeled spanning trees of edge-weight products.

    Independent oracle for ``log |L[i]|``; capped at small n by the
    n^(n-2) enumeration.
    """
    return logsumexp(spanning_tree_log_weights(logw))


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
            log_tau[s, t] = logsumexp(logw[np.ix_(blocks[s], blocks[t])].ravel())
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


def block_log_dets(logw: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``log |L_T + J/m|`` for a stack of blocks of m >= 2 points each, given
    as a ``(B, m)`` array of member indices into the float matrix ``logw``.

    Each block is scaled by its largest off-diagonal weight, which is
    restored as ``(m - 1) * peak``; ``log m`` turns the minor ``|L[last]|``
    into ``|L + J/m|`` by the matrix-tree theorem.  The diagonal of
    ``logw`` is ignored.
    """
    sub = logw[members[:, :, None], members[:, None, :]]
    b, m = members.shape
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
    """``log |L_T + J/|T||`` for the block on ``indices`` (original weights):
    :func:`block_log_dets` on a stack of one."""
    indices = list(indices)
    if not indices:
        raise ValueError("empty subset")
    if len(indices) == 1:
        return 0.0
    return float(block_log_dets(np.asarray(logw, dtype=float), np.array([indices]))[0])


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

    Each size is one call of :func:`block_log_dets`, the kernel that
    ``subset_log_det`` uses, so table entries and single blocks have the
    same bits.  Entry 0 and all singleton masks are 0 (the one-point
    Laplacian is the 1x1 zero matrix and ``|0 + 1| = 1``).  Intended for the
    small n at which the 2^n table fits: the exact path and short chains.
    """
    logw = np.asarray(logw, dtype=float)
    n = logw.shape[0]
    out = np.zeros(1 << n)
    for masks, idx in _masks_by_size(n):
        out[masks] = block_log_dets(logw, idx)
    return out

