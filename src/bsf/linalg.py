"""Stable log-determinants of weighted graph Laplacian blocks.

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
bounded stacks of each block size, and :class:`bsf.posterior.BlockWeights`
on the stacks of blocks it prices lazily.  Blocks whose scaled weights
would fall below the smallest normal float (about 708 nats of in-block
range) are handed to the same elimination done in the log domain.  A
block's value does not depend on the stack it rides in, so every caller
gets the same bits for it.

The matrix-tree identity ``|L + J/n| = n |L[i]| = n * (sum over spanning
trees of edge-weight products)`` is the correctness anchor.  The reference
legs that check the kernel against it (dense Cholesky determinants, the
eigen-shift prediction and spanning-tree enumeration) live in
:mod:`bsf.theory`.  The two scalar reductions the other modules share live
here too: :func:`logsumexp` and :func:`sum_in_order`, the one float sum
whose bits do not depend on the Python version.
"""

from __future__ import annotations

import math
import operator
from functools import cache, reduce
from itertools import combinations

import numpy as np

# most blocks the block table prices in one stack: a whole size at n = 16 is
# up to C(16, 8) = 12,870 blocks, 6.6 MB a temporary, while every size up to
# n = 13 (at most C(13, 6) = 1,716 blocks) still fits in one stack
TABLE_STACK_MAX = 1 << 11


def logsumexp(values: np.ndarray) -> float:
    """``log(sum(exp(values)))``, shifted by the peak; -inf for an empty or
    all -inf array."""
    peak = float(values.max()) if values.size else -math.inf
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(float(np.exp(values - peak).sum()))


def sum_in_order(values) -> float:
    """The sum of one or more floats, added left to right.  The builtin
    ``sum()`` compensates floats from Python 3.12 on, which would change
    the bits of every sum that must match another one added in order."""
    return reduce(operator.add, values)


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


@cache
def _masks_by_size(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each popcount m in 2..n, all bitmasks of m of n bits and their
    member indices (data independent, so kept for the process's life)."""
    tables = []
    for m in range(2, n + 1):
        idx = np.array(list(combinations(range(n), m)), dtype=np.intp)
        tables.append(((1 << idx).sum(axis=1), idx))
    return tables


def all_block_log_dets(logw: np.ndarray) -> np.ndarray:
    """``log |L_T + J/|T||`` for every subset mask T of [n], in stacks of
    at most ``TABLE_STACK_MAX`` blocks of one size.

    Each stack is one call of :func:`block_log_dets`, the kernel that
    ``subset_log_det`` uses, so table entries and single blocks have the
    same bits.  Entry 0 and all singleton masks are 0 (the one-point
    Laplacian is the 1x1 zero matrix and ``|0 + 1| = 1``).  Intended for the
    small n at which the 2^n table fits: the exact path and short chains.
    """
    logw = np.asarray(logw, dtype=float)
    n = logw.shape[0]
    out = np.zeros(1 << n)
    for masks, idx in _masks_by_size(n):
        for lo in range(0, len(masks), TABLE_STACK_MAX):
            hi = lo + TABLE_STACK_MAX
            out[masks[lo:hi]] = block_log_dets(logw, idx[lo:hi])
    return out

