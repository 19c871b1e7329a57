"""MCMC over canonical partitions targeting the class-weight posterior.

One iteration interleaves a systematic-scan Gibbs sweep (each point is
reassigned from its exact full conditional over existing blocks or a new
singleton, in random order) with one split-merge Metropolis-Hastings move
(pick two points; split their common block with a uniform separating
bipartition, or merge their two blocks).  Both kernels leave the class
posterior invariant: the Gibbs conditional is exact on its finite support,
and the split proposal probability ``2^-(m-2)`` is accounted exactly in
the acceptance ratio.

Determinism contract: a chain is a pure function of (data, config,
schedule, seed).  Replicate-level streams are derived with
``numpy.random.SeedSequence(master, spawn_key=(index,))`` so parallel
chains never share a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .partitions import Partition, canonicalize, rgs_chunks
from .posterior import BlockWeights, BsfConfig

CACHE_AUDIT_PERIOD = 1000
CACHE_AUDIT_TOL = 1e-9
LOG2 = math.log(2.0)


class ChainState:
    """Mutable sampler state: block assignment plus cached block weights.

    ``slots[k]`` is the bitmask of block k; slot ids are compact but carry
    no meaning.  Cached per-block weights live in the shared
    :class:`BlockWeights` mask table, so cache coherence is auditable by
    recomputing the current blocks from scratch.
    """

    def __init__(self, weights: BlockWeights, labels, rng: np.random.Generator):
        self.weights = weights
        self.n = weights.n
        self.rng = rng
        self.step_count = 0
        canon = canonicalize(labels)
        self.assign = list(canon.labels)
        self.slots = canon.block_masks()

    @property
    def K(self) -> int:
        return len(self.slots)

    def partition(self) -> Partition:
        return canonicalize(self.assign)

    def log_class_weight(self) -> float:
        return math.lgamma(self.K + 1) + sum(self.weights.block(m) for m in self.slots)

    def audit_cache(self, tol: float = CACHE_AUDIT_TOL) -> float:
        """Compare cached block weights against fresh recomputation."""
        worst = 0.0
        for mask in self.slots:
            diff = abs(self.weights.block(mask) - self.weights.block_fresh(mask))
            worst = max(worst, diff)
        if worst > tol:
            raise RuntimeError(f"block-weight cache drifted by {worst:.3e}")
        return worst

    def _drop_slot(self, slot: int) -> None:
        last = len(self.slots) - 1
        if slot != last:
            self.slots[slot] = self.slots[last]
            mask = self.slots[slot]
            for i in range(self.n):
                if mask >> i & 1:
                    self.assign[i] = slot
        self.slots.pop()


def _sample_categorical_log(rng: np.random.Generator, log_scores) -> int:
    arr = np.asarray(log_scores, dtype=float)
    peak = arr.max()
    probs = np.exp(arr - peak)
    probs /= probs.sum()
    u = rng.random()
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(arr) - 1))


def gibbs_sweep(state: ChainState, data: Dataset, cfg: BsfConfig) -> ChainState:
    """One full-conditional pass over all points, in random order.

    For a point with the rest of the partition fixed at ``K`` blocks, the
    conditional over placements is proportional to the class weight of the
    resulting partition: joining block B scores the weight increment of B,
    and opening a singleton scores ``log(K + 1)`` (the label-multiplicity
    gain) plus the singleton block weight.
    """
    w = state.weights
    order = state.rng.permutation(state.n)
    for i in order:
        bit = 1 << int(i)
        slot = state.assign[i]
        remaining = state.slots[slot] ^ bit
        if remaining == 0:
            state._drop_slot(slot)
        else:
            state.slots[slot] = remaining
        k_rest = state.K
        scores = [w.block(state.slots[j] | bit) - w.block(state.slots[j]) for j in range(k_rest)]
        scores.append(math.log(k_rest + 1) + w.block(bit))
        choice = _sample_categorical_log(state.rng, scores)
        if choice == k_rest:
            state.slots.append(bit)
        else:
            state.slots[choice] |= bit
        state.assign[i] = choice
    state.step_count += 1
    return state


def split_merge_move(state: ChainState, data: Dataset, cfg: BsfConfig) -> tuple[ChainState, str, bool]:
    """One split-merge Metropolis-Hastings proposal.

    Returns the state plus the move type ("split" or "merge") and whether
    it was accepted.  A split of a block of size m separates the two picked
    points and routes every other member by a fair bit, so the proposal
    probability of the specific bipartition is ``2^-(m-2)`` and the reverse
    merge is deterministic given the picked pair.
    """
    if state.n < 2:
        raise ValueError("split-merge needs at least 2 points")
    w = state.weights
    rng = state.rng
    i, j = (int(x) for x in rng.choice(state.n, size=2, replace=False))
    slot_i, slot_j = state.assign[i], state.assign[j]
    if slot_i == slot_j:
        mask = state.slots[slot_i]
        m = mask.bit_count()
        part_a, part_b = 1 << i, 1 << j
        others = mask ^ part_a ^ part_b
        if others:
            bits = rng.random(m - 2) < 0.5
            pos = 0
            for t in range(state.n):
                if others >> t & 1:
                    if bits[pos]:
                        part_a |= 1 << t
                    else:
                        part_b |= 1 << t
                    pos += 1
        log_acc = (
            math.log(state.K + 1)
            + w.block(part_a) + w.block(part_b) - w.block(mask)
            + (m - 2) * LOG2
        )
        accepted = math.log(rng.random() or 5e-324) < log_acc
        if accepted:
            state.slots[slot_i] = part_a
            new_slot = len(state.slots)
            state.slots.append(part_b)
            for t in range(state.n):
                if part_b >> t & 1:
                    state.assign[t] = new_slot
        return state, "split", accepted
    mask_a, mask_b = state.slots[slot_i], state.slots[slot_j]
    merged = mask_a | mask_b
    m = merged.bit_count()
    log_acc = (
        -math.log(state.K)
        + w.block(merged) - w.block(mask_a) - w.block(mask_b)
        - (m - 2) * LOG2
    )
    accepted = math.log(rng.random() or 5e-324) < log_acc
    if accepted:
        state.slots[slot_i] = merged
        for t in range(state.n):
            if mask_b >> t & 1:
                state.assign[t] = slot_i
        state._drop_slot(slot_j)
    return state, "merge", accepted


@dataclass
class ChainSummary:
    """Post-burnin record of a chain (or a merged set of chains)."""

    n: int
    n_samples: int
    k_counts: dict[int, int]
    cocluster_counts: np.ndarray
    samples: list[tuple[int, ...]]
    accept_counts: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def k_histogram(self) -> dict[int, float]:
        return {k: c / self.n_samples for k, c in sorted(self.k_counts.items())}

    @property
    def cocluster(self) -> np.ndarray:
        """Fraction of retained samples in which i and j share a block."""
        return self.cocluster_counts / self.n_samples

    def acceptance_rates(self) -> dict[str, float]:
        return {
            move: (acc / prop if prop else float("nan"))
            for move, (acc, prop) in sorted(self.accept_counts.items())
        }

    def class_frequencies(self) -> dict[tuple[int, ...], float]:
        freqs: dict[tuple[int, ...], float] = {}
        inc = 1.0 / self.n_samples
        for labels in self.samples:
            freqs[labels] = freqs.get(labels, 0.0) + inc
        return freqs


def merge_summaries(a: ChainSummary, b: ChainSummary) -> ChainSummary:
    """Associative reduction of summaries from independent chains."""
    if a.n != b.n:
        raise ValueError("summaries are over different n")
    k_counts = dict(a.k_counts)
    for k, c in b.k_counts.items():
        k_counts[k] = k_counts.get(k, 0) + c
    accept: dict[str, tuple[int, int]] = dict(a.accept_counts)
    for move, (acc, prop) in b.accept_counts.items():
        a0, p0 = accept.get(move, (0, 0))
        accept[move] = (a0 + acc, p0 + prop)
    return ChainSummary(
        n=a.n,
        n_samples=a.n_samples + b.n_samples,
        k_counts=k_counts,
        cocluster_counts=a.cocluster_counts + b.cocluster_counts,
        samples=a.samples + b.samples,
        accept_counts=accept,
    )


def run_chain(data: Dataset, cfg: BsfConfig, iters: int, burnin: int, thin: int,
              seed: int, weights: BlockWeights | None = None) -> ChainSummary:
    """Run one chain from the all-singletons state; deterministic per seed."""
    if not (iters > burnin >= 0):
        raise ValueError("need iters > burnin >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if weights is None:
        weights = BlockWeights(data, cfg)
    if data.n <= 13:
        weights.precompute()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    state = ChainState(weights, range(data.n), rng)
    n = data.n
    k_counts: dict[int, int] = {}
    cocluster = np.zeros((n, n), dtype=np.int64)
    samples: list[tuple[int, ...]] = []
    accept = {"split": [0, 0], "merge": [0, 0]}
    n_samples = 0
    for it in range(iters):
        gibbs_sweep(state, data, cfg)
        if n >= 2:
            _, move, ok = split_merge_move(state, data, cfg)
            accept[move][1] += 1
            accept[move][0] += int(ok)
        if it >= burnin and (it - burnin) % thin == 0:
            labels = state.partition().labels
            samples.append(labels)
            k = max(labels) + 1
            k_counts[k] = k_counts.get(k, 0) + 1
            z = np.asarray(labels)
            cocluster += (z[:, None] == z[None, :])
            n_samples += 1
        if (it + 1) % CACHE_AUDIT_PERIOD == 0:
            state.audit_cache()
    return ChainSummary(
        n=n,
        n_samples=n_samples,
        k_counts=k_counts,
        cocluster_counts=cocluster,
        samples=samples,
        accept_counts={move: (acc, prop) for move, (acc, prop) in accept.items()},
    )


# ---------------------------------------------------------------------------
# Exhaustive kernels for small n: used to check invariance/stationarity of
# the exact transition law against the enumerated posterior.


def _class_index(n: int):
    classes = [Partition(tuple(row)) for chunk in rgs_chunks(n) for row in chunk.tolist()]
    index = {p.labels: i for i, p in enumerate(classes)}
    return classes, index


def single_site_matrix(weights: BlockWeights, point: int) -> np.ndarray:
    """Exact transition matrix of the Gibbs update at one point."""
    n = weights.n
    classes, index = _class_index(n)
    mat = np.zeros((len(classes), len(classes)))
    bit = 1 << point
    for row, part in enumerate(classes):
        masks = [m for m in part.block_masks()]
        slot = part.labels[point]
        masks[slot] ^= bit
        rest = [m for m in masks if m]
        scores = [weights.block(m | bit) - weights.block(m) for m in rest]
        scores.append(math.log(len(rest) + 1) + weights.block(bit))
        arr = np.asarray(scores)
        probs = np.exp(arr - arr.max())
        probs /= probs.sum()
        for choice, prob in enumerate(probs):
            blocks = list(rest)
            if choice < len(rest):
                blocks[choice] |= bit
            else:
                blocks.append(bit)
            mat[row, index[_labels_of(blocks, n)]] += prob
    return mat


def gibbs_sweep_matrix(weights: BlockWeights) -> np.ndarray:
    """Sweep kernel averaged over all point orders (exact, tiny n only)."""
    from itertools import permutations

    n = weights.n
    site = [single_site_matrix(weights, i) for i in range(n)]
    total = None
    count = 0
    for order in permutations(range(n)):
        mat = np.eye(site[0].shape[0])
        for i in order:
            mat = mat @ site[i]
        total = mat if total is None else total + mat
        count += 1
    return total / count


def split_merge_matrix(weights: BlockWeights) -> np.ndarray:
    """Exact split-merge kernel: sum over pairs, patterns, and accept/reject."""
    n = weights.n
    classes, index = _class_index(n)
    size = len(classes)
    mat = np.zeros((size, size))
    pair_prob = 1.0 / (n * (n - 1))
    for row, part in enumerate(classes):
        masks = part.block_masks()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                si, sj = part.labels[i], part.labels[j]
                if si == sj:
                    mask = masks[si]
                    m = mask.bit_count()
                    others = [t for t in range(n) if (mask >> t & 1) and t not in (i, j)]
                    pattern_prob = 0.5 ** len(others)
                    for pattern in range(1 << len(others)):
                        part_a, part_b = 1 << i, 1 << j
                        for pos, t in enumerate(others):
                            if pattern >> pos & 1:
                                part_a |= 1 << t
                            else:
                                part_b |= 1 << t
                        log_acc = (
                            math.log(part.K + 1)
                            + weights.block(part_a) + weights.block(part_b)
                            - weights.block(mask) + (m - 2) * LOG2
                        )
                        acc = math.exp(min(0.0, log_acc))
                        blocks = [mk for s, mk in enumerate(masks) if s != si]
                        blocks += [part_a, part_b]
                        col = index[_labels_of(blocks, n)]
                        mat[row, col] += pair_prob * pattern_prob * acc
                        mat[row, row] += pair_prob * pattern_prob * (1.0 - acc)
                else:
                    merged = masks[si] | masks[sj]
                    m = merged.bit_count()
                    log_acc = (
                        -math.log(part.K)
                        + weights.block(merged) - weights.block(masks[si])
                        - weights.block(masks[sj]) - (m - 2) * LOG2
                    )
                    acc = math.exp(min(0.0, log_acc))
                    blocks = [mk for s, mk in enumerate(masks) if s not in (si, sj)]
                    blocks.append(merged)
                    col = index[_labels_of(blocks, n)]
                    mat[row, col] += pair_prob * acc
                    mat[row, row] += pair_prob * (1.0 - acc)
    return mat


def _labels_of(blocks: list[int], n: int) -> tuple[int, ...]:
    labels = [0] * n
    for b_id, mask in enumerate(blocks):
        for t in range(n):
            if mask >> t & 1:
                labels[t] = b_id
    return canonicalize(labels).labels


def combined_transition_matrix(weights: BlockWeights) -> np.ndarray:
    """One full iteration: Gibbs sweep followed by one split-merge move."""
    return gibbs_sweep_matrix(weights) @ split_merge_matrix(weights)
