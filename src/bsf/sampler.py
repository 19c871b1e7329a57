"""MCMC over canonical partitions targeting the class-weight posterior.

One iteration interleaves a random-scan Gibbs sweep (each point, in a
fresh random order, is reassigned from its exact full conditional over
existing blocks or a new singleton) with one split-merge
Metropolis-Hastings move (pick two points; split their common block with a
uniform separating bipartition, or merge their two blocks).  Both kernels
leave the class posterior invariant: the Gibbs conditional is exact on its
finite support, and the split proposal probability ``2^-(m-2)`` is
accounted exactly in the acceptance ratio.

The moves are priced and applied by :class:`ChainState` methods alone; the
live moves add only the random draws.  The exhaustive transition matrices
for small n drive the same methods through every choice and route, so the
stationarity tests check the code the chain runs.

Block weights come from the one store, :class:`~bsf.posterior.BlockWeights`,
and :class:`ChainState` picks how to read them from n alone.  At n <=
``DP_MAX_N``, where the exact DP runs, it reads the dense 2^n table as one
Python list, one subscript per block, and nothing is priced during the
chain.  Above that it reads the store's lazy dict, and a Gibbs site that
misses a block prices it together with the blocks the next
``PRICE_WINDOW - 1`` sites of the sweep would score against it, one kernel
stack per block size.  Split-merge proposals and the exact matrices price a
missing block alone.  A block's value is the same bits whichever way priced
it, so neither choice changes a chain.

A state keeps its blocks as bitmasks in ascending order, one form per
partition.  A Gibbs site's conditional is a function of the other points'
blocks, which leave out only the site's point, so :class:`ChainState`
memoizes it on them, within ``MEMO_CAP`` entries.  A site that misses
normalizes its K + 1 scores with one ``np.exp`` and a numpy sum, whose
bits (SIMD ``exp``, pairwise summation) the chain depends on, and does
the rest in Python floats: the peak, and the inverse-CDF pick against one
uniform per site, drawn for the whole sweep at once.

Determinism contract: a chain is a pure function of (data, config,
schedule, seed).  Replicate-level streams are derived with
``numpy.random.SeedSequence(master, spawn_key=(index,))`` so parallel
chains never share a stream.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import reduce
from itertools import permutations

import numpy as np

from .data import Dataset
from .partitions import canonicalize, rgs_chunks
from .posterior import DP_MAX_N, BlockWeights, BsfConfig

CACHE_AUDIT_PERIOD = 1000
CACHE_AUDIT_TOL = 1e-9
LOG2 = math.log(2.0)
# a Gibbs site that misses a block prices it for itself and the next 15 sites
PRICE_WINDOW = 16
# entries at which a ChainState empties its memo of Gibbs conditionals
MEMO_CAP = 1 << 11


class ChainState:
    """Mutable sampler state: the blocks plus the block-weight lookup.

    ``slots`` holds the blocks as bitmasks in ascending order, the one
    canonical form of a partition: a point's block is the mask holding its
    bit, and every move keeps the list sorted.  Block weights live in the
    shared :class:`BlockWeights` store, so coherence is auditable by
    recomputing the current blocks from scratch.

    The lookup is chosen here, once, from n.  At n <= ``DP_MAX_N``,
    ``block`` subscripts ``table``, :meth:`BlockWeights.precompute` as a
    Python list, and ``window`` is 0.  Above it ``table`` is None, ``block``
    is :meth:`BlockWeights.block` and ``window`` is ``PRICE_WINDOW - 1``:
    the upcoming sites :func:`gibbs_sweep` passes a site to price ahead for.

    ``memo`` maps ``tuple(slots)`` with a Gibbs site's point out, which names
    the point too, to its conditional; it is emptied past ``MEMO_CAP``
    entries, and ``memo_hits`` and ``memo_misses`` count its lookups.
    """

    def __init__(self, weights: BlockWeights, labels, rng: np.random.Generator | None = None):
        self.weights = weights
        self.n = weights.n
        self.rng = rng
        self.slots = sorted(canonicalize(labels).block_masks())
        self.memo: dict[tuple[int, ...], list[float]] = {}
        self.memo_hits = self.memo_misses = 0
        if self.n <= DP_MAX_N:
            self.table = weights.precompute().tolist()
            self.block = self.table.__getitem__
            self.window = 0
        else:
            self.table = None
            self.block = weights.block
            self.window = PRICE_WINDOW - 1

    @property
    def K(self) -> int:
        return len(self.slots)

    def rgs(self) -> tuple[int, ...]:
        """Canonical labels of the current partition: blocks numbered in
        order of their least point, as :func:`canonicalize` would."""
        labels = [0] * self.n
        for k, mask in enumerate(sorted(self.slots, key=lambda m: m & -m)):
            while mask:
                low = mask & -mask
                labels[low.bit_length() - 1] = k
                mask ^= low
        return tuple(labels)

    def audit_cache(self) -> float:
        """Compare the block weights the moves read against fresh
        recomputation; raise past ``CACHE_AUDIT_TOL``."""
        worst = 0.0
        for mask in self.slots:
            diff = abs(self.block(mask) - self.weights.fresh(mask))
            worst = max(worst, diff)
        if worst > CACHE_AUDIT_TOL:
            raise RuntimeError(f"block-weight cache drifted by {worst:.3e}")
        return worst

    def find(self, i: int) -> int:
        """The block holding point i."""
        for mask in self.slots:
            if mask >> i & 1:
                return mask

    def remove(self, i: int, upcoming=()) -> list[float]:
        """Take point i out of its block; return the probabilities of joining
        each of the K blocks left, in ``slots`` order, and, last, of opening
        a singleton.

        Each is proportional to the class weight of the resulting partition:
        joining block B scores the weight increment of B, and a singleton
        scores ``log(K + 1)`` (the label-multiplicity gain) plus its weight.
        They are a function of the blocks left, which name i too, so blocks
        seen before return the list ``memo`` holds (shared: callers must not
        change it), the bits a fresh computation gives, reading no block.

        The peak is taken and subtracted in Python floats; the one
        ``np.exp`` and the numpy sum stay, since their bits are the chain's.

        ``upcoming`` holds the points the sweep visits next.  When the store
        lacks ``B | {i}`` for a block B, it prices ``B ^ {t}`` for i and
        every upcoming t in one stack per size: the block each of those
        sites scores B against, unless a move changes B first.  Without
        ``upcoming`` (the exact matrices, and chains at n <= ``DP_MAX_N``) a
        missing block is priced alone.
        """
        bit = 1 << i
        slots = self.slots
        mask = self.find(i)
        slots.remove(mask)
        if mask != bit:
            insort(slots, mask ^ bit)
        key = tuple(slots)
        memo = self.memo
        probs = memo.get(key)
        if probs is not None:
            self.memo_hits += 1
            return probs
        self.memo_misses += 1
        block = self.block
        if upcoming:
            weights = self.weights
            missed = [mask for mask in slots if mask | bit not in weights]
            if missed:
                weights.price([mask ^ (1 << t) for mask in missed for t in (i, *upcoming)])
        scores = [block(mask | bit) - block(mask) for mask in slots]
        scores.append(math.log(self.K + 1) + block(bit))
        peak = max(scores)
        probs = np.exp(np.array([score - peak for score in scores]))
        probs = memo[key] = (probs / probs.sum()).tolist()
        if len(memo) > MEMO_CAP:
            memo.clear()
        return probs

    def place(self, i: int, choice: int) -> None:
        """Put the removed point i into block ``choice`` of ``slots`` (K: a
        new singleton)."""
        slots = self.slots
        insort(slots, (slots.pop(choice) if choice < len(slots) else 0) | 1 << i)

    def route_length(self, i: int, j: int) -> int:
        """Route bits a split of the picked pair takes: the other members of
        their common block, or 0 when they are in different blocks."""
        mask = self.find(i)
        return mask.bit_count() - 2 if mask >> j & 1 else 0

    def propose(self, i: int, j: int, route) -> tuple[str, float, tuple[tuple[int, ...], ...]]:
        """Split-merge proposal for the picked pair (i, j): the move ("split"
        or "merge"), its log acceptance ratio and the change for :meth:`commit`.

        A split sends the other members of the block, in index order, to
        i's side where ``route`` is true and to j's otherwise; that
        bipartition's proposal probability ``2^-(m-2)`` enters the ratio,
        and the reverse merge is deterministic given the pair.
        """
        block = self.block
        mask = self.find(i)
        if mask >> j & 1:
            m = mask.bit_count()
            part_a, part_b = 1 << i, 1 << j
            free = (t for t in range(self.n) if mask >> t & 1 and t != i and t != j)
            for t, to_a in zip(free, route, strict=True):
                if to_a:
                    part_a |= 1 << t
                else:
                    part_b |= 1 << t
            log_acc = (
                math.log(self.K + 1)
                + block(part_a) + block(part_b) - block(mask)
                + (m - 2) * LOG2
            )
            return "split", log_acc, ((mask,), (part_a, part_b))
        mask_b = self.find(j)
        merged = mask | mask_b
        m = merged.bit_count()
        log_acc = (
            -math.log(self.K)
            + block(merged) - block(mask) - block(mask_b)
            - (m - 2) * LOG2
        )
        return "merge", log_acc, ((mask, mask_b), (merged,))

    def commit(self, change: tuple[tuple[int, ...], ...]) -> None:
        """Apply an accepted :meth:`propose` change: (blocks out, blocks in)."""
        gone, made = change
        self.slots = sorted(set(self.slots).difference(gone).union(made))


def _pick(probs: list[float], u: float) -> int:
    """Inverse-CDF pick: how many running sums of ``probs`` are <= u, at
    most ``len(probs) - 1``.  The running sums are the sequential adds of
    ``np.cumsum``, so this equals the clamped
    ``np.searchsorted(np.cumsum(probs), u, side="right")``; the clamp
    catches a u at or above a last sum that rounding leaves below 1."""
    last = len(probs) - 1
    total = 0.0
    for choice in range(last):
        total += probs[choice]
        if total > u:
            return choice
    return last


def gibbs_sweep(state: ChainState) -> ChainState:
    """One full-conditional pass over all points, in random order: one
    uniform per point, all n drawn after the permutation (the same stream
    as n scalar draws), picks its placement by :func:`_pick`.  Each site
    passes :meth:`ChainState.remove` the next ``state.window`` points of
    the order."""
    rng = state.rng
    order = rng.permutation(state.n).tolist()
    uniforms = rng.random(state.n).tolist()
    ahead = state.window
    for pos, i in enumerate(order):
        probs = state.remove(i, order[pos + 1:pos + 1 + ahead])
        state.place(i, _pick(probs, uniforms[pos]))
    return state


def split_merge_move(state: ChainState) -> tuple[ChainState, str, bool]:
    """One split-merge Metropolis-Hastings proposal: the pair, uniform over
    the n (n - 1) ordered pairs of distinct points from one integer draw, a
    fair route bit per other member of a block being split, then the
    acceptance uniform.  Returns the state, the move type and whether it
    was accepted.
    """
    n = state.n
    if n < 2:
        raise ValueError("split-merge needs at least 2 points")
    rng = state.rng
    i, j = divmod(int(rng.integers(n * (n - 1))), n - 1)
    j += j >= i
    free = state.route_length(i, j)
    route = rng.random(free) < 0.5 if free else ()
    move, log_acc, change = state.propose(i, j, route)
    accepted = math.log(rng.random() or 5e-324) < log_acc
    if accepted:
        state.commit(change)
    return state, move, accepted


@dataclass
class ChainSummary:
    """Post-burnin record of a chain.  Every frequency it reports is a count
    over ``n_samples``, so a class seen in every retained sample reads 1.0."""

    n: int
    n_samples: int
    class_counts: dict[tuple[int, ...], int]
    k_counts: dict[int, int]
    cocluster_counts: np.ndarray
    samples: list[tuple[int, ...]]
    accept_counts: dict[str, tuple[int, int]]
    # block log-dets priced on lazy misses: BlockWeights.counters
    pricing: dict[str, int]
    # Gibbs conditionals read from ChainState.memo ("hits") and computed
    memo: dict[str, int]

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
        return {labels: c / self.n_samples for labels, c in self.class_counts.items()}


@dataclass(frozen=True)
class McmcSettings:
    """A chain's length, burn-in and thinning."""

    iters: int = 50_000
    burnin: int = 5_000
    thin: int = 1

    def __post_init__(self):
        if not (self.iters > self.burnin >= 0) or self.thin < 1:
            raise ValueError("need iters > burnin >= 0 and thin >= 1")


def run_chain(data: Dataset, cfg: BsfConfig, settings: McmcSettings, seed: int) -> ChainSummary:
    """Run one chain of ``settings`` from the all-singletons state; deterministic
    per seed.  K and co-clustering counts come from the tally of retained classes."""
    weights = BlockWeights(data, cfg)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    state = ChainState(weights, range(data.n), rng)
    n = data.n
    samples: list[tuple[int, ...]] = []
    tally: dict[tuple[int, ...], int] = {}
    accept = {"split": [0, 0], "merge": [0, 0]}
    for it in range(settings.iters):
        gibbs_sweep(state)
        if n >= 2:
            _, move, ok = split_merge_move(state)
            accept[move][1] += 1
            accept[move][0] += int(ok)
        if it >= settings.burnin and (it - settings.burnin) % settings.thin == 0:
            labels = state.rgs()
            samples.append(labels)
            tally[labels] = tally.get(labels, 0) + 1
        if (it + 1) % CACHE_AUDIT_PERIOD == 0:
            state.audit_cache()
    k_counts: dict[int, int] = {}
    cocluster = np.zeros((n, n), dtype=np.int64)
    for labels, count in tally.items():
        k = max(labels) + 1
        k_counts[k] = k_counts.get(k, 0) + count
        z = np.asarray(labels)
        cocluster += count * (z[:, None] == z[None, :])
    return ChainSummary(
        n=n,
        n_samples=len(samples),
        class_counts=tally,
        k_counts=k_counts,
        cocluster_counts=cocluster,
        samples=samples,
        accept_counts={move: (acc, prop) for move, (acc, prop) in accept.items()},
        pricing=dict(weights.counters),
        memo={"hits": state.memo_hits, "misses": state.memo_misses},
    )


# ---------------------------------------------------------------------------
# Exhaustive kernels for small n: the exact transition law of the moves
# above, built by driving the same ChainState methods from every class and
# through every choice and route, to check stationarity against the
# enumerated posterior.


def _class_index(n: int):
    classes = [tuple(row) for chunk in rgs_chunks(n) for row in chunk.tolist()]
    return classes, {labels: i for i, labels in enumerate(classes)}


def single_site_matrix(weights: BlockWeights, point: int) -> np.ndarray:
    """Exact transition matrix of the Gibbs update at one point."""
    classes, index = _class_index(weights.n)
    mat = np.zeros((len(classes), len(classes)))
    for row, labels in enumerate(classes):
        probs = ChainState(weights, labels).remove(point)
        for choice, prob in enumerate(probs):
            state = ChainState(weights, labels)
            state.remove(point)
            state.place(point, choice)
            mat[row, index[state.rgs()]] += prob
    return mat


def gibbs_sweep_matrix(weights: BlockWeights) -> np.ndarray:
    """Sweep kernel averaged over all point orders (exact, tiny n only)."""
    site = [single_site_matrix(weights, i) for i in range(weights.n)]
    orders = list(permutations(range(weights.n)))
    return sum(reduce(np.matmul, [site[i] for i in order]) for order in orders) / len(orders)


def split_merge_matrix(weights: BlockWeights) -> np.ndarray:
    """Exact split-merge kernel: sum over pairs, routes, and accept/reject."""
    n = weights.n
    classes, index = _class_index(n)
    mat = np.zeros((len(classes), len(classes)))
    pair_prob = 1.0 / (n * (n - 1))
    for row, labels in enumerate(classes):
        for i, j in permutations(range(n), 2):
            free = ChainState(weights, labels).route_length(i, j)
            prob = pair_prob * 0.5 ** free
            for pattern in range(1 << free):
                state = ChainState(weights, labels)
                route = [pattern >> pos & 1 for pos in range(free)]
                move, log_acc, change = state.propose(i, j, route)
                acc = math.exp(min(0.0, log_acc))
                state.commit(change)
                mat[row, index[state.rgs()]] += prob * acc
                mat[row, row] += prob * (1.0 - acc)
    return mat


def combined_transition_matrix(weights: BlockWeights) -> np.ndarray:
    """One full iteration: Gibbs sweep followed by one split-merge move."""
    return gibbs_sweep_matrix(weights) @ split_merge_matrix(weights)
