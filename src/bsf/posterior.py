"""Integrated partition posterior for spanning-forest clustering.

The unnormalized posterior of a labeled partition with blocks ``V_1..V_K``
is ``(delta * lambda)^K * prod_k |L_{V_k} + J/n_k|``: each block pays the
root/prior factor once and contributes the matrix-tree determinant of its
complete weighted subgraph.  Equivalently, per block,
``lambda * |L_V[1]| * (sum of root densities over the block)``, which is
the form used when a non-flat root kernel is configured.

Canonical partitions stand for whole equivalence classes.  A class of a
K-block partition contains exactly K! labelings with identical posterior
mass, so the class weight is ``K!`` times the labeled weight; that factor
is added analytically here and nowhere else.  Normalization is over
equivalence classes.

Exact normalizers, K-marginals, and MAP partitions are computed with a
set-partition dynamic program over subset bitmasks (O(3^n) terms), which
stays exact far beyond the point where enumerating Bell(n) classes is
practical; full per-class tables are materialized on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, RootKernel, log_weight_matrix
from .linalg import LogDetCache, anchored_subset_pairs
from .partitions import Partition, enumerate_partitions

DEFAULT_ENUM_CAP = 12

NEG_INF = float("-inf")


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
    root: RootKernel | None = None
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        if not math.isfinite(self.log_delta + self.log_lambda):
            raise ValueError("log(delta * lambda) must be finite")
        if self.enum_cap < 1:
            raise ValueError("enum_cap must be positive")
        if self.root is not None:
            # keep the explicit root kernel consistent with log_delta
            if abs(self.root.log_value() - self.log_delta) > 1e-12:
                raise ValueError("root kernel level disagrees with log_delta")

    @staticmethod
    def from_values(kernel: KernelSpec, delta: float = 1.0, lam: float = 1.0,
                    enum_cap: int = DEFAULT_ENUM_CAP) -> "BsfConfig":
        if not (delta > 0 and lam > 0):
            raise ValueError("delta and lambda must be positive")
        return BsfConfig(kernel=kernel, log_delta=math.log(delta),
                         log_lambda=math.log(lam), enum_cap=enum_cap)

    @property
    def log_delta_lambda(self) -> float:
        return self.log_delta + self.log_lambda


class BlockWeights:
    """Per-block unnormalized log weights over subset bitmasks.

    ``block(mask)`` returns ``log lambda + log |L_T + J/|T|| + log(mean
    root density over T)``; for the flat root the mean root density is
    exactly ``delta``.  Shared by the exact machinery and the sampler.
    """

    def __init__(self, data: Dataset, cfg: BsfConfig):
        self.cfg = cfg
        self.n = data.n
        self.logw = log_weight_matrix(data, cfg.kernel)
        if not np.all(np.isfinite(self.logw)):
            raise ValueError("non-finite kernel value in the weight matrix")
        self.dets = LogDetCache(self.logw)
        self._const = cfg.log_lambda + cfg.log_delta

    def precompute(self) -> np.ndarray:
        """Dense table of block weights for every subset mask."""
        return self.dets.precompute_all() + self._const

    def block(self, mask: int) -> float:
        return self.dets.get(mask) + self._const

    def block_fresh(self, mask: int) -> float:
        return self.dets.fresh(mask) + self._const

    def labeled(self, partition: Partition) -> float:
        return sum(self.block(mask) for mask in partition.block_masks())

    def class_weight(self, partition: Partition) -> float:
        return math.lgamma(partition.K + 1) + self.labeled(partition)


def log_labeled_weight(partition: Partition, data: Dataset, cfg: BsfConfig) -> float:
    """Log unnormalized posterior of one labeled partition."""
    if partition.n != data.n:
        raise ValueError(f"partition is over {partition.n} points, data has {data.n}")
    return BlockWeights(data, cfg).labeled(partition)


def log_class_weight(partition: Partition, data: Dataset, cfg: BsfConfig) -> float:
    """Log unnormalized posterior of the whole equivalence class (adds log K!)."""
    return math.lgamma(partition.K + 1) + log_labeled_weight(partition, data, cfg)


def log_posterior_ratio(p1: Partition, p2: Partition, data: Dataset, cfg: BsfConfig) -> float:
    """Log ratio of class posteriors; the normalizer cancels, so this is
    valid at any n."""
    weights = BlockWeights(data, cfg)
    return weights.class_weight(p1) - weights.class_weight(p2)


def _logsumexp(values: np.ndarray) -> float:
    peak = float(values.max()) if values.size else NEG_INF
    if peak == NEG_INF:
        return NEG_INF
    return peak + math.log(float(np.exp(values - peak).sum()))


def _partition_dp(block_table: np.ndarray, n: int, k_max: int,
                  mode: str) -> np.ndarray:
    """Set-partition DP over subset masks.

    Returns ``table[k, S] = log sum (mode "sum") or log max (mode "max")
    over partitions of S into exactly k blocks of the product of block
    weights.  Each unordered partition is visited once by anchoring the
    block that contains ``min(S)``.
    """
    layers = anchored_subset_pairs(n)
    full = 1 << n
    table = np.full((k_max + 1, full), NEG_INF)
    table[0, 0] = 0.0
    if k_max >= 1:
        table[1, 1:] = block_table[1:]
    for k in range(2, k_max + 1):
        prev = table[k - 1]
        cur = table[k]
        for c in range(k, n + 1):
            layer = layers[c]
            if layer is None:
                continue
            starts, s_arr, t_arr, r_arr = layer
            vals = block_table[t_arr] + prev[r_arr]
            if mode == "max":
                cur[s_arr] = np.maximum.reduceat(vals, starts)
            else:
                seg_max = np.maximum.reduceat(vals, starts)
                finite = seg_max > NEG_INF
                if not finite.any():
                    continue
                shifted = np.exp(vals - seg_max.repeat(np.diff(np.append(starts, len(vals)))))
                sums = np.add.reduceat(shifted, starts)
                out = np.full(len(s_arr), NEG_INF)
                out[finite] = seg_max[finite] + np.log(sums[finite])
                cur[s_arr] = out
    return table


def _reconstruct_map(block_table: np.ndarray, max_table: np.ndarray,
                     n: int, k: int) -> Partition:
    """Walk the max-DP back pointers; blocks come out in order of their
    minima, which yields the restricted-growth labeling directly."""
    labels = [0] * n
    s_mask = (1 << n) - 1
    for depth in range(k, 0, -1):
        target = max_table[depth, s_mask]
        anchor = s_mask & -s_mask
        rest = s_mask ^ anchor
        sub = rest
        chosen = None
        while True:
            t_mask = anchor | sub
            if block_table[t_mask] + max_table[depth - 1, s_mask ^ t_mask] == target:
                chosen = t_mask if chosen is None else min(chosen, t_mask)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        label = k - depth
        for i in range(n):
            if chosen >> i & 1:
                labels[i] = label
        s_mask ^= chosen
    return Partition(tuple(labels))


@dataclass
class PosteriorEntry:
    partition: Partition
    log_class_weight: float
    probability: float


@dataclass
class PosteriorTable:
    """Normalized posterior over partition equivalence classes.

    ``entries`` covers every class in the allowed set when retained
    (RGS-lexicographic order) and is None otherwise; normalizer and
    K-marginals are always available from the dynamic program.
    """

    n: int
    log_normalizer: float
    k_log_weights: dict[int, float]
    map_partition: Partition
    map_log_weight: float
    entries: list[PosteriorEntry] | None = None
    max_K: int | None = None
    only_K: int | None = None
    _index: dict[tuple[int, ...], int] | None = field(default=None, repr=False)

    def k_marginals(self) -> dict[int, float]:
        return {k: math.exp(lw - self.log_normalizer) for k, lw in self.k_log_weights.items()}

    def prob_of_k(self, k: int) -> float:
        lw = self.k_log_weights.get(k, NEG_INF)
        return math.exp(lw - self.log_normalizer) if lw > NEG_INF else 0.0

    def probability_of_log_weight(self, log_class_weight: float) -> float:
        return math.exp(log_class_weight - self.log_normalizer)

    def prob_of(self, partition: Partition) -> float:
        if self.entries is None:
            raise ValueError("table was built without retained entries")
        if self._index is None:
            self._index = {e.partition.labels: i for i, e in enumerate(self.entries)}
        idx = self._index.get(partition.labels)
        return self.entries[idx].probability if idx is not None else 0.0


def map_partition(table: PosteriorTable) -> Partition:
    """Highest-probability class; ties break to the lexicographically
    smallest restricted growth string."""
    return table.map_partition


def exact_posterior(data: Dataset, cfg: BsfConfig, max_K: int | None = None,
                    only_K: int | None = None, retain: bool | None = None,
                    weights: BlockWeights | None = None) -> PosteriorTable:
    """Normalize class weights over every equivalence class by enumeration.

    ``max_K`` restricts to classes with at most that many blocks; ``only_K``
    to exactly that many (the known-cluster-count regime).  Entries are
    retained for n <= 10 by default.
    """
    n = data.n
    if n > cfg.enum_cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cfg.enum_cap}")
    if only_K is not None:
        if max_K is not None and max_K < only_K:
            raise ValueError("max_K is below only_K")
        k_cap = min(only_K, n)
        allowed = [k_cap] if only_K <= n else []
    else:
        k_cap = n if max_K is None else min(max_K, n)
        allowed = list(range(1, k_cap + 1))
    if not allowed:
        raise ValueError("no admissible number of blocks")
    if retain is None:
        retain = n <= 10

    if weights is None:
        weights = BlockWeights(data, cfg)
    block_table = weights.precompute()

    sum_table = _partition_dp(block_table, n, k_cap, "sum")
    full = (1 << n) - 1
    k_log_weights = {
        k: math.lgamma(k + 1) + sum_table[k, full]
        for k in allowed
        if sum_table[k, full] > NEG_INF
    }
    log_normalizer = _logsumexp(np.array(list(k_log_weights.values())))

    max_table = _partition_dp(block_table, n, k_cap, "max")
    best_lw = NEG_INF
    best_k = None
    for k in allowed:
        lw = math.lgamma(k + 1) + max_table[k, full]
        if lw > best_lw:
            best_lw = lw
            best_k = k
    map_part = _reconstruct_map(block_table, max_table, n, best_k)
    map_lw = best_lw

    entries = None
    if retain:
        entries = []
        best_seen = NEG_INF
        for part in enumerate_partitions(n, max_K=k_cap):
            if only_K is not None and part.K != only_K:
                continue
            lw = math.lgamma(part.K + 1) + sum(
                block_table[mask] for mask in part.block_masks()
            )
            entries.append(PosteriorEntry(part, lw, math.exp(lw - log_normalizer)))
            # lexicographic tie rule: strict improvement only
            if lw > best_seen:
                best_seen = lw
                map_part = part
                map_lw = lw

    return PosteriorTable(
        n=n,
        log_normalizer=log_normalizer,
        k_log_weights=k_log_weights,
        map_partition=map_part,
        map_log_weight=map_lw,
        entries=entries,
        max_K=max_K,
        only_K=only_K,
    )


def iter_class_weights(data: Dataset, cfg: BsfConfig, max_K: int | None = None,
                       only_K: int | None = None, weights: BlockWeights | None = None):
    """Stream ``(partition, log_class_weight)`` in RGS order without
    retaining anything; pair with a precomputed normalizer for big tables.
    Passing the ``weights`` an ``exact_posterior`` call used reuses its
    block table."""
    if weights is None:
        weights = BlockWeights(data, cfg)
    block_table = weights.precompute()
    k_cap = data.n if max_K is None else min(max_K, data.n)
    if only_K is not None:
        k_cap = min(only_K, data.n)
    for part in enumerate_partitions(data.n, max_K=k_cap):
        if only_K is not None and part.K != only_K:
            continue
        lw = math.lgamma(part.K + 1) + sum(block_table[mask] for mask in part.block_masks())
        yield part, lw


def expected_hamming(table: PosteriorTable, truth: Partition) -> float:
    """Posterior expectation of the Hamming distance to ``truth`` over the
    table's classes (requires retained entries)."""
    from .partitions import hamming_distance

    if table.entries is None:
        raise ValueError("expected_hamming needs retained entries")
    return sum(e.probability * hamming_distance(e.partition, truth) for e in table.entries)
