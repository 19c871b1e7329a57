"""Numerical verification of the determinant identities and inequalities
that make the spanning-forest posterior tractable and analyzable.

Each check draws seeded random instances whose preconditions hold by
construction, evaluates both sides independently (eigendecompositions,
plain determinants, brute-force tree enumeration), and reports the worst
signed violation.  All six run one trial protocol, :func:`_check`: trial
``t`` draws its instance from ``SeedSequence(seed, spawn_key=(t,))``, so a
report's ``worst_seed`` replays the first worst trial on its own.
Inequalities are asserted in the log domain with an additive tolerance,
which sidesteps catastrophic cancellation when an instance sits near
equality.

The reference legs that check the block log-det kernel of :mod:`bsf.linalg`
live here, and the kernel's tests use them too: dense Cholesky determinants,
the eigen-shift prediction, Prufer enumeration of all labeled spanning trees
(up to ``BRUTE_FORCE_CAP`` nodes) and the block-coarsened Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import logsumexp, subset_log_det, sum_in_order
from .partitions import canonicalize

LOG_TOL = 1e-9
EIGEN_TOL = 1e-8
DET_TOL = 1e-8
DEFAULT_TRIALS = 1000
# largest n whose concatenated forests are enumerated outright
IDENTITY_CAP = 6
BRUTE_FORCE_CAP = 9  # n^(n-2) labeled trees; 9 -> 4.8e6


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


@cache
def all_spanning_tree_edges(n: int) -> np.ndarray:
    """Edge lists of all n^(n-2) labeled spanning trees on [n], 2 <= n <=
    ``BRUTE_FORCE_CAP``; data independent, so kept for the process's life.

    Decodes every Prufer sequence at once with vectorized bookkeeping.
    Returns an int array of shape ``(n^(n-2), n-1, 2)``.
    """
    if n < 2:
        raise ValueError("spanning trees need at least 2 nodes")
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute-force enumeration capped at n <= {BRUTE_FORCE_CAP}")
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
    return logsumexp(spanning_tree_log_weights(logw))


def coarsened_laplacian(logw: np.ndarray, partition) -> WeightedLaplacian:
    """Laplacian on the K blocks with aggregated cross weights.

    Edge weight between blocks s and t is the sum of all kernel values
    over cross pairs, accumulated in the log domain.
    """
    logw = np.asarray(logw, dtype=float)
    blocks = partition.blocks()
    k = len(blocks)
    log_tau = np.zeros((k, k))
    for s in range(k):
        for t in range(s + 1, k):
            log_tau[s, t] = logsumexp(logw[np.ix_(blocks[s], blocks[t])].ravel())
            log_tau[t, s] = log_tau[s, t]
    return laplacian_from_log_weights(log_tau)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verification suite over seeded random instances."""

    lemma_id: str
    trials: int
    max_violation: float
    tolerance: float
    worst_seed: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.lemma_id:<22} trials={self.trials:<6d} "
            f"max_violation={self.max_violation: .3e}  {status}"
        )


def _check(lemma_id: str, tol: float, violation, trials: int, seed: int) -> LemmaReport:
    """Report the first worst ``violation(rng)`` over ``trials`` trials of
    the module's trial protocol."""
    worst, worst_seed = -math.inf, 0
    for t in range(trials):
        v = violation(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,))))
        if v > worst:
            worst, worst_seed = v, t
    return LemmaReport(lemma_id, trials, worst, tol, worst_seed)


def _symmetric_log_weights(w: np.ndarray) -> np.ndarray:
    """Log weights of the symmetric graph whose edge {i, j}, i < j, weighs
    ``w[i, j]``; the diagonal reads 0."""
    w = np.triu(w, 1)
    logw = np.log(w + w.T + np.eye(len(w)))
    np.fill_diagonal(logw, 0.0)
    return logw


def _random_log_weights(rng, n: int) -> np.ndarray:
    return _symmetric_log_weights(rng.uniform(0.1, 2.0, size=(n, n)))


def _random_partition_labels(rng, n: int, k: int) -> list[int]:
    # every block non-empty: seed one point per block, assign the rest freely
    labels = list(rng.integers(0, k, size=n))
    anchors = rng.permutation(n)[:k]
    for block, point in enumerate(anchors):
        labels[point] = block
    return labels


def verify_eigen_shift(trials: int = DEFAULT_TRIALS, seed: int = 0) -> LemmaReport:
    """Spectrum of ``L + aI + bJ`` equals the shifted spectrum of ``L``
    with the constant-vector eigenvalue replaced by ``nb + a``."""
    def violation(rng):
        n = int(rng.integers(2, 9))
        lap = laplacian_from_log_weights(_random_log_weights(rng, n))
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        predicted = shifted_spectrum(lap, a, b)
        direct = np.linalg.eigvalsh(
            lap.dense() + a * np.eye(n) + b * np.ones((n, n))
        )
        return float(np.abs(np.sort(direct) - predicted).max())

    return _check("eigen-shift", EIGEN_TOL, violation, trials, seed)


def verify_det_identity(trials: int = DEFAULT_TRIALS, seed: int = 0) -> LemmaReport:
    """Three-way identity ``|L + J/n| = prod of nonzero eigenvalues =
    n |L[i]|`` with the minor cross-checked against tree enumeration."""
    def violation(rng):
        n = int(rng.integers(2, 9))
        logw = _random_log_weights(rng, n)
        lap = laplacian_from_log_weights(logw)
        via_chol = log_det_L_plus_J(lap)
        drop = int(rng.integers(0, n))
        via_minor = math.log(n) + log_det_minor(lap, drop)
        via_trees = math.log(n) + spanning_tree_weight_bruteforce(logw)
        ev = np.linalg.eigvalsh(lap.dense())
        via_eigs = float(np.log(ev[1:]).sum())
        return max(
            abs(via_chol - via_minor),
            abs(via_chol - via_trees),
            abs(via_chol - via_eigs),
        )

    return _check("det-identity", LOG_TOL, violation, trials, seed)


def verify_matrix_det_lemma(trials: int = DEFAULT_TRIALS, seed: int = 0) -> LemmaReport:
    """Rank-one update identity ``|M + a b^T| = |M| (1 + b^T M^-1 a)``."""
    def violation(rng):
        n = int(rng.integers(1, 9))
        m = rng.uniform(-1.0, 1.0, size=(n, n)) + n * np.eye(n)
        a = rng.uniform(-1.0, 1.0, size=n)
        b = rng.uniform(-1.0, 1.0, size=n)
        lhs = np.linalg.det(m + np.outer(a, b))
        rhs = np.linalg.det(m) * (1.0 + b @ np.linalg.solve(m, a))
        return float(abs(lhs - rhs) / max(abs(lhs), 1.0))

    return _check("matrix-det", DET_TOL, violation, trials, seed)


def verify_ratio_bound_coarse(trials: int = DEFAULT_TRIALS, seed: int = 0) -> LemmaReport:
    """With every weight at least gamma, the block-determinant product over
    any K-block partition is at most ``(n gamma)^-(K-1)`` times the full
    determinant (log-domain inequality)."""
    def violation(rng):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(4, n) + 1))
        gamma = float(rng.uniform(0.05, 0.5))
        logw = _symmetric_log_weights(gamma + rng.uniform(0.0, 1.5, size=(n, n)))
        part = canonicalize(_random_partition_labels(rng, n, k))
        blocks = sum_in_order(subset_log_det(logw, block) for block in part.blocks())
        lhs = blocks - log_det_L_plus_J(laplacian_from_log_weights(logw))
        rhs = -(part.K - 1) * math.log(n * gamma)
        return float(lhs - rhs)

    return _check("ratio-coarse", LOG_TOL, violation, trials, seed)


def verify_ratio_bound_fine(trials: int = DEFAULT_TRIALS, seed: int = 0) -> LemmaReport:
    """With cross weights at most eps and within weights at least eps, the
    full determinant is at most ``(n eps)^(K-1)`` times the block product
    inflated by the per-block eigenvalue factors ``1 + (n - n_i) eps /
    lambda_ij``."""
    def violation(rng):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(4, n) + 1))
        eps = float(rng.uniform(0.05, 0.5))
        spread = float(rng.uniform(0.0, 1.0))
        part = canonicalize(_random_partition_labels(rng, n, k))
        labels = np.asarray(part.labels)
        same = labels[:, None] == labels[None, :]
        within = rng.uniform(eps, 2.0 * eps + spread, size=(n, n))
        cross = rng.uniform(0.01 * eps, eps, size=(n, n))
        logw = _symmetric_log_weights(np.where(same, within, cross))
        blocks = sum_in_order(subset_log_det(logw, block) for block in part.blocks())
        lhs = log_det_L_plus_J(laplacian_from_log_weights(logw)) - blocks
        rhs = (part.K - 1) * math.log(n * eps)
        for block in part.blocks():
            if len(block) < 2:
                continue
            sub = np.exp(logw[np.ix_(block, block)])
            np.fill_diagonal(sub, 0.0)
            lap_block = np.diag(sub.sum(axis=1)) - sub
            ev = np.sort(np.linalg.eigvalsh(lap_block))
            rhs += float(
                np.log1p((n - len(block)) * eps / ev[1:]).sum()
            )
        return float(lhs - rhs)

    return _check("ratio-fine", LOG_TOL, violation, trials, seed)


def verify_forest_factorization(trials: int = DEFAULT_TRIALS, seed: int = 0) -> LemmaReport:
    """``|L_n[1]|`` dominates the product of within-block minors times the
    minor of the coarsened Laplacian; for small n the concatenated-forest
    subfamily is enumerated outright and its weight equals that product
    exactly."""
    def violation(rng):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, min(4, n) + 1))
        logw = _random_log_weights(rng, n)
        part = canonicalize(_random_partition_labels(rng, n, k))
        lap = laplacian_from_log_weights(logw)
        lhs = log_det_minor(lap)
        rhs = _concat_forest_log_weight(logw, part)
        worst = rhs - lhs  # violated when the product exceeds the minor
        if n <= IDENTITY_CAP:
            worst = max(worst, abs(_concat_forest_bruteforce(logw, part) - rhs))
        return float(worst)

    return _check("forest-factorization", LOG_TOL, violation, trials, seed)


def _concat_forest_log_weight(logw: np.ndarray, part) -> float:
    total = sum_in_order(subset_log_det(logw, block) - math.log(len(block))
                         for block in part.blocks())
    coarse = coarsened_laplacian(logw, part)
    if coarse.n >= 2:
        total += log_det_minor(coarse)
    return total


def _concat_forest_bruteforce(logw: np.ndarray, part) -> float:
    """Sum tree weights over spanning trees whose within-block edges form a
    spanning tree of every block (log domain).  Such trees always exist: a
    spanning tree of each block joined by a tree over the blocks."""
    n = logw.shape[0]
    edges = all_spanning_tree_edges(n)
    tree_logs = spanning_tree_log_weights(logw)
    labels = np.asarray(part.labels)
    sizes = np.asarray(part.sizes)
    lab_u = labels[edges[..., 0].astype(np.intp)]
    lab_v = labels[edges[..., 1].astype(np.intp)]
    same = lab_u == lab_v
    within_counts = np.zeros((edges.shape[0], part.K), dtype=np.int64)
    for b in range(part.K):
        within_counts[:, b] = (same & (lab_u == b)).sum(axis=1)
    qualifies = (within_counts == (sizes - 1)[None, :]).all(axis=1)
    return logsumexp(tree_logs[qualifies])


ALL_CHECKS = (
    verify_eigen_shift,
    verify_det_identity,
    verify_matrix_det_lemma,
    verify_ratio_bound_coarse,
    verify_ratio_bound_fine,
    verify_forest_factorization,
)


def run_all(trials: int = DEFAULT_TRIALS, seed: int = 0) -> list[LemmaReport]:
    return [check(trials, seed) for check in ALL_CHECKS]
