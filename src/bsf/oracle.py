"""Ground-truth data generators, separation thresholds, and bound formulas.

The oracle is the unknown mechanism behind the data: fixed true labels plus
a component distribution per cluster.  Generators here produce (dataset,
true partition) pairs deterministically from a seed; Gaussian generation
draws standard noise first and adds means afterwards, so replicates with
the same seed share noise across different mean configurations (paired
comparisons across a separation grid).

Separation diagnostics follow the squared-distance form of the "nice set":
cross-cluster squared distances must clear a floor and within-cluster
squared distances must stay under a ceiling, with the floor and ceiling
computed exactly from the bandwidth, the prior/root product, the kernel
normalizer, and four positive constants.  The schedules that choose the
bandwidth and prior product per n live with the harness, in ``experiments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EUCLIDEAN, SPD, Dataset
from .kernels import KernelSpec, pairwise_sq_distances
from .linalg import logsumexp, sum_in_order
from .partitions import Partition, canonicalize


@dataclass(frozen=True)
class SeparationConstants:
    """The four positive constants (c1, c2, iota1, iota2) parameterizing the
    separation set; defaults follow the (1, 1, 1, iota/2) convention with
    iota = 1.  None of them is pinned by theory beyond positivity."""

    c1: float = 1.0
    c2: float = 1.0
    iota1: float = 1.0
    iota2: float = 0.5

    def __post_init__(self):
        if not all(0 < c < math.inf for c in (self.c1, self.c2, self.iota1, self.iota2)):
            raise ValueError("separation constants must be positive and finite")


DEFAULT_PHI = SeparationConstants()


class _Sizing:
    """Cluster sizing of an oracle spec.  At most one of ``weights``
    (categorical label draw) or ``counts`` (fixed per-cluster sizes) drives
    label generation; with neither, clusters are split as evenly as
    possible.  Only the Gaussian oracle has weights."""

    weights = None

    @property
    def k_true(self) -> int:
        return len(self.means)

    @property
    def dim(self) -> int:
        return self.means[0].shape[0]

    def _check_sizing(self) -> None:
        k = self.k_true
        if self.weights is not None and self.counts is not None:
            raise ValueError("give weights or counts, not both")
        if self.counts is not None and (len(self.counts) != k or min(self.counts) < 0):
            raise ValueError("counts need one nonnegative entry per cluster")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if (w.shape != (k,) or not np.isfinite(w).all() or w.min() < 0
                    or not 0 < sum_in_order(w.tolist()) < math.inf):
                raise ValueError("label weights need one finite nonnegative weight per "
                                 "cluster and a positive finite sum")

    def check_size(self, n: int) -> None:
        """Raise ValueError unless the spec's generator can draw n points."""
        most = np.iinfo(np.intp).max  # the generators size numpy arrays by n
        if not 1 <= n <= most:
            raise ValueError(f"n must be positive and at most {most}")
        if self.counts is not None:
            if sum(self.counts) != n:
                raise ValueError("counts must sum to n")
        elif self.weights is None and n < self.k_true:
            raise ValueError("n smaller than the number of clusters")


@dataclass(frozen=True)
class GaussianOracleSpec(_Sizing):
    """True mixture of Gaussians: means, covariances, and cluster sizing."""

    means: tuple
    covs: tuple
    weights: tuple | None = None
    counts: tuple | None = None

    def __post_init__(self):
        means = tuple(np.atleast_1d(np.asarray(m, dtype=float)) for m in self.means)
        covs = tuple(np.atleast_2d(np.asarray(c, dtype=float)) for c in self.covs)
        if len(means) != len(covs) or not means:
            raise ValueError("need one covariance per mean")
        p = means[0].shape[0]
        for m, c in zip(means, covs):
            if m.shape != (p,) or c.shape != (p, p):
                raise ValueError("inconsistent mean/covariance shapes")
            if np.linalg.eigvalsh(c).min() <= 0:
                raise ValueError("covariances must be positive definite")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        self._check_sizing()

    @property
    def max_cov_eigenvalue(self) -> float:
        return max(float(np.linalg.eigvalsh(c).max()) for c in self.covs)

    @property
    def min_mean_separation(self) -> float:
        k = self.k_true
        if k < 2:
            raise ValueError("mean separation needs at least 2 clusters")
        return min(
            float(np.linalg.norm(self.means[a] - self.means[b]))
            for a in range(k)
            for b in range(a + 1, k)
        )

    @property
    def snr(self) -> float:
        return self.min_mean_separation / math.sqrt(self.max_cov_eigenvalue)


def scale_means_to_snr(spec: GaussianOracleSpec, snr: float) -> GaussianOracleSpec:
    """Rescale mean offsets about their centroid so the spec's signal-to-noise
    ratio becomes ``snr``; covariances and sizing are untouched."""
    if not 0 <= snr < math.inf:
        raise ValueError("snr must be finite and nonnegative")
    center = np.mean(np.stack(spec.means), axis=0)
    factor = 0.0 if snr == 0 else snr / spec.snr
    # two scaled means lie at most twice the widest offset apart, and the
    # kernel squares the distances between points
    widest = max(float(np.dot(m - center, m - center)) for m in spec.means)
    if not 4.0 * factor * factor * widest < math.inf:
        raise ValueError(f"snr {snr} puts the cluster means too far apart to square "
                         "their distance")
    means = tuple(center + factor * (m - center) for m in spec.means)
    return GaussianOracleSpec(means=means, covs=spec.covs,
                              weights=spec.weights, counts=spec.counts)


def _labels_for(spec: _Sizing, n: int, rng) -> np.ndarray:
    """True labels of n points; ``spec.check_size(n)`` has passed."""
    k = spec.k_true
    if spec.counts is not None:
        return np.repeat(np.arange(k), spec.counts)
    if spec.weights is not None:
        w = np.asarray(spec.weights, dtype=float)
        return rng.choice(k, size=n, p=w / w.sum())
    base, extra = divmod(n, k)
    return np.repeat(np.arange(k), [base + (1 if i < extra else 0) for i in range(k)])


def generate_gaussian(spec: GaussianOracleSpec, n: int, seed) -> tuple[Dataset, Partition]:
    """Draw n points from the Gaussian oracle; returns data and true labels.

    Label order is deterministic for count-based sizing.  Noise is drawn as
    standard normals and colored per cluster, before means are added.
    """
    spec.check_size(n)
    rng = np.random.default_rng(seed)
    labels = _labels_for(spec, n, rng)
    noise = rng.standard_normal((n, spec.dim))
    chols = [np.linalg.cholesky(c) for c in spec.covs]
    pts = np.empty((n, spec.dim))
    for k in range(spec.k_true):
        sel = labels == k
        pts[sel] = spec.means[k] + noise[sel] @ chols[k].T
    data = Dataset(EUCLIDEAN, tuple(pts))
    return data, canonicalize(labels.tolist())


@dataclass(frozen=True)
class ObjectOracleSpec(_Sizing):
    """Object-valued oracle on the SPD manifold: one Frechet mean per
    cluster and symmetric Gaussian noise in the tangent space."""

    means: tuple
    noise_scales: tuple
    counts: tuple | None = None

    def __post_init__(self):
        means = tuple(np.atleast_2d(np.asarray(m, dtype=float)) for m in self.means)
        if not means or len(self.noise_scales) != len(means):
            raise ValueError("need one noise scale per mean")
        shapes = {m.shape for m in means}
        if len(shapes) != 1:
            raise ValueError(f"means disagree on shape: {sorted(shapes)}")
        for m in means:
            if m.shape[0] != m.shape[1] or np.linalg.eigvalsh(m).min() <= 0:
                raise ValueError("means must be SPD")
        scales = tuple(float(s) for s in self.noise_scales)
        if not all(0 <= s < math.inf for s in scales):
            raise ValueError("noise scales must be nonnegative and finite")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "noise_scales", scales)
        self._check_sizing()


def _expm_sym(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    return (u * np.exp(w)) @ u.T


def _logm_spd(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    return (u * np.log(np.maximum(w, 1e-300))) @ u.T


def generate_spd(spec: ObjectOracleSpec, n: int, seed) -> tuple[Dataset, Partition]:
    """Sample SPD points: exponentiate symmetric Gaussian tangent noise at
    each cluster's mean.  Zero noise reproduces the means exactly."""
    spec.check_size(n)
    rng = np.random.default_rng(seed)
    labels = _labels_for(spec, n, rng)
    m = spec.dim
    sqrts = []
    for mean in spec.means:
        w, u = np.linalg.eigh(mean)
        sqrts.append((u * np.sqrt(w)) @ u.T)
    pts = []
    for lab in labels:
        raw = rng.standard_normal((m, m)) * spec.noise_scales[lab]
        sym = 0.5 * (raw + raw.T)
        root = sqrts[lab]
        pts.append(root @ _expm_sym(sym) @ root)
    data = Dataset(SPD, tuple(pts))
    return data, canonicalize(labels.tolist())


def frechet_mean_spd(points, iters: int = 50, tol: float = 1e-12) -> np.ndarray:
    """Karcher-flow mean of SPD matrices (fixed-point gradient descent)."""
    mats = [np.asarray(p, dtype=float) for p in points]
    mean = mats[0].copy()
    for _ in range(iters):
        w, u = np.linalg.eigh(mean)
        root = (u * np.sqrt(w)) @ u.T
        inv_root = (u / np.sqrt(w)) @ u.T
        tangent = np.zeros_like(mean)
        for mat in mats:
            tangent += _logm_spd(inv_root @ mat @ inv_root)
        tangent /= len(mats)
        mean = root @ _expm_sym(tangent) @ root
        if np.abs(tangent).max() < tol:
            break
    return mean


@dataclass(frozen=True)
class SeparationThresholds:
    """Squared-distance floor/ceiling for the separation check.

    ``cross_min_sq`` is -inf when there is a single true cluster: no cross
    pairs exist, so no floor applies, and unlike nan, -inf compares equal
    across identical runs.  A non-positive ``within_max_sq`` marks the
    configuration as infeasible at this n; it is reported, not rejected,
    because the underlying conditions are asymptotic.
    """

    cross_min_sq: float
    within_max_sq: float


def compute_thresholds(sigma2: float, k_true: int, phi: SeparationConstants,
                       log_delta_lambda: float, log_zeta: float, n: int) -> SeparationThresholds:
    """Exact evaluation of the squared-distance floor and ceiling.

    floor   = 2 sigma^2 [ n log(K-1+iota1) - log(delta lambda) + log zeta - log c1 ]
    ceiling = 2 sigma^2 [ -n log(K+1+iota2) - log(delta lambda) + log zeta + log c2 ]
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if k_true < 1:
        raise ValueError("need at least one cluster")
    common = -log_delta_lambda + log_zeta
    cross = -math.inf if k_true == 1 else 2.0 * sigma2 * (
        n * math.log(k_true - 1 + phi.iota1) + common - math.log(phi.c1)
    )
    within = 2.0 * sigma2 * (
        -n * math.log(k_true + 1 + phi.iota2) + common + math.log(phi.c2)
    )
    return SeparationThresholds(cross_min_sq=cross, within_max_sq=within)


@dataclass(frozen=True)
class SeparationStats:
    """Extreme pairwise quantities under the true clustering.

    Kernel extremes are carried in the log domain.  Empty pair sets take
    the neutral extremes (+inf cross distance, -inf within distance), so
    the membership conditions they feed are vacuously true and the kernel
    extremes computed from them read -inf and +inf.
    """

    log_max_cross_kernel: float
    log_min_within_kernel: float
    min_cross_sq: float
    max_within_sq: float

    @property
    def log_kernel_ratio(self) -> float:
        """log of (largest cross kernel / smallest within kernel)."""
        return self.log_max_cross_kernel - self.log_min_within_kernel


def separation_stats(data: Dataset, truth: Partition, kernel: KernelSpec) -> SeparationStats:
    if truth.n != data.n:
        raise ValueError("partition does not match the dataset")
    d2 = pairwise_sq_distances(data, kernel)
    labels = np.asarray(truth.labels)
    same = labels[:, None] == labels[None, :]
    iu = np.triu_indices(data.n, 1)
    within = d2[iu][same[iu]]
    cross = d2[iu][~same[iu]]
    log_zeta = kernel.log_zeta(data.dim)
    two_s2 = 2.0 * kernel.sigma**2
    min_cross = float(cross.min()) if cross.size else float("inf")
    max_within = float(within.max()) if within.size else -math.inf
    return SeparationStats(
        log_max_cross_kernel=log_zeta - min_cross / two_s2,
        log_min_within_kernel=log_zeta - max_within / two_s2,
        min_cross_sq=min_cross,
        max_within_sq=max_within,
    )


def check_D_membership(data: Dataset, truth: Partition, kernel: KernelSpec,
                       thresholds: SeparationThresholds) -> tuple[bool, SeparationStats]:
    """Boundary-inclusive membership in the separation set, plus the stats."""
    stats = separation_stats(data, truth, kernel)
    member = (stats.min_cross_sq >= thresholds.cross_min_sq
              and stats.max_within_sq <= thresholds.within_max_sq)
    return member, stats


def misclassification_log_bound(stats: SeparationStats, k_true: int, n: int) -> float:
    """Log of the conditional misclassification-count bound:
    log(kernel ratio) + n log(K + 1)."""
    return stats.log_kernel_ratio + n * math.log(k_true + 1)


def chi_square_tail_log_bound(a: float, p: float) -> float:
    """Log upper bound on P(X > a) for X ~ chi^2_p, valid for a > p:
    -(p/2) [a/p - 1 - log(a/p)]."""
    if not (p > 0 and a > p):
        raise ValueError("bound requires a > p > 0")
    ratio = a / p
    return -(p / 2.0) * (ratio - 1.0 - math.log(ratio))


def posterior_concentration_log_bound(stats: SeparationStats, k_true: int, n: int,
                                      log_delta_lambda: float) -> float:
    """Log surrogate bound on posterior odds against the true partition.

    Sums worst-case contributions from under-partitioned, miscounted, and
    over-partitioned alternatives, each priced by the extreme kernel ratios:
    at most ``K^n`` labeled partitions per block count K, each worth at most

    * ``(n eps / (delta lambda))^(K0-K)``   for K < K0,
    * ``n eps / gamma``                     for K = K0 (wrong partition),
    * ``(delta lambda / gamma)^(K-K0)``     for K > K0,

    all inflated by ``exp((K0-1) n eps/gamma) / K0!``.  The derivation
    needs ``n eps <= gamma``; +inf is returned otherwise (no finite-n
    guarantee).  Valid whenever the separation statistics come from the
    true clustering; checking the exact posterior odds against this value
    exercises the whole chain of determinant-ratio inequalities at once.
    """
    log_eps = stats.log_max_cross_kernel
    log_gamma = stats.log_min_within_kernel
    log_n_eps_over_gamma = math.log(n) + log_eps - log_gamma
    if log_n_eps_over_gamma > 0:
        return math.inf
    terms = []
    for k in range(1, k_true):
        terms.append(
            n * math.log(k)
            + (k_true - k) * (math.log(n) + log_eps - log_delta_lambda)
        )
    terms.append(n * math.log(k_true) + log_n_eps_over_gamma)
    for k in range(k_true + 1, n + 1):
        terms.append(n * math.log(k) + (k - k_true) * (log_delta_lambda - log_gamma))
    total = logsumexp(np.array(terms))
    inflation = (k_true - 1) * math.exp(log_n_eps_over_gamma)
    return total + inflation - math.lgamma(k_true + 1)
