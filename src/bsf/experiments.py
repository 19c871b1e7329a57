"""Seeded experiment harnesses: consistency trends and misclassification
decay, with replicate-level parallelism and deterministic reduction.

Every replicate is an independent task whose RNG stream is derived from
the master seed with ``SeedSequence(master, spawn_key=...)``; results are
reduced in task order, so outputs are identical for any worker count.
Aggregates use medians and quartiles, which are robust to the occasional
replicate that lands outside the separation set.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import EUCLIDEAN_GAUSSIAN, KernelSpec
from .oracle import (
    DEFAULT_PHI,
    GaussianOracleSpec,
    SeparationConstants,
    check_D_membership,
    compute_thresholds,
    corollary_schedule,
    generate_gaussian,
    misclassification_log_bound,
    scale_means_to_snr,
    separation_stats,
)
from .partitions import ENUM_CAP, Partition, hamming_distance
from .posterior import (DEFAULT_ENUM_CAP, BlockWeights, BsfConfig, exact_posterior,
                        expected_hamming)
from .sampler import McmcSettings, run_chain


@dataclass(frozen=True)
class FixedSchedule:
    """Constant bandwidth with either a constant prior product or a
    geometric one, ``delta * lambda = base^(-n)``."""

    sigma2: float
    log_delta_lambda: float | None = None
    geometric_base: float | None = None

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if (self.log_delta_lambda is None) == (self.geometric_base is None):
            raise ValueError("give exactly one of log_delta_lambda or geometric_base")
        if self.geometric_base is not None and self.geometric_base <= 0:
            raise ValueError("geometric base must be positive")

    def resolve(self, spec: GaussianOracleSpec, n: int) -> tuple[float, float]:
        if self.geometric_base is not None:
            return self.sigma2, -n * math.log(self.geometric_base)
        return self.sigma2, self.log_delta_lambda


@dataclass(frozen=True)
class SnrSchedule:
    """Bandwidth/prior schedule derived from the oracle's signal-to-noise
    ratio (the separated-cluster recipe)."""

    alpha: float = 0.5
    iota: float = 1.0

    def resolve(self, spec: GaussianOracleSpec, n: int) -> tuple[float, float]:
        return corollary_schedule(spec, n, self.alpha, self.iota)


@dataclass(frozen=True)
class BandwidthRule:
    """Known-cluster-count bandwidth: a fraction of the smaller of the
    separation budget ``D^2 / (n log(K+1))`` and the largest covariance
    eigenvalue."""

    fraction: float = 0.2

    def __post_init__(self):
        if self.fraction <= 0:
            raise ValueError("fraction must be positive")

    def resolve(self, spec: GaussianOracleSpec, n: int) -> float:
        separation = spec.min_mean_separation
        if separation == 0:
            raise ValueError("cluster means must be distinct")
        budget = separation**2 / (n * math.log(spec.k_true + 1))
        return self.fraction * min(budget, spec.max_cov_eigenvalue)


def _run_parallel(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _replicate_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=tuple(key))


CONSISTENCY_COLUMNS = (
    "n", "replicate", "sigma2", "log_delta_lambda", "in_separation_set",
    "cross_min_sq_threshold", "within_max_sq_threshold", "min_cross_sq",
    "max_within_sq", "log_kernel_ratio", "prob_truth", "prob_k_true",
    "map_hamming",
)


def _consistency_task(args) -> dict:
    (spec, schedule, phi, n, rep, master_seed, mode, enum_cap, mcmc) = args
    seed = _replicate_seed(master_seed, n, rep)
    data, truth = generate_gaussian(spec, n, seed)
    sigma2, log_dl = schedule.resolve(spec, n)
    kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=math.sqrt(sigma2))
    cfg = BsfConfig(kernel=kernel, log_delta=0.0, log_lambda=log_dl, enum_cap=enum_cap)
    thresholds = compute_thresholds(
        sigma2, spec.k_true, phi, log_dl, kernel.log_zeta(spec.dim), n
    )
    member, stats = check_D_membership(data, truth, kernel, thresholds)
    if mode == "exact":
        weights = BlockWeights(data, cfg)
        table = exact_posterior(data, cfg, retain=False, weights=weights)
        truth_lw = weights.class_weight(truth)
        prob_truth = table.probability_of_log_weight(truth_lw)
        prob_k = table.prob_of_k(spec.k_true)
        map_part = table.map_partition
    elif mode == "mcmc":
        summary = run_chain(data, cfg, mcmc.iters, mcmc.burnin, mcmc.thin,
                            seed=int(seed.generate_state(1)[0]))
        freqs = summary.class_frequencies()
        prob_truth = freqs.get(truth.labels, 0.0)
        prob_k = summary.k_histogram.get(truth.K, 0.0)
        map_labels = max(sorted(freqs), key=lambda lab: freqs[lab])
        map_part = Partition(map_labels)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return {
        "n": n,
        "replicate": rep,
        "sigma2": sigma2,
        "log_delta_lambda": log_dl,
        "in_separation_set": int(member),
        # K = 1 has no cross pairs: -inf is a vacuous floor that, unlike
        # nan, compares equal across identical runs
        "cross_min_sq_threshold": thresholds.cross_min_sq
        if thresholds.cross_min_sq is not None
        else float("-inf"),
        "within_max_sq_threshold": thresholds.within_max_sq,
        "min_cross_sq": stats.min_cross_sq,
        "max_within_sq": stats.max_within_sq,
        "log_kernel_ratio": stats.log_kernel_ratio,
        "prob_truth": prob_truth,
        "prob_k_true": prob_k,
        "map_hamming": hamming_distance(map_part, truth),
    }


def consistency_experiment(spec: GaussianOracleSpec, schedule, n_grid, replicates: int,
                           master_seed: int, mode: str = "exact",
                           phi: SeparationConstants = DEFAULT_PHI,
                           enum_cap: int = DEFAULT_ENUM_CAP, workers: int = 1,
                           mcmc: McmcSettings = McmcSettings()) -> tuple[list[dict], list[dict]]:
    """Per-(n, replicate) posterior diagnostics plus per-n aggregates."""
    n_grid = [int(n) for n in n_grid]
    if not n_grid or replicates < 1:
        raise ValueError("need a non-empty n grid and at least one replicate")
    if mode == "exact" and max(n_grid) > enum_cap:
        raise ValueError("exact mode needs max(n_grid) <= enum_cap")
    tasks = [
        (spec, schedule, phi, n, rep, master_seed, mode, enum_cap, mcmc)
        for n in n_grid
        for rep in range(replicates)
    ]
    rows = _run_parallel(_consistency_task, tasks, workers)
    aggregate = []
    for n in n_grid:
        chunk = [row for row in rows if row["n"] == n]
        aggregate.append(_aggregate(chunk, key_name="n", key_value=n))
    return rows, aggregate


def _aggregate(rows: list[dict], key_name: str, key_value) -> dict:
    def quartiles(name):
        vals = np.array([row[name] for row in rows], dtype=float)
        q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
        return {f"{name}_q1": q1, f"{name}_median": med, f"{name}_q3": q3}

    out = {key_name: key_value, "replicates": len(rows)}
    if "prob_truth" in rows[0]:
        out.update(quartiles("prob_truth"))
        out.update(quartiles("prob_k_true"))
        out["membership_rate"] = float(np.mean([row["in_separation_set"] for row in rows]))
        out["map_hamming_median"] = float(np.median([row["map_hamming"] for row in rows]))
    if "expected_hamming" in rows[0]:
        out.update(quartiles("expected_hamming"))
        out["map_hamming_median"] = float(np.median([row["map_hamming"] for row in rows]))
        applicable = [row for row in rows if row["bound_below_n"]]
        out["bound_below_n_rate"] = len(applicable) / len(rows)
        # a bound that does not apply counts as satisfied, as in each row
        out["within_bound_rate"] = (
            float(np.mean([row["estimate_within_bound"] for row in applicable]))
            if applicable
            else 1.0
        )
    return out


MISCLASS_COLUMNS = (
    "snr", "replicate", "sigma2", "expected_hamming", "map_hamming",
    "log_kernel_ratio", "log_bound", "bound_below_n", "estimate_within_bound",
)


def _misclass_task(args) -> dict:
    (spec, snr, rule, n, rep, master_seed, enum_cap) = args
    seed = _replicate_seed(master_seed, rep)  # shared across the snr grid
    spec_snr = scale_means_to_snr(spec, snr)
    data, truth = generate_gaussian(spec_snr, n, seed)
    sigma2 = rule.resolve(spec_snr, n) if snr > 0 else rule.resolve(spec, n)
    kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=math.sqrt(sigma2))
    # the prior product cancels in the known-K restricted posterior
    cfg = BsfConfig(kernel=kernel, log_delta=0.0, log_lambda=0.0, enum_cap=enum_cap)
    table = exact_posterior(data, cfg, only_K=spec.k_true, retain=True)
    est = expected_hamming(table, truth)
    stats = separation_stats(data, truth, kernel)
    log_bound = misclassification_log_bound(stats, spec.k_true, n)
    bound_below_n = log_bound < math.log(n)
    within = est <= math.exp(log_bound) if bound_below_n else True
    return {
        "snr": snr,
        "replicate": rep,
        "sigma2": sigma2,
        "expected_hamming": est,
        "map_hamming": hamming_distance(table.map_partition, truth),
        "log_kernel_ratio": stats.log_kernel_ratio,
        "log_bound": log_bound,
        "bound_below_n": int(bound_below_n),
        "estimate_within_bound": int(within),
    }


def misclassification_experiment(spec: GaussianOracleSpec, rule: BandwidthRule,
                                 snr_grid, n: int, replicates: int, master_seed: int,
                                 enum_cap: int = DEFAULT_ENUM_CAP,
                                 workers: int = 1) -> tuple[list[dict], list[dict]]:
    """Known-cluster-count misclassification estimates across a separation
    grid, with the analytic bound evaluated per replicate.

    Replicate seeds are shared across the grid, so each replicate sees the
    same noise at every separation level (paired design).
    """
    snr_grid = [float(s) for s in snr_grid]
    if not snr_grid or replicates < 1:
        raise ValueError("need a non-empty snr grid and at least one replicate")
    cap = min(enum_cap, ENUM_CAP)
    if n > cap:
        raise ValueError(f"the restricted posterior is enumerated; need n <= {cap}")
    tasks = [
        (spec, snr, rule, n, rep, master_seed, enum_cap)
        for snr in snr_grid
        for rep in range(replicates)
    ]
    rows = _run_parallel(_misclass_task, tasks, workers)
    aggregate = []
    for snr in snr_grid:
        chunk = [row for row in rows if row["snr"] == snr]
        aggregate.append(_aggregate(chunk, key_name="snr", key_value=snr))
    return rows, aggregate
