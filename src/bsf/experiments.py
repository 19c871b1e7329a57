"""Seeded experiment harnesses: consistency trends and misclassification
decay, with replicate-level parallelism and deterministic reduction.

Every replicate is an independent task whose RNG stream is derived from
the master seed with ``SeedSequence(master, spawn_key=...)``.  The calling
process draws every replicate's data from its stream, in task order, before
any task runs, so an exact-mode pool process never starts a random
generator or factors a covariance, and stays smaller; an mcmc-mode task
seeds its chain from the same stream itself.  With ``workers`` N > 1, a
pool of N - 1 processes and the calling process share the tasks: each takes
the next task not yet taken from the back of the list (the largest n
first), so a run uses at most N processes in all and N = 1 starts no pool.
Results are reduced in task order whoever ran them, so outputs are
identical for any worker count, and a failing run raises the error of the
first failing task in task order.
Aggregates use medians and quartiles, which are robust to the occasional
replicate that lands outside the separation set.  A harness checks its whole
design before any replicate: ConfigError for a design no replicate could
run, CapError for an n past the enumeration cap.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import IngestionError
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
from .partitions import Partition, hamming_distance
from .posterior import (DEFAULT_ENUM_CAP, BlockWeights, BsfConfig, ConfigError, check_cap,
                        exact_posterior, expected_hamming)
from .sampler import McmcSettings, run_chain


@contextmanager
def config_check(what: str):
    """Turn the ValueError or TypeError a check raises into a ConfigError;
    an IngestionError keeps its own exit code."""
    try:
        yield
    except IngestionError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class FixedSchedule:
    """Constant bandwidth with either a constant prior product or a
    geometric one, ``delta * lambda = base^(-n)``."""

    sigma2: float
    log_delta_lambda: float | None = None
    geometric_base: float | None = None

    def __post_init__(self):
        if not 0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")
        if (self.log_delta_lambda is None) == (self.geometric_base is None):
            raise ValueError("give exactly one of log_delta_lambda or geometric_base")
        if self.log_delta_lambda is not None and not math.isfinite(self.log_delta_lambda):
            raise ValueError("log_delta_lambda must be finite")
        if self.geometric_base is not None and not 0 < self.geometric_base < math.inf:
            raise ValueError("geometric base must be positive and finite")

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

    def __post_init__(self):
        if not (0 < self.alpha < 1 and 0 < self.iota < math.inf):
            raise ValueError("alpha must lie in (0, 1), and iota must be positive and finite")

    def resolve(self, spec: GaussianOracleSpec, n: int) -> tuple[float, float]:
        return corollary_schedule(spec, n, self.alpha, self.iota)


@dataclass(frozen=True)
class BandwidthRule:
    """Known-cluster-count bandwidth: a fraction of the smaller of the
    separation budget ``D^2 / (n log(K+1))`` and the largest covariance
    eigenvalue."""

    fraction: float = 0.2

    def __post_init__(self):
        if not 0 < self.fraction < math.inf:
            raise ValueError("fraction must be positive and finite")

    def resolve(self, spec: GaussianOracleSpec, n: int) -> float:
        separation = spec.min_mean_separation
        if separation == 0:
            raise ValueError("cluster means must be distinct")
        budget = separation**2 / (n * math.log(spec.k_true + 1))
        return self.fraction * min(budget, spec.max_cov_eigenvalue)


def _run_here(fn, task) -> Future:
    """``fn(task)`` run in this process, as a finished future."""
    done = Future()
    try:
        done.set_result(fn(task))
    except Exception as exc:
        done.set_exception(exc)
    return done


def _run_parallel(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]`` in ``min(workers, len(tasks))``
    processes, this one included.

    The pool of the other processes and this one both take tasks from the
    back of the list, where the consistency harness puts its largest n, so
    the cheapest tasks start last and the processes finish close together.
    This process runs each task whose ``cancel()`` succeeds, that is, each
    task the pool has not taken.  Results are read in task order, so the
    first failing task in task order raises, as in a serial run.
    """
    spawned = min(workers, len(tasks)) - 1
    if spawned < 1:
        return [fn(task) for task in tasks]
    last_first = range(len(tasks) - 1, -1, -1)
    with ProcessPoolExecutor(max_workers=spawned) as pool:
        futures = {i: pool.submit(fn, tasks[i]) for i in last_first}
        for i in last_first:
            if futures[i].cancel():
                futures[i] = _run_here(fn, tasks[i])
        return [futures[i].result() for i in range(len(tasks))]


def _replicate_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=tuple(key))


CONSISTENCY_COLUMNS = (
    "n", "replicate", "sigma2", "log_delta_lambda", "in_separation_set",
    "cross_min_sq_threshold", "within_max_sq_threshold", "min_cross_sq",
    "max_within_sq", "log_kernel_ratio", "prob_truth", "prob_k_true",
    "map_hamming",
)


def _check_runs(grid: list, name: str, replicates: int, enum_cap: int) -> None:
    if not grid or replicates < 1:
        raise ConfigError(f"need a non-empty {name} and at least one replicate")
    if enum_cap < 1:
        raise ConfigError("enum_cap must be positive")


def _consistency_task(args) -> dict:
    (spec, schedule, phi, n, rep, master_seed, mode, enum_cap, mcmc, data, truth) = args
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
    else:
        seed = _replicate_seed(master_seed, n, rep)
        summary = run_chain(data, cfg, mcmc, seed=int(seed.generate_state(1)[0]))
        freqs = summary.class_frequencies()
        prob_truth = freqs.get(truth.labels, 0.0)
        prob_k = summary.k_histogram.get(truth.K, 0.0)
        map_labels = max(sorted(freqs), key=lambda lab: freqs[lab])
        map_part = Partition(map_labels)
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
    _check_runs(n_grid, "n_grid", replicates, enum_cap)
    if mode not in ("exact", "mcmc"):
        raise ConfigError(f"unknown mode {mode!r}")
    for n in n_grid:
        with config_check(f"n_grid entry {n}"):
            spec.check_size(n)
            schedule.resolve(spec, n)
    if mode == "exact":
        check_cap(max(n_grid), enum_cap, enumerates=False)
    tasks = [(spec, schedule, phi, n, rep, master_seed, mode, enum_cap, mcmc,
              *generate_gaussian(spec, n, _replicate_seed(master_seed, n, rep)))
             for n in n_grid for rep in range(replicates)]
    rows = _run_parallel(_consistency_task, tasks, workers)
    return rows, [_consistency_aggregate([row for row in rows if row["n"] == n], n)
                  for n in n_grid]


def _quartiles(rows: list[dict], name: str) -> dict:
    q1, med, q3 = np.percentile(np.array([row[name] for row in rows], dtype=float),
                                [25.0, 50.0, 75.0])
    return {f"{name}_q1": q1, f"{name}_median": med, f"{name}_q3": q3}


def _consistency_aggregate(rows: list[dict], n: int) -> dict:
    return {
        "n": n,
        "replicates": len(rows),
        **_quartiles(rows, "prob_truth"),
        **_quartiles(rows, "prob_k_true"),
        "membership_rate": float(np.mean([row["in_separation_set"] for row in rows])),
        "map_hamming_median": float(np.median([row["map_hamming"] for row in rows])),
    }


MISCLASS_COLUMNS = (
    "snr", "replicate", "sigma2", "expected_hamming", "map_hamming",
    "log_kernel_ratio", "log_bound", "bound_below_n", "estimate_within_bound",
)


def _misclass_task(args) -> dict:
    (spec, spec_snr, snr, rule, n, rep, enum_cap, data, truth) = args
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
    _check_runs(snr_grid, "snr_grid", replicates, enum_cap)
    # the rule needs two distinct cluster means before any snr can scale them
    with config_check("oracle"):
        spec.check_size(n)
        rule.resolve(spec, n)
        if n < spec.k_true:  # the known-K posterior needs a point per cluster
            raise ValueError(f"n = {n} is below the {spec.k_true} clusters")
    spec_snrs = []
    for snr in snr_grid:
        with config_check(f"snr_grid entry {snr}"):
            spec_snrs.append(scale_means_to_snr(spec, snr))
    check_cap(n, enum_cap, enumerates=True)
    # replicate seeds are shared across the snr grid
    tasks = [(spec, spec_snr, snr, rule, n, rep, enum_cap,
              *generate_gaussian(spec_snr, n, _replicate_seed(master_seed, rep)))
             for snr, spec_snr in zip(snr_grid, spec_snrs) for rep in range(replicates)]
    rows = _run_parallel(_misclass_task, tasks, workers)
    return rows, [_misclass_aggregate([row for row in rows if row["snr"] == snr], snr)
                  for snr in snr_grid]


def _misclass_aggregate(rows: list[dict], snr: float) -> dict:
    applicable = [row["estimate_within_bound"] for row in rows if row["bound_below_n"]]
    return {
        "snr": snr,
        "replicates": len(rows),
        **_quartiles(rows, "expected_hamming"),
        "map_hamming_median": float(np.median([row["map_hamming"] for row in rows])),
        "bound_below_n_rate": len(applicable) / len(rows),
        # a bound that does not apply counts as satisfied, as in each row
        "within_bound_rate": float(np.mean(applicable)) if applicable else 1.0,
    }
