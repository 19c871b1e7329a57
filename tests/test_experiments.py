import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from bsf import experiments
from bsf.experiments import (
    BandwidthRule,
    ConfigError,
    FixedSchedule,
    McmcSettings,
    SnrSchedule,
    consistency_experiment,
    misclassification_experiment,
)
from bsf.kernels import EUCLIDEAN_GAUSSIAN, KernelSpec
from bsf.oracle import (
    DEFAULT_PHI,
    GaussianOracleSpec,
    SeparationConstants,
    SeparationStats,
    check_D_membership,
    compute_thresholds,
    generate_gaussian,
    misclassification_log_bound,
    posterior_concentration_log_bound,
    scale_means_to_snr,
    separation_stats,
)
from bsf.posterior import BlockWeights, BsfConfig, CapError, exact_posterior
from bsf.sampler import run_chain

REPO = Path(__file__).resolve().parent.parent

TWO_CLUSTERS = GaussianOracleSpec(
    means=((0.0, 0.0), (8.0, 0.0)), covs=(np.eye(2), np.eye(2))
)


def test_single_task_is_deterministic():
    schedule = SnrSchedule(alpha=0.5, iota=1.0)
    rows1, agg1 = consistency_experiment(TWO_CLUSTERS, schedule, [6], 1, master_seed=7)
    rows2, agg2 = consistency_experiment(TWO_CLUSTERS, schedule, [6], 1, master_seed=7)
    assert rows1 == rows2 and agg1 == agg2
    rows3, _ = consistency_experiment(TWO_CLUSTERS, schedule, [6], 1, master_seed=8)
    assert rows3 != rows1


def test_worker_counts_agree():
    schedule = FixedSchedule(sigma2=1.0, geometric_base=3.0)
    spec = GaussianOracleSpec(means=((0.0,),), covs=(((1.0,),),))
    serial = consistency_experiment(spec, schedule, [5, 6], 5, master_seed=3, workers=1)
    parallel = consistency_experiment(spec, schedule, [5, 6], 5, master_seed=3, workers=4)
    assert serial == parallel


def test_the_caller_draws_every_replicate(monkeypatch, tmp_path):
    log = tmp_path / "draws.jsonl"  # a file, so a draw in a pool process shows too

    def recording(spec, n, seed):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), n, list(seed.spawn_key)]) + "\n")
        return generate_gaussian(spec, n, seed)

    monkeypatch.setattr(experiments, "generate_gaussian", recording)
    me = os.getpid()
    consistency_experiment(TWO_CLUSTERS, SnrSchedule(), [5, 6], 3, master_seed=2, workers=2)
    misclassification_experiment(TWO_CLUSTERS, BandwidthRule(0.2), [1.0, 4.0], 6, 3,
                                 master_seed=2, workers=2)
    draws = [json.loads(line) for line in log.read_text().splitlines()]
    assert draws == ([[me, n, [n, rep]] for n in (5, 6) for rep in range(3)]
                     + [[me, 6, [rep]] for _ in range(2) for rep in range(3)])


def _failure(index):
    return (KeyError if index % 2 else ValueError)(f"task {index} failed")


def _fail_at(args):
    """A task that returns its index, or raises for the indices it lists."""
    index, failing = args
    if index in failing:
        raise _failure(index)
    return index


@pytest.mark.parametrize("failing", [
    {11}, {10, 11}, {0, 11}, {0}, {5, 6},
    # failures in every share, this process's included; tasks 0 and 1 are
    # the last to start, so later tasks fail first in time
    set(range(12)), set(range(1, 12)),
])
def test_first_failing_task_in_task_order_raises(failing):
    tasks = [(index, failing) for index in range(12)]
    expected = _failure(min(failing))
    for workers in (1, 2, 3):
        with pytest.raises(type(expected)) as exc:
            experiments._run_parallel(_fail_at, tasks, workers)
        assert (exc.type, str(exc.value)) == (type(expected), str(expected)), workers
    assert experiments._run_parallel(_fail_at, [(i, set()) for i in range(12)], 2) == list(range(12))


def test_mcmc_mode_tracks_exact_mode():
    schedule = SnrSchedule(alpha=0.5, iota=1.0)
    exact_rows, _ = consistency_experiment(
        TWO_CLUSTERS, schedule, [6], 3, master_seed=11, mode="exact"
    )
    mcmc_rows, _ = consistency_experiment(
        TWO_CLUSTERS, schedule, [6], 3, master_seed=11, mode="mcmc",
        mcmc=McmcSettings(iters=8_000, burnin=1_000, thin=1),
    )
    for er, mr in zip(exact_rows, mcmc_rows):
        assert er["in_separation_set"] == mr["in_separation_set"]
        assert abs(er["prob_truth"] - mr["prob_truth"]) < 0.05
        assert er["map_hamming"] == mr["map_hamming"]


def test_both_modes_read_the_true_k_from_the_truth():
    # the second cluster draws no point, so the truth has one block, not two
    spec = GaussianOracleSpec(means=((0.0,), (8.0,)), covs=(((1.0,),), ((1.0,),)),
                              counts=(4, 0))
    schedule = FixedSchedule(sigma2=1.0, log_delta_lambda=-3.0)
    rows = {mode: consistency_experiment(spec, schedule, [4], 3, master_seed=0, mode=mode,
                                         mcmc=McmcSettings(3_000, 300, 1))[0]
            for mode in ("exact", "mcmc")}
    # the separation set is the one-block truth's: no cross-pair floor
    kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0)
    one_block = compute_thresholds(1.0, 1, DEFAULT_PHI, -3.0, kernel.log_zeta(1), 4)
    for mode, mode_rows in rows.items():
        for row in mode_rows:
            assert row["prob_truth"] <= row["prob_k_true"] + 1e-12, (mode, row)
            assert row["cross_min_sq_threshold"] == -math.inf
            assert row["within_max_sq_threshold"] == one_block.within_max_sq
    cfg = BsfConfig(kernel=kernel, log_lambda=-3.0)
    for rep, row in enumerate(rows["exact"]):
        data, truth = generate_gaussian(spec, 4, experiments._replicate_seed(0, 4, rep))
        assert truth.K == 1
        assert row["prob_k_true"] == exact_posterior(data, cfg).prob_of_k(truth.K)


def test_mcmc_mode_probabilities_are_counts_over_n():
    # the truth's class frequency and K fraction are both counts over the
    # retained samples, so neither can pass 1 or the other
    spec = GaussianOracleSpec(means=((0.0, 0.0), (6.0, 0.0)), covs=(np.eye(2), np.eye(2)))
    rows, _ = consistency_experiment(spec, SnrSchedule(0.5, 1.0), [8, 14], 3, master_seed=2,
                                     mode="mcmc", mcmc=McmcSettings(600, 100, 2), workers=2)
    assert any(row["prob_truth"] > 0 for row in rows)
    for row in rows:
        assert row["prob_truth"] <= row["prob_k_true"] <= 1.0, row


def test_validation_errors():
    schedule = SnrSchedule()
    with pytest.raises(ConfigError):
        consistency_experiment(TWO_CLUSTERS, schedule, [], 5, master_seed=0)
    with pytest.raises(ConfigError):
        consistency_experiment(TWO_CLUSTERS, schedule, [6], 0, master_seed=0)
    with pytest.raises(CapError):
        consistency_experiment(TWO_CLUSTERS, schedule, [13], 1, master_seed=0,
                               enum_cap=12)
    with pytest.raises(CapError):
        misclassification_experiment(TWO_CLUSTERS, BandwidthRule(0.2), [2.0], 13, 1,
                                     master_seed=0)
    # the restricted posterior is enumerated: no cap reaches past the enumeration core's
    with pytest.raises(CapError, match="exceeds the enumeration cap 13"):
        misclassification_experiment(TWO_CLUSTERS, BandwidthRule(0.2), [2.0], 14, 1,
                                     master_seed=0, enum_cap=14)
    with pytest.raises(ValueError):
        FixedSchedule(sigma2=1.0)
    with pytest.raises(ValueError):
        FixedSchedule(sigma2=1.0, log_delta_lambda=0.0, geometric_base=2.0)
    # the snr schedule checks its own constants when built, not at resolve
    for bad in ({"alpha": 1.0}, {"iota": math.inf}):
        with pytest.raises(ValueError, match="alpha must lie in"):
            SnrSchedule(**bad)


COINCIDENT = GaussianOracleSpec(means=((0.0, 0.0), (0.0, 0.0)), covs=(np.eye(2), np.eye(2)))
THREE_MEANS = {"means": ((0.0, 0.0), (8.0, 0.0), (16.0, 0.0)), "covs": (np.eye(2),) * 3}


@pytest.mark.parametrize("harness, design, error", [
    ("consistency", {"n_grid": []}, ConfigError),
    ("consistency", {"replicates": 0}, ConfigError),
    ("consistency", {"mode": "bogus"}, ConfigError),
    ("consistency", {"mode": "mcmc", "enum_cap": 0}, ConfigError),
    ("consistency", {"enum_cap": 0}, ConfigError),
    ("consistency", {"n_grid": [6, 1]}, ConfigError),  # fewer points than clusters
    ("consistency", {"n_grid": [6, 13]}, CapError),
    ("misclass", {"snr_grid": []}, ConfigError),
    ("misclass", {"replicates": 0}, ConfigError),
    ("misclass", {"enum_cap": 0}, ConfigError),
    ("misclass", {"n": 1}, ConfigError),
    ("misclass", {"snr_grid": [2.0, -1.0]}, ConfigError),
    ("misclass", {"snr_grid": [2.0, math.inf]}, ConfigError),
    ("misclass", {"spec": COINCIDENT}, ConfigError),
    ("misclass", {"n": 13}, CapError),
    ("misclass", {"snr_grid": [2.0, 1e308]}, ConfigError),  # means too far apart to square
    ("consistency", {"mode": "mcmc", "n_grid": [6, 10**308]}, ConfigError),
    # fewer points than the known-K posterior's clusters, under either sizing
    ("misclass", {"spec": GaussianOracleSpec(**THREE_MEANS, weights=(1, 1, 1)), "n": 2},
     ConfigError),
    ("misclass", {"spec": GaussianOracleSpec(**THREE_MEANS, counts=(2, 0, 0)), "n": 2},
     ConfigError),
    # a repeated entry would count its replicates twice in its aggregate
    ("consistency", {"n_grid": [6, 6]}, ConfigError),
    ("misclass", {"snr_grid": [2, 2.0]}, ConfigError),
])
def test_harness_checks_its_design_before_any_replicate(monkeypatch, harness, design, error):
    def replicate(args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(experiments, "_consistency_task", replicate)
    monkeypatch.setattr(experiments, "_misclass_task", replicate)
    if harness == "consistency":
        run = consistency_experiment
        call = {"spec": TWO_CLUSTERS, "schedule": SnrSchedule(), "n_grid": [6]}
    else:
        run = misclassification_experiment
        call = {"spec": TWO_CLUSTERS, "rule": BandwidthRule(0.2), "snr_grid": [2.0], "n": 6}
    with pytest.raises(error):
        run(**{**call, "replicates": 2, "master_seed": 0, "workers": 1, **design})


def test_zero_snr_has_near_maximal_misclassification():
    spec = GaussianOracleSpec(
        means=((0.0, 0.0), (1.0, 0.0)), covs=(np.eye(2), np.eye(2)), counts=(5, 5)
    )
    rows, agg = misclassification_experiment(
        spec, BandwidthRule(0.2), [0.0, 20.0], n=10, replicates=8, master_seed=3,
        workers=2,
    )
    medians = {a["snr"]: a["expected_hamming_median"] for a in agg}
    # balanced two-block truths at n=10 cap the distance at 5
    assert medians[0.0] > 2.5
    assert medians[20.0] == 0.0


def test_inapplicable_bound_aggregates_as_satisfied():
    # at SNR 0 the bound never drops below n, so no replicate applies; the
    # aggregate must still be a number, or identical runs compare unequal
    first, second = (
        misclassification_experiment(
            TWO_CLUSTERS, BandwidthRule(0.2), [0.0], n=6, replicates=2, master_seed=0
        )
        for _ in range(2)
    )
    assert first == second
    agg = first[1][0]
    assert agg["bound_below_n_rate"] == 0.0 and agg["within_bound_rate"] == 1.0


def test_misclass_restricts_to_the_truths_k():
    # the third cluster has no weight, so every truth has 2 blocks, not the
    # oracle's 3; the known-K posterior and the bound read the truth's K
    spec = GaussianOracleSpec(means=((0.0, 0.0), (6.0, 0.0), (3.0, 5.0)),
                              covs=(np.eye(2),) * 3, weights=(1, 1, 0))
    rows, agg = misclassification_experiment(spec, BandwidthRule(), [6.0], n=8,
                                             replicates=3, master_seed=0)
    for rep, row in enumerate(rows):
        data, truth = generate_gaussian(scale_means_to_snr(spec, 6.0), 8,
                                        experiments._replicate_seed(0, rep))
        assert truth.K == 2
        kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=math.sqrt(row["sigma2"]))
        stats = separation_stats(data, truth, kernel)
        assert row["log_bound"] == misclassification_log_bound(stats, 2, 8)
        assert row["expected_hamming"] < 1e-6, row
        assert (row["map_hamming"], row["estimate_within_bound"]) == (0, 1), row
    assert agg[0]["within_bound_rate"] == 1.0


def test_tasks_carry_settings_and_the_truth_not_the_oracle(monkeypatch):
    tasks, run_parallel = [], experiments._run_parallel

    def recording(fn, fn_tasks, workers):
        tasks.extend(fn_tasks)
        return run_parallel(fn, fn_tasks, workers)

    monkeypatch.setattr(experiments, "_run_parallel", recording)
    schedule, rule = SnrSchedule(), BandwidthRule(0.2)
    rows, _ = consistency_experiment(TWO_CLUSTERS, schedule, [5, 6], 2, master_seed=1)
    # below snr 2.6 the rule's separation budget, not the covariance, sets sigma2
    misclass_rows, _ = misclassification_experiment(TWO_CLUSTERS, rule, [0.0, 1.0, 2.0], 6, 2,
                                                    master_seed=1)
    assert len(tasks) == 10 and len({row["sigma2"] for row in misclass_rows}) == 3
    oracle_like = (GaussianOracleSpec, FixedSchedule, SnrSchedule, BandwidthRule)
    for task in tasks:
        assert not any(isinstance(item, oracle_like) for item in task), task
    # each task holds its own grid entry's settings, not another entry's
    for row in rows:
        assert (row["sigma2"], row["log_delta_lambda"]) == schedule.resolve(TWO_CLUSTERS, row["n"])
    for row in misclass_rows:
        scaled = scale_means_to_snr(TWO_CLUSTERS, row["snr"]) if row["snr"] else TWO_CLUSTERS
        assert row["sigma2"] == rule.resolve(scaled, 6)


def test_posterior_odds_respect_concentration_bound():
    # separated two-cluster data: wherever the surrogate bound is finite
    # (n eps <= gamma under the true clustering), the exact posterior odds
    # against the truth must sit under it.  Membership in the separation
    # set is not part of the bound's domain and is not required here.
    spec = TWO_CLUSTERS
    n = 10
    sigma2, log_dl = SnrSchedule(0.5, 1.0).resolve(spec, n)
    kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=math.sqrt(sigma2))
    cfg = BsfConfig(kernel=kernel, log_delta=0.0, log_lambda=log_dl)
    phi = SeparationConstants(1.0, math.exp(8.0), 1.0, 0.5)
    thresholds = compute_thresholds(sigma2, 2, phi, log_dl, kernel.log_zeta(2), n)
    checked = 0
    for rep in range(20):
        data, truth = generate_gaussian(spec, n, seed=rep)
        _, stats = check_D_membership(data, truth, kernel, thresholds)
        bound = posterior_concentration_log_bound(stats, 2, n, log_dl)
        if bound == math.inf:
            continue  # no finite-n guarantee for this draw
        weights = BlockWeights(data, cfg)
        table = exact_posterior(data, cfg, retain=False, weights=weights)
        prob = table.probability_of_log_weight(weights.class_weight(truth))
        if prob >= 1.0:
            checked += 1
            continue  # odds underflow; any finite bound dominates
        actual = math.log1p(-prob) - math.log(prob)
        assert actual <= bound + 1e-9, (rep, actual, bound)
        checked += 1
    assert checked >= 15  # the configuration gives a finite bound on most draws


def test_concentration_bound_without_guarantee_is_inf():
    stats_like = SeparationStats(
        log_max_cross_kernel=-1.0, log_min_within_kernel=-1.5,
        min_cross_sq=1.0, max_within_sq=2.0,
    )
    # n eps > gamma: no finite-n surrogate
    assert posterior_concentration_log_bound(stats_like, 2, 10, 0.0) == math.inf


def test_sampler_k_mass_matches_exact_on_single_cluster():
    spec = GaussianOracleSpec(means=((0.0,),), covs=(((1.0,),),))
    data, _ = generate_gaussian(spec, 10, seed=17)
    cfg = BsfConfig(kernel=KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0),
                    log_delta=0.0, log_lambda=-10 * math.log(3.0))
    table = exact_posterior(data, cfg, retain=False)
    summary = run_chain(data, cfg, McmcSettings(20_000, 2_000, 1), seed=4)
    mass = summary.k_histogram.get(1, 0.0)
    assert mass >= 0.95
    assert abs(mass - table.prob_of_k(1)) < 0.03


def test_shipped_single_cluster_config_reproduces_trend(tmp_path):
    from bsf.cli import main

    config = REPO / "configs" / "single_cluster_trend.json"
    out = tmp_path / "trend"
    assert main(["experiment", "--config", str(config), "--out", str(out),
                 "--seed", "1234", "--workers", "4"]) == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index("prob_k_true_median")
    medians = [float(line.split(",")[idx]) for line in lines[1:]]
    assert medians == sorted(medians)
    assert medians[-1] >= 0.99
