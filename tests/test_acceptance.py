"""Acceptance suite: each test enforces one exit criterion at its stated
tolerance and prints a PASS line (run with ``pytest -s`` to see them)."""

import json
import math
import time

import numpy as np
import pytest
from conftest import class_probabilities

from bsf.cli import main
from bsf.data import dataset_from_euclidean
from bsf.experiments import (
    BandwidthRule,
    FixedSchedule,
    SnrSchedule,
    consistency_experiment,
    misclassification_experiment,
)
from bsf.kernels import (
    EUCLIDEAN_GAUSSIAN,
    RIEMANNIAN_GAUSSIAN_SPD,
    KernelSpec,
    log_gaussian_kernel,
    spd_geodesic_distance,
)
from bsf.oracle import (
    GaussianOracleSpec,
    ObjectOracleSpec,
    SeparationConstants,
    chi_square_tail_log_bound,
    generate_gaussian,
    generate_spd,
)
from bsf.posterior import BlockWeights, BsfConfig, exact_posterior
from bsf.sampler import McmcSettings, combined_transition_matrix, run_chain
from bsf.theory import (
    laplacian_from_log_weights,
    log_det_L_plus_J,
    log_det_minor,
    spanning_tree_weight_bruteforce,
    verify_eigen_shift,
    verify_forest_factorization,
    verify_matrix_det_lemma,
    verify_ratio_bound_coarse,
    verify_ratio_bound_fine,
)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_acceptance_01_kirchhoff_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(500):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.1, 2.0, size=(n, n))
        w = np.triu(w, 1)
        logw = np.log(w + w.T + np.eye(n))
        np.fill_diagonal(logw, 0.0)
        lap = laplacian_from_log_weights(logw)
        via_j = log_det_L_plus_J(lap)
        trees = spanning_tree_weight_bruteforce(logw)
        assert abs(via_j - (math.log(n) + trees)) <= 1e-9
        for drop in range(n):
            assert abs(via_j - (math.log(n) + log_det_minor(lap, drop))) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, f"500 graphs, |L+J/n| = n|L[i]| = tree sum within 1e-9 ({elapsed:.1f}s)")


def test_acceptance_02_lemma_suite():
    start = time.perf_counter()
    checks = (
        verify_eigen_shift,
        verify_matrix_det_lemma,
        verify_ratio_bound_coarse,
        verify_ratio_bound_fine,
        verify_forest_factorization,
    )
    lines = []
    for check in checks:
        rep = check(trials=1000, seed=0)
        assert rep.passed, rep.line()
        lines.append(rep.lemma_id)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(2, f"1000 trials each: {', '.join(lines)} ({elapsed:.1f}s)")


def test_acceptance_03_two_point_anchor():
    spec = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0)
    data = dataset_from_euclidean([[0.0], [1.0]])
    log_f12 = log_gaussian_kernel(np.zeros(1), np.ones(1), spec)
    cfg = BsfConfig(kernel=spec, log_delta=0.0, log_lambda=log_f12 - math.log(9.0))
    probs = class_probabilities(exact_posterior(data, cfg, retain=True))
    assert abs(probs[(0, 0)] - 0.9) <= 1e-12
    assert abs(probs[(0, 1)] - 0.1) <= 1e-12
    report(3, "n=2 anchor: class odds f12/(delta lambda) = 9 gives (0.9, 0.1)")


def _tv(freqs, exact):
    keys = set(freqs) | set(exact)
    return 0.5 * sum(abs(freqs.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)


def test_acceptance_04_sampler_exactness():
    spec = GaussianOracleSpec(
        means=((0.0, 0.0), (6.0, 0.0)), covs=(np.eye(2), np.eye(2))
    )
    worst = 0.0
    for n in (6, 8):
        from bsf.oracle import corollary_schedule

        sigma2, log_dl = corollary_schedule(spec, n, alpha=0.5, iota=1.0)
        kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=math.sqrt(sigma2))
        cfg = BsfConfig(kernel=kernel, log_delta=0.0, log_lambda=log_dl)
        data, _ = generate_gaussian(spec, n, seed=100 + n)
        exact = class_probabilities(exact_posterior(data, cfg, retain=True))
        for seed in (0, 1, 2):
            summary = run_chain(data, cfg, McmcSettings(50_000, 5_000, 1), seed=seed)
            tv = _tv(summary.class_frequencies(), exact)
            worst = max(worst, tv)
            assert tv <= 0.05, (n, seed, tv)
    # n=3 stationarity of the full transition law
    rng = np.random.default_rng(7)
    data3 = dataset_from_euclidean(rng.normal(size=(3, 1)))
    cfg3 = BsfConfig(KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0), log_lambda=math.log(0.7))
    weights = BlockWeights(data3, cfg3)
    pi = np.array(list(class_probabilities(exact_posterior(data3, cfg3, retain=True)).values()))
    combined = combined_transition_matrix(weights)
    assert np.abs(pi @ combined - pi).max() <= 1e-8
    report(4, f"TV <= 0.05 for 6/6 chains (worst {worst:.4f}); n=3 stationary within 1e-8")


def test_acceptance_05_single_cluster_trend():
    start = time.perf_counter()
    spec = GaussianOracleSpec(means=((0.0,),), covs=(((1.0,),),))
    schedule = FixedSchedule(sigma2=1.0, geometric_base=3.0)
    _, aggregate = consistency_experiment(
        spec, schedule, [4, 6, 8, 10, 12], replicates=50, master_seed=1234, workers=4
    )
    medians = [agg["prob_k_true_median"] for agg in aggregate]
    for lo, hi in zip(medians, medians[1:]):
        assert hi >= lo - 1e-12, medians
    assert medians[-1] >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(5, "median P(K=1|y) non-decreasing over n in {4..12}: "
              + " -> ".join(f"{m:.4f}" for m in medians) + f" ({elapsed:.0f}s)")


def test_acceptance_06_separated_gaussian_recovery():
    spec = GaussianOracleSpec(
        means=((0.0, 0.0), (20.0, 0.0)), covs=(np.eye(2), np.eye(2))
    )
    # c2 sized so the within-distance ceiling clears the chi-square tail of
    # within pairs at n=12; the defaults put the ceiling below zero at desk
    # scale, which the harness reports rather than rejects
    phi = SeparationConstants(c1=1.0, c2=math.exp(8.0), iota1=1.0, iota2=0.5)
    rows, _ = consistency_experiment(
        spec, SnrSchedule(alpha=0.5, iota=1.0), [12], replicates=50,
        master_seed=777, phi=phi, workers=4,
    )
    recovery = float(np.mean([row["map_hamming"] == 0 for row in rows]))
    membership = float(np.mean([row["in_separation_set"] for row in rows]))
    assert recovery >= 0.95
    assert membership >= 0.90
    report(6, f"snr=20, n=12: exact MAP recovery {recovery:.0%}, "
              f"separation-set membership {membership:.0%}")


def test_acceptance_07_misclassification_decay():
    spec = GaussianOracleSpec(
        means=((0.0, 0.0), (1.0, 0.0)), covs=(np.eye(2), np.eye(2)), counts=(5, 5)
    )
    rows, aggregate = misclassification_experiment(
        spec, BandwidthRule(fraction=0.2), [2.0, 5.0, 10.0, 20.0],
        n=10, replicates=30, master_seed=99, workers=4,
    )
    medians = {agg["snr"]: agg["expected_hamming_median"] for agg in aggregate}
    grid = [2.0, 5.0, 10.0, 20.0]
    for lo, hi in zip(grid, grid[1:]):
        assert medians[hi] <= medians[lo] + 1e-15, medians
    assert medians[20.0] == 0.0
    for row in rows:
        if row["bound_below_n"]:
            assert row["estimate_within_bound"], row
    report(7, "known-K expected misclassification medians decay "
              + " -> ".join(f"{medians[s]:.3g}" for s in grid)
              + "; all estimates within the analytic bound where it binds")


def test_acceptance_08_chi_square_tail_bound():
    rng = np.random.default_rng(42)
    pairs = [(p * r, p) for p in (1.0, 2.0, 3.0, 5.0, 8.0) for r in (1.5, 2.0, 3.0, 5.0)]
    assert len(pairs) == 20
    for a, p in pairs:
        draws = rng.chisquare(p, size=1_000_000)
        emp = float((draws > a).mean())
        assert emp <= math.exp(chi_square_tail_log_bound(a, p)), (a, p, emp)
    hand = math.exp(chi_square_tail_log_bound(4.0, 2.0))
    assert abs(hand - 0.7358) <= 1e-3
    report(8, f"bound dominates 1e6-draw tails on 20 (a, p) pairs; "
              f"bound(4, 2) = {hand:.4f}")


def test_acceptance_09_spd_pipeline():
    means = (np.eye(2), np.diag([math.exp(6.0), math.exp(6.0)]))
    spec = ObjectOracleSpec(means=means, noise_scales=(0.05, 0.05), counts=(5, 5))
    n = 10
    kernel = KernelSpec(RIEMANNIAN_GAUSSIAN_SPD, sigma=1.0)
    cfg = BsfConfig(kernel=kernel, log_delta=0.0, log_lambda=-n * math.log(4.0))
    hits = 0
    for rep in range(30):
        data, truth = generate_spd(
            spec, n, seed=np.random.SeedSequence(5150, spawn_key=(rep,))
        )
        weights = BlockWeights(data, cfg)
        table = exact_posterior(data, cfg, retain=False, weights=weights)
        prob_truth = table.probability_of_log_weight(weights.class_weight(truth))
        hits += prob_truth >= 0.9
    assert hits >= 27  # 90% of 30
    # affine invariance of the distance on 100 random congruences
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 2))
        while abs(np.linalg.det(a)) < 1e-2:
            a = rng.normal(size=(2, 2))
        g1 = rng.normal(size=(2, 2))
        g2 = rng.normal(size=(2, 2))
        p1 = g1 @ g1.T + 2 * np.eye(2)
        p2 = g2 @ g2.T + 2 * np.eye(2)
        d0 = spd_geodesic_distance(p1, p2)
        d1 = spd_geodesic_distance(a @ p1 @ a.T, a @ p2 @ a.T)
        worst = max(worst, abs(d0 - d1))
    assert worst <= 1e-8
    report(9, f"object-valued recovery {hits}/30 with P(truth) >= 0.9; "
              f"affine invariance within {worst:.2e}")


def test_acceptance_10_experiment_determinism(tmp_path):
    config = {
        "oracle": {
            "means": [[0.0, 0.0], [8.0, 0.0]],
            "covs": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        },
        "schedule": {"kind": "snr", "alpha": 0.5, "iota": 1.0},
        "n_grid": [5, 6],
        "replicates": 6,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for tag, workers in (("a", 1), ("b", 4), ("c", 1), ("d", 4)):
        out = tmp_path / tag
        code = main([
            "experiment", "--config", str(cfg_path), "--out", str(out),
            "--seed", "31", "--workers", str(workers),
        ])
        assert code == 0
        outputs.append(
            ((out / "replicates.csv").read_bytes(), (out / "aggregate.csv").read_bytes())
        )
    assert all(pair == outputs[0] for pair in outputs[1:])
    report(10, "experiment CSVs byte-identical across two runs and workers {1, 4}")
