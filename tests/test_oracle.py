import math

import numpy as np
import pytest

from bsf.data import validate_spd
from bsf.kernels import (
    EUCLIDEAN_GAUSSIAN,
    RIEMANNIAN_GAUSSIAN_SPD,
    KernelSpec,
    spd_geodesic_distance,
)
from bsf.oracle import (
    DEFAULT_PHI,
    GaussianOracleSpec,
    ObjectOracleSpec,
    SeparationConstants,
    check_D_membership,
    chi_square_tail_log_bound,
    compute_thresholds,
    corollary_schedule,
    frechet_mean_spd,
    generate_gaussian,
    generate_spd,
    misclassification_log_bound,
    scale_means_to_snr,
    separation_stats,
)
from bsf.partitions import Partition


def two_cluster_spec(dist=6.0, var=1.0, p=2):
    mean1 = np.zeros(p)
    mean2 = np.zeros(p)
    mean2[0] = dist
    return GaussianOracleSpec(
        means=(mean1, mean2), covs=(np.eye(p) * var, np.eye(p) * var)
    )


def test_generate_gaussian_reproducible_and_shaped():
    spec = two_cluster_spec()
    d1, t1 = generate_gaussian(spec, 10, seed=7)
    d2, t2 = generate_gaussian(spec, 10, seed=7)
    assert t1 == t2
    assert all(np.array_equal(a, b) for a, b in zip(d1.points, d2.points))
    d3, _ = generate_gaussian(spec, 10, seed=8)
    assert not np.array_equal(d1.points[0], d3.points[0])
    assert t1.sizes == (5, 5)


def test_generate_gaussian_tight_covariance_concentrates():
    spec = GaussianOracleSpec(
        means=((0.0, 0.0), (5.0, 0.0)),
        covs=(np.eye(2) * 1e-4, np.eye(2) * 1e-4),
    )
    data, truth = generate_gaussian(spec, 20, seed=1)
    pts = np.stack(data.points)
    for k, block in enumerate(truth.blocks()):
        spread = np.linalg.norm(pts[block] - spec.means[k], axis=1)
        assert spread.max() < 0.1


def test_generate_gaussian_clt_mean_recovery():
    spec = two_cluster_spec(dist=4.0, var=1.0)
    n = 10_000
    data, truth = generate_gaussian(spec, n, seed=2)
    pts = np.stack(data.points)
    for k, block in enumerate(truth.blocks()):
        emp = pts[block].mean(axis=0)
        tol = 5.0 / math.sqrt(len(block))
        assert np.linalg.norm(emp - spec.means[k]) < tol


def test_common_noise_across_snr_grid():
    spec = two_cluster_spec(dist=1.0)
    d_lo, t_lo = generate_gaussian(scale_means_to_snr(spec, 2.0), 8, seed=3)
    d_hi, t_hi = generate_gaussian(scale_means_to_snr(spec, 20.0), 8, seed=3)
    assert t_lo == t_hi
    # same noise, shifted means: per-point residuals agree
    lo = np.stack(d_lo.points)
    hi = np.stack(d_hi.points)
    for k, block in enumerate(t_lo.blocks()):
        mu_lo = scale_means_to_snr(spec, 2.0).means[k]
        mu_hi = scale_means_to_snr(spec, 20.0).means[k]
        assert np.allclose(lo[block] - mu_lo, hi[block] - mu_hi, atol=1e-12)


def test_scale_means_to_snr():
    spec = two_cluster_spec(dist=3.0, var=4.0)
    assert spec.snr == pytest.approx(1.5)
    scaled = scale_means_to_snr(spec, 10.0)
    assert scaled.snr == pytest.approx(10.0, rel=1e-12)
    assert scaled.max_cov_eigenvalue == spec.max_cov_eigenvalue
    # scaled means whose distance would overflow when squared are refused
    assert np.isfinite(scale_means_to_snr(spec, 1e100).min_mean_separation ** 2)
    with pytest.raises(ValueError, match="too far apart"):
        scale_means_to_snr(spec, 1e308)


def test_specs_refuse_values_no_draw_could_use():
    means, covs = ((0.0,), (3.0,)), (((1.0,),), ((1.0,),))
    for weights in ((math.inf, 0.5), (math.nan, 1.0), (1e308, 1e308)):
        with pytest.raises(ValueError, match="label weights"):
            GaussianOracleSpec(means=means, covs=covs, weights=weights)
    with pytest.raises(ValueError, match="means disagree on shape"):
        ObjectOracleSpec(means=(np.eye(1), np.eye(2)), noise_scales=(0.1, 0.1))
    for scale in (math.inf, math.nan, -0.1):
        with pytest.raises(ValueError, match="noise scales"):
            ObjectOracleSpec(means=(np.eye(2),), noise_scales=(scale,))
    # an n past numpy's index range would fail inside the generator
    for n in (0, 2**63, 10**308):
        with pytest.raises(ValueError, match="n must be positive and at most"):
            GaussianOracleSpec(means=means, covs=covs).check_size(n)


def test_generate_spd_zero_noise_and_validity():
    means = (np.eye(2), np.diag([math.e, 2.0]))
    spec = ObjectOracleSpec(means=means, noise_scales=(0.0, 0.0))
    data, truth = generate_spd(spec, 6, seed=0)
    for point, lab in zip(data.points, truth.labels):
        assert np.allclose(point, means[lab], atol=1e-12)
    noisy_spec = ObjectOracleSpec(means=means, noise_scales=(0.3, 0.3))
    noisy, _ = generate_spd(noisy_spec, 10, seed=1)
    for point in noisy.points:
        validate_spd(point)


def test_frechet_mean_approaches_truth_at_small_noise():
    mean = np.array([[2.0, 0.5], [0.5, 1.0]])
    for scale, tol in ((0.05, 0.05), (0.01, 0.01)):
        spec = ObjectOracleSpec(means=(mean,), noise_scales=(scale,))
        data, _ = generate_spd(spec, 60, seed=4)
        est = frechet_mean_spd(data.points)
        assert spd_geodesic_distance(est, mean) < tol


def test_thresholds_hand_formula():
    th = compute_thresholds(
        sigma2=1.0, k_true=2, phi=SeparationConstants(1.0, 1.0, 1.0, 0.5),
        log_delta_lambda=0.0, log_zeta=0.0, n=9,
    )
    assert th.cross_min_sq == pytest.approx(2 * 9 * math.log(2), abs=1e-12)
    doubled_c1 = compute_thresholds(
        sigma2=1.0, k_true=2, phi=SeparationConstants(2.0, 1.0, 1.0, 0.5),
        log_delta_lambda=0.0, log_zeta=0.0, n=9,
    )
    assert th.cross_min_sq - doubled_c1.cross_min_sq == pytest.approx(
        2 * math.log(2), abs=1e-12
    )
    single = compute_thresholds(
        sigma2=1.0, k_true=1, phi=DEFAULT_PHI, log_delta_lambda=0.0,
        log_zeta=0.0, n=9,
    )
    assert single.cross_min_sq is None


def test_thresholds_affine_in_log_constants():
    base = dict(sigma2=0.7, k_true=3, log_delta_lambda=-4.0, log_zeta=-1.3, n=11)
    th0 = compute_thresholds(phi=SeparationConstants(1.0, 1.0, 1.0, 0.5), **base)
    th1 = compute_thresholds(phi=SeparationConstants(math.e, 1.0, 1.0, 0.5), **base)
    th2 = compute_thresholds(phi=SeparationConstants(1.0, math.e, 1.0, 0.5), **base)
    assert th0.cross_min_sq - th1.cross_min_sq == pytest.approx(2 * 0.7, abs=1e-12)
    assert th2.within_max_sq - th0.within_max_sq == pytest.approx(2 * 0.7, abs=1e-12)
    shifted = compute_thresholds(
        phi=SeparationConstants(1.0, 1.0, 1.0, 0.5),
        sigma2=0.7, k_true=3, log_delta_lambda=-5.0, log_zeta=-1.3, n=11,
    )
    assert shifted.cross_min_sq - th0.cross_min_sq == pytest.approx(2 * 0.7, abs=1e-12)
    assert shifted.within_max_sq - th0.within_max_sq == pytest.approx(2 * 0.7, abs=1e-12)


def test_membership_boundary_and_edge_cases():
    kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0)
    # two points in one cluster exactly at the ceiling: inclusive
    from bsf.data import dataset_from_euclidean

    th = compute_thresholds(1.0, 1, DEFAULT_PHI, log_delta_lambda=-10.0,
                            log_zeta=kernel.log_zeta(1), n=2)
    assert th.within_max_sq > 0
    gap = math.sqrt(th.within_max_sq)
    data = dataset_from_euclidean([[0.0], [gap]])
    member, stats = check_D_membership(data, Partition((0, 0)), kernel, th)
    assert member and stats.max_within_sq == pytest.approx(th.within_max_sq, rel=1e-12)
    # single point: both constraint sets empty
    single = dataset_from_euclidean([[0.0]])
    member, stats = check_D_membership(single, Partition((0,)), kernel, th)
    assert member
    assert stats.min_cross_sq == math.inf and stats.max_within_sq == -math.inf
    # two clusters at half the required floor: not a member
    th2 = compute_thresholds(1.0, 2, DEFAULT_PHI, log_delta_lambda=-30.0,
                             log_zeta=kernel.log_zeta(1), n=2)
    half = math.sqrt(th2.cross_min_sq / 2)
    apart = dataset_from_euclidean([[0.0], [half]])
    member, _ = check_D_membership(apart, Partition((0, 1)), kernel, th2)
    assert not member


def test_misclassification_bound_forms():
    kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=0.9)
    from bsf.data import dataset_from_euclidean

    data = dataset_from_euclidean([[0.0], [0.5], [3.0], [3.2]])
    truth = Partition((0, 0, 1, 1))
    stats = separation_stats(data, truth, kernel)
    generic = misclassification_log_bound(stats, k_true=2, n=4)
    # with a Gaussian kernel the kernel ratio is a gap of squared distances
    gaussian = -(stats.min_cross_sq - stats.max_within_sq) / (2.0 * 0.9**2) + 4 * math.log(3)
    assert generic == pytest.approx(gaussian, abs=1e-10)
    # degenerate equality: eps == gamma leaves only the combinatorial term
    flat = type(stats)(
        log_max_cross_kernel=-1.0, log_min_within_kernel=-1.0,
        min_cross_sq=1.0, max_within_sq=1.0,
    )
    assert misclassification_log_bound(flat, 2, 4) == pytest.approx(
        4 * math.log(3), abs=1e-12
    )
    assert misclassification_log_bound(flat, 1, 6) == pytest.approx(
        0.0 + 6 * math.log(2), abs=1e-12
    )


def test_corollary_schedule_scalings():
    spec = two_cluster_spec(dist=10.0, var=1.0)
    sigma2, log_dl = corollary_schedule(spec, n=12, alpha=0.5, iota=1.0)
    # doubling the spread at fixed snr doubles the bandwidth
    spec2 = two_cluster_spec(dist=10.0 * math.sqrt(2), var=2.0)
    sigma2_2, _ = corollary_schedule(spec2, n=12, alpha=0.5, iota=1.0)
    assert sigma2_2 == pytest.approx(2 * sigma2, rel=1e-12)
    # prior product identity
    p = spec.dim
    expect = -12 * math.log(2 + 1 + 1.0) - (p / 2) * math.log(sigma2)
    assert log_dl == pytest.approx(expect, abs=1e-12)
    with pytest.raises(ValueError):
        corollary_schedule(spec, n=12, alpha=1.5, iota=1.0)
    with pytest.raises(ValueError):
        corollary_schedule(
            GaussianOracleSpec(means=((0.0,),), covs=(((1.0,),),)), 12, 0.5, 1.0
        )


def test_miller_toy_schedule_values():
    from bsf.experiments import FixedSchedule

    schedule = FixedSchedule(sigma2=1.0, geometric_base=3.0)
    spec = GaussianOracleSpec(means=((0.0,),), covs=(((1.0,),),))
    sigma2, log_dl = schedule.resolve(spec, n=10)
    assert sigma2 == 1.0
    assert log_dl == pytest.approx(-10 * math.log(3.0), abs=1e-12)


def test_chi_square_tail_bound():
    assert chi_square_tail_log_bound(2.0 + 1e-9, 2.0) == pytest.approx(0.0, abs=1e-12)
    hand = chi_square_tail_log_bound(4.0, 2.0)
    assert math.exp(hand) == pytest.approx(0.7358, abs=1e-3)
    with pytest.raises(ValueError):
        chi_square_tail_log_bound(2.0, 2.0)
    rng = np.random.default_rng(0)
    draws = rng.chisquare(2.0, size=1_000_000)
    emp = float((draws > 4.0).mean())
    assert emp <= math.exp(hand)


def test_membership_rate_monotone_in_snr():
    spec = two_cluster_spec(dist=1.0)
    rates = []
    for snr in (2.0, 6.0, 18.0):
        scaled = scale_means_to_snr(spec, snr)
        sigma2, log_dl = corollary_schedule(scaled, n=8, alpha=0.5, iota=1.0)
        kernel = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=math.sqrt(sigma2))
        phi = SeparationConstants(1.0, math.exp(8.0), 1.0, 0.5)
        th = compute_thresholds(sigma2, 2, phi, log_dl, kernel.log_zeta(2), 8)
        hits = 0
        for rep in range(40):
            data, truth = generate_gaussian(scaled, 8, seed=rep)
            member, _ = check_D_membership(data, truth, kernel, th)
            hits += int(member)
        rates.append(hits / 40)
    assert rates == sorted(rates)
    assert rates[-1] >= 0.9
