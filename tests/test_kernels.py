import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from bsf.data import Dataset, IngestionError, dataset_from_euclidean
from bsf.kernels import (
    EUCLIDEAN_GAUSSIAN,
    GRAPH_LAPLACIAN_GAUSSIAN,
    RIEMANNIAN_GAUSSIAN_SPD,
    KernelSpec,
    graph_distance,
    log_gaussian_kernel,
    log_weight_matrix,
    pairwise_sq_distances,
    spd_geodesic_distance,
    spd_geodesic_sq,
)

EUC = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0)


def test_standard_normal_at_zero():
    v = log_gaussian_kernel(np.zeros(1), np.zeros(1), EUC)
    assert v == pytest.approx(math.log(1.0 / math.sqrt(2 * math.pi)), abs=1e-12)
    assert v == pytest.approx(-0.9189, abs=1e-4)


def test_zero_distance_gives_log_zeta():
    spec = KernelSpec(RIEMANNIAN_GAUSSIAN_SPD, sigma=0.7, zeta=2.5)
    p = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert log_gaussian_kernel(p, p, spec) == pytest.approx(math.log(2.5), abs=1e-12)


def test_hand_substituted_value_p2():
    spec = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=2.0)
    y_s = np.zeros(2)
    y_t = np.array([math.sqrt(8.0), 0.0])
    log_zeta = -math.log(2 * math.pi) - 2 * math.log(2.0)
    assert log_gaussian_kernel(y_s, y_t, spec) == pytest.approx(log_zeta - 1.0, abs=1e-12)


def test_kernel_errors():
    with pytest.raises(ValueError):
        log_gaussian_kernel(np.zeros(2), np.zeros(3), EUC)
    with pytest.raises(ValueError):
        log_gaussian_kernel(np.array([np.nan]), np.zeros(1), EUC)
    with pytest.raises(ValueError):
        KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=-1.0)
    # the kernel divides by sigma^2, which would overflow or vanish
    for sigma in (1e308, 1e-200):
        with pytest.raises(ValueError, match="finite nonzero square"):
            KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=sigma)
    with pytest.raises(ValueError):
        KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0, zeta=2.0)  # derived, not user-set
    with pytest.raises(ValueError):
        KernelSpec(GRAPH_LAPLACIAN_GAUSSIAN, sigma=1.0)  # geodesic mode needs eta


def test_spd_distance_identity_and_diagonal():
    p = np.array([[3.0, 1.0], [1.0, 2.0]])
    assert spd_geodesic_distance(p, p) == pytest.approx(0.0, abs=1e-12)
    d = spd_geodesic_distance(np.eye(2), np.diag([math.e**2, math.e**2]))
    assert d == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_spd_affine_invariance(rng):
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        while abs(np.linalg.det(a)) < 1e-3:
            a = rng.normal(size=(3, 3))
        p1 = _random_spd(rng, 3)
        p2 = _random_spd(rng, 3)
        d0 = spd_geodesic_distance(p1, p2)
        d1 = spd_geodesic_distance(a @ p1 @ a.T, a @ p2 @ a.T)
        assert d1 == pytest.approx(d0, abs=1e-8)


def _random_spd(rng, m):
    a = rng.normal(size=(m, m))
    return a @ a.T + m * np.eye(m)


def _path3():
    # path graph 0-1-2
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    return np.diag(adj.sum(1)) - adj


def _triangle3():
    adj = np.ones((3, 3)) - np.eye(3)
    return np.diag(adj.sum(1)) - adj


def test_graph_distance_zero_and_frobenius():
    lap = _path3()
    assert graph_distance(lap, lap, eta=0.1) == pytest.approx(0.0, abs=1e-12)
    l1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    l2 = np.zeros((2, 2))
    assert graph_distance(l1, l2, eta=0.0, mode="frobenius") == pytest.approx(2.0, abs=1e-12)


def test_graph_distance_eigenvalue_oracle():
    eta = 0.1
    l1 = _path3() + eta * np.eye(3)
    l2 = _triangle3() + eta * np.eye(3)
    w, u = np.linalg.eigh(l1)
    inv_sqrt = (u / np.sqrt(w)) @ u.T
    ev = np.linalg.eigvalsh(inv_sqrt @ l2 @ inv_sqrt)
    expected = math.sqrt(float((np.log(ev) ** 2).sum()))
    got = graph_distance(_path3(), _triangle3(), eta=eta)
    assert got == pytest.approx(expected, abs=1e-10)


def test_symmetry_euclidean_exact_and_manifold_tol(rng):
    pts = rng.normal(size=(6, 3))
    data = dataset_from_euclidean(pts)
    logw = log_weight_matrix(data, KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=0.8))
    assert np.array_equal(logw, logw.T)
    mats = tuple(_random_spd(rng, 2) for _ in range(4))
    spd_data = Dataset("spd", mats)
    spec = KernelSpec(RIEMANNIAN_GAUSSIAN_SPD, sigma=1.1)
    logw2 = log_weight_matrix(spd_data, spec)
    # the block kernel reads only one triangle, so every family mirrors it
    assert np.array_equal(logw2, logw2.T)
    laps = []
    for _ in range(4):
        adj = np.triu(rng.uniform(0.0, 1.0, (3, 3)), 1)
        adj += adj.T
        laps.append(np.diag(adj.sum(1)) - adj)
    graph_data = Dataset("graph-laplacian", tuple(laps))
    for mode, eta in (("geodesic", 0.1), ("frobenius", 0.0)):
        graph = KernelSpec(GRAPH_LAPLACIAN_GAUSSIAN, sigma=0.9, eta=eta, graph_mode=mode)
        logw3 = log_weight_matrix(graph_data, graph)
        assert np.array_equal(logw3, logw3.T), mode
    for i in range(4):
        for j in range(i + 1, 4):
            a = log_gaussian_kernel(mats[i], mats[j], spec)
            b = log_gaussian_kernel(mats[j], mats[i], spec)
            assert abs(a - b) < 1e-10


@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0), st.floats(0.1, 4.0))
def test_monotone_in_squared_distance(d2a, d2b, sigma):
    spec = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=sigma)
    ya = np.array([math.sqrt(d2a)])
    yb = np.array([math.sqrt(d2b)])
    origin = np.zeros(1)
    ka = log_gaussian_kernel(origin, ya, spec)
    kb = log_gaussian_kernel(origin, yb, spec)
    if d2a < d2b:
        assert ka > kb
    elif d2a > d2b:
        assert ka < kb


def test_normalizer_quadrature_p1():
    spec = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.7)
    center = np.array([0.4])

    def dens(x):
        return math.exp(log_gaussian_kernel(center, np.array([x]), spec))

    total, _ = quad(dens, -60, 60, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_bandwidth_halving_quadruples_distance_term():
    # powers of two keep the arithmetic exact
    wide = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=2.0)
    narrow = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.0)
    y = np.array([1.5, -0.25])
    origin = np.zeros(2)
    term_wide = log_gaussian_kernel(origin, y, wide) - wide.log_zeta(2)
    term_narrow = log_gaussian_kernel(origin, y, narrow) - narrow.log_zeta(2)
    assert term_narrow == 4.0 * term_wide


def test_pairwise_matches_single_pair(rng):
    # far from the origin, |x|^2 + |y|^2 - 2 x.y would lose the digits of
    # the differences; direct differences keep them
    spec = KernelSpec(EUCLIDEAN_GAUSSIAN, sigma=1.3)
    for offset in (0.0, 1e5):
        pts = rng.normal(size=(5, 3)) + offset
        d2 = pairwise_sq_distances(dataset_from_euclidean(pts), spec)
        for i in range(5):
            for j in range(5):
                diff = pts[i] - pts[j]
                assert d2[i, j] == pytest.approx(float(diff @ diff), rel=1e-15, abs=0.0)
        assert np.array_equal(d2, d2.T) and not d2.diagonal().any()
    data = dataset_from_euclidean(pts)
    with pytest.raises(ValueError):
        pairwise_sq_distances(data, KernelSpec(RIEMANNIAN_GAUSSIAN_SPD, sigma=1.0))


def test_dataset_validation():
    with pytest.raises(IngestionError):
        Dataset("spd", (np.array([[1.0, 2.0], [0.0, 1.0]]),))  # not symmetric
    with pytest.raises(IngestionError):
        Dataset("spd", (np.array([[1.0, 0.0], [0.0, -1.0]]),))  # not PD
    with pytest.raises(IngestionError):
        Dataset("graph-laplacian", (np.array([[1.0, 0.0], [0.0, 1.0]]),))  # row sums
    with pytest.raises(IngestionError):
        dataset_from_euclidean([[1.0, 2.0], [3.0, np.inf]])
    ok = Dataset("graph-laplacian", (_path3(), _triangle3()))
    assert ok.n == 2 and ok.dim == 3
