import math

import numpy as np
import pytest

from bsf.partitions import Partition
from bsf.theory import (
    coarsened_laplacian,
    laplacian_from_log_weights,
    log_det_minor,
    run_all,
    shifted_spectrum,
    verify_det_identity,
    verify_eigen_shift,
    verify_forest_factorization,
    verify_matrix_det_lemma,
    verify_ratio_bound_coarse,
    verify_ratio_bound_fine,
)

UNIT_TRIALS = 150


def test_all_checks_pass_at_unit_scale():
    for report in run_all(trials=UNIT_TRIALS, seed=0):
        assert report.passed, report.line()


def test_reports_are_deterministic():
    a = verify_det_identity(trials=40, seed=1)
    b = verify_det_identity(trials=40, seed=1)
    assert a == b
    c = verify_det_identity(trials=40, seed=2)
    assert c.max_violation != a.max_violation


def test_eigen_shift_closed_forms():
    w = 0.5
    lap = laplacian_from_log_weights(math.log(w) * (1 - np.eye(2)))
    assert np.allclose(shifted_spectrum(lap, 0.0, 0.5), [1.0, 1.0], atol=1e-12)
    assert np.allclose(shifted_spectrum(lap, 0.0, 0.0),
                       np.sort(np.linalg.eigvalsh(lap.dense())), atol=1e-12)


def test_matrix_det_lemma_hand_cases():
    # zero update leaves the determinant unchanged; unit rank-one doubles it
    m = np.eye(3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.linalg.det(m + np.outer(e1, e1)) == pytest.approx(2.0, abs=1e-12)
    assert np.linalg.det(m + np.outer(0 * e1, e1)) == pytest.approx(1.0, abs=1e-12)


def test_coarse_bound_equality_structure():
    # one block: both sides are exactly 1 in the raw domain
    report = verify_ratio_bound_coarse(trials=50, seed=3)
    assert report.passed
    assert report.max_violation <= 0.0 + 1e-12


def test_fine_bound_near_equality_regime():
    # two blocks of two, all weights equal to eps: inequality holds with slack
    eps = 0.3
    n = 4
    logw = math.log(eps) * (1 - np.eye(n))
    from bsf.theory import log_det_L_plus_J

    part = Partition((0, 0, 1, 1))
    lap = laplacian_from_log_weights(logw)
    lhs = log_det_L_plus_J(lap)
    rhs = 0.0
    for block in part.blocks():
        sub = logw[np.ix_(block, block)]
        rhs += log_det_L_plus_J(laplacian_from_log_weights(sub))
    rhs += (part.K - 1) * math.log(n * eps)
    for block in part.blocks():
        w = np.exp(logw[np.ix_(block, block)])
        np.fill_diagonal(w, 0.0)
        ev = np.sort(np.linalg.eigvalsh(np.diag(w.sum(1)) - w))
        rhs += float(np.log1p((n - len(block)) * eps / ev[1:]).sum())
    assert lhs <= rhs + 1e-9


def test_forest_factorization_hand_case():
    # three unit-weight points split {0,1} | {2}: minor 3 >= (f13+f23) * f12 = 2
    logw = np.zeros((3, 3))
    part = Partition((0, 0, 1))
    lhs = log_det_minor(laplacian_from_log_weights(logw))
    coarse = coarsened_laplacian(logw, part)
    rhs = log_det_minor(coarse) + 0.0  # block {0,1} minor is log f12 = 0
    assert lhs == pytest.approx(math.log(3), abs=1e-12)
    assert rhs == pytest.approx(math.log(2), abs=1e-12)
    assert lhs >= rhs - 1e-9


def test_single_block_reports_equality():
    rep = verify_forest_factorization(trials=30, seed=5)
    assert rep.passed


def test_eigen_shift_and_det_checks_pass_alone():
    assert verify_eigen_shift(trials=UNIT_TRIALS, seed=0).passed
    assert verify_matrix_det_lemma(trials=UNIT_TRIALS, seed=0).passed
    assert verify_ratio_bound_fine(trials=UNIT_TRIALS, seed=0).passed
