"""Tests of the benchmark's own estimators: ESS, span self time and the
mpmath reference.  Run with ``python -m pytest bench/tests``."""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from estimators import effective_sample_size, self_times  # noqa: E402
from reference import ReferenceWeights  # noqa: E402
from tracer import Tracer  # noqa: E402


def _ar1(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * math.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


def test_ess_of_iid_draws_is_close_to_n():
    n = 20_000
    ess = effective_sample_size(np.random.default_rng(1).standard_normal(n))
    assert abs(ess / n - 1.0) < 0.1


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ess_of_ar1_matches_its_integrated_autocorrelation(rho):
    n = 50_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    ess = effective_sample_size(_ar1(rho, n, seed=2))
    assert abs(ess / expected - 1.0) < 0.15


def test_ess_of_a_constant_trace_is_undefined():
    assert math.isnan(effective_sample_size([3.0] * 10))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds [2, 3], b holds [6, 7]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_tracer_links_nested_spans_and_generator_steps():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    leaf = tracer.span("leaf", lambda: None)

    def rows():
        for i in range(2):
            leaf()
            yield i

    gen = tracer.generator("rows", rows)
    outer = tracer.span("outer", lambda: list(gen()))
    assert outer() == [0, 1]
    names = [tracer.names[i] for i in tracer.name_of]
    # outer, then per next(): the step and its leaf; the final step stops
    assert names == ["outer", "rows", "leaf", "rows", "leaf", "rows"]
    assert list(tracer.parent) == [-1, 0, 1, 0, 3, 0]
    own = self_times(tracer.parent, tracer.start, tracer.end)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    assert own.sum() == pytest.approx(dur[0])
    assert tracer.counts["rows.rows"] == 2


def test_reference_block_log_det_matches_a_high_precision_determinant():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(6, 2)) * 3.0  # weights spread over tens of nats
    sigma = 0.7
    ref = ReferenceWeights(points.tolist(), sigma, 0.0)
    ctx = mpmath.mp.clone()
    ctx.dps = 120
    m = len(points)
    lap = ctx.matrix(m, m)
    for i in range(m):
        for j in range(m):
            if i != j:
                d2 = sum((ctx.mpf(a) - ctx.mpf(b)) ** 2 for a, b in zip(points[i], points[j]))
                log_w = -ctx.log(2 * ctx.pi) - 2 * ctx.log(ctx.mpf(sigma)) - d2 / (2 * ctx.mpf(sigma) ** 2)
                lap[i, j] = -ctx.exp(log_w)
    for i in range(m):
        lap[i, i] = -ctx.fsum(lap[i, j] for j in range(m) if j != i)
    want = ctx.log(ctx.det(lap + ctx.ones(m, m) / m))
    assert abs(float(ref.block_log_det(list(range(m))) - want)) < 1e-30


def test_benchmark_json_names_what_the_runner_reports():
    import json

    import layers
    import run
    from workloads import WORKLOADS

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
