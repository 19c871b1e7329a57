"""Statistics used by the benchmark: effective sample size and span self
time.  Pure numpy; nothing here imports bsf."""

from __future__ import annotations

import numpy as np


def effective_sample_size(trace) -> float:
    """Single-chain ESS with Geyer's initial monotone positive sequence.

    ``ESS = N / (1 + 2 sum_t rho_t)``, where the autocorrelations are summed
    in adjacent pairs while the pair sums stay positive, and each pair sum
    is capped by the previous one (Geyer 1992; the single-chain form of
    Vehtari et al. 2021).  A constant trace has no defined ESS and gives NaN.
    """
    x = np.asarray(trace, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError("ESS needs at least 4 draws")
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float("nan")
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x, size)
    acov = np.fft.irfft(spec * np.conjugate(spec), size)[:n] / n
    rho = acov / acov[0]
    tau = -1.0  # = rho_0 + 2 * sum_{t>=1} rho_t once pairs are added
    prev_pair = float("inf")
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev_pair)
        tau += 2.0 * pair
        prev_pair = pair
    return n / tau


def self_times(parent, start, end) -> np.ndarray:
    """Self time of every span: its duration minus the time covered by its
    direct children.

    Spans are index-aligned arrays; ``parent[i]`` is the index of span i's
    parent or -1.  Spans come from one thread, so children of a span are
    nested inside it and never overlap one another, and the covered time is
    the sum of the children's durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child_time = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    return dur - child_time
