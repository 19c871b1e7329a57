"""Gaussian-type conditional kernels.

An edge weight between two points is a Gaussian kernel value
``zeta(sigma) * exp(-d(y_s, y_t)^2 / (2 sigma^2))`` where the metric ``d``
depends on the payload family:

* euclidean vectors: the Euclidean norm, with the closed-form normalizer
  ``zeta = (2 pi)^(-p/2) sigma^(-p)``;
* SPD matrices: the affine-invariant geodesic distance
  ``||log(P1^(-1/2) P2 P1^(-1/2))||_F`` (normalizer supplied by the user);
* graph Laplacians: either the SPD geodesic after the shift ``L + eta I``,
  or the plain Frobenius distance.

All kernel arithmetic is carried in the log domain end to end; raw kernel
values are never materialized because bandwidth schedules push them far
below the smallest representable float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EUCLIDEAN, GRAPH_LAPLACIAN, SPD, Dataset

EUCLIDEAN_GAUSSIAN = "euclidean-gaussian"
RIEMANNIAN_GAUSSIAN_SPD = "riemannian-gaussian-spd"
GRAPH_LAPLACIAN_GAUSSIAN = "graph-laplacian-gaussian"

KERNEL_FAMILIES = (EUCLIDEAN_GAUSSIAN, RIEMANNIAN_GAUSSIAN_SPD, GRAPH_LAPLACIAN_GAUSSIAN)

# payload family each kernel family operates on
_PAYLOAD_OF = {
    EUCLIDEAN_GAUSSIAN: EUCLIDEAN,
    RIEMANNIAN_GAUSSIAN_SPD: SPD,
    GRAPH_LAPLACIAN_GAUSSIAN: GRAPH_LAPLACIAN,
}

# eigenvalues are clamped here before taking logs, so near-singular
# regularized Laplacians do not produce -inf
_LOG_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Conditional kernel: family, bandwidth, normalizer, graph options.

    For the euclidean family the normalizer is always derived from the
    bandwidth and dimension, so passing ``zeta`` is rejected.  For manifold
    families it is not tractable in general and must be supplied (default
    1.0); it enters every within-cluster edge identically, so it trades off
    against the root/prior product ``delta * lambda``.
    """

    family: str
    sigma: float
    zeta: float | None = None
    eta: float = 0.0
    graph_mode: str = "geodesic"  # or "frobenius"

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        # the kernel divides by sigma^2, which must neither overflow nor vanish
        if not (self.sigma > 0 and 0 < self.sigma * self.sigma < math.inf):
            raise ValueError("sigma must be positive, with a finite nonzero square")
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if self.family == EUCLIDEAN_GAUSSIAN:
            if self.zeta is not None:
                raise ValueError("euclidean normalizer is derived, not user-set")
        else:
            zeta = 1.0 if self.zeta is None else self.zeta
            if not (0 < zeta < math.inf):
                raise ValueError("zeta must be positive and finite")
            object.__setattr__(self, "zeta", zeta)
        if self.family == GRAPH_LAPLACIAN_GAUSSIAN:
            if self.graph_mode == "geodesic" and not (self.eta > 0):
                raise ValueError("geodesic graph kernel needs a regularizer eta > 0")
            if self.graph_mode not in ("geodesic", "frobenius"):
                raise ValueError(f"unknown graph mode {self.graph_mode!r}")

    @property
    def payload_family(self) -> str:
        return _PAYLOAD_OF[self.family]

    def log_zeta(self, dim: int) -> float:
        """Log normalizer; ``dim`` is the vector dimension p (euclidean only)."""
        if self.family == EUCLIDEAN_GAUSSIAN:
            return -0.5 * dim * math.log(2.0 * math.pi) - dim * math.log(self.sigma)
        return math.log(self.zeta)


def spd_geodesic_sq(p1: np.ndarray, p2: np.ndarray) -> float:
    """Squared affine-invariant distance: sum of squared log-eigenvalues
    of ``p1^(-1/2) p2 p1^(-1/2)``."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError(f"SPD size mismatch {p1.shape} vs {p2.shape}")
    w1, u1 = np.linalg.eigh(p1)
    if w1.min() <= 0:
        raise ValueError("first argument is not positive definite")
    inv_sqrt = (u1 / np.sqrt(w1)) @ u1.T
    mid = inv_sqrt @ p2 @ inv_sqrt
    ev = np.linalg.eigvalsh(0.5 * (mid + mid.T))
    if ev.min() <= 0:
        raise ValueError("second argument is not positive definite")
    logs = np.log(np.maximum(ev, _LOG_EIG_FLOOR))
    return float(logs @ logs)


def spd_geodesic_distance(p1: np.ndarray, p2: np.ndarray) -> float:
    """Affine-invariant geodesic distance between SPD matrices."""
    return math.sqrt(spd_geodesic_sq(p1, p2))


def graph_distance(l1: np.ndarray, l2: np.ndarray, eta: float, mode: str = "geodesic") -> float:
    """Distance between graphs given as Laplacians.

    ``geodesic`` shifts both Laplacians to SPD by ``+ eta I`` and measures
    the affine-invariant distance; ``frobenius`` is ``||l1 - l2||_F``.
    """
    l1 = np.asarray(l1, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    if l1.shape != l2.shape:
        raise ValueError(f"Laplacian size mismatch {l1.shape} vs {l2.shape}")
    if mode == "frobenius":
        return float(np.linalg.norm(l1 - l2))
    if mode != "geodesic":
        raise ValueError(f"unknown graph mode {mode!r}")
    if not (eta > 0):
        raise ValueError("eta must be positive for the geodesic mode")
    eye = np.eye(l1.shape[0])
    return spd_geodesic_distance(l1 + eta * eye, l2 + eta * eye)


def _pair_sq_distance(y_s: np.ndarray, y_t: np.ndarray, spec: KernelSpec) -> float:
    if spec.family == EUCLIDEAN_GAUSSIAN:
        diff = np.asarray(y_s, dtype=float) - np.asarray(y_t, dtype=float)
        return float(diff @ diff)
    if spec.family == RIEMANNIAN_GAUSSIAN_SPD:
        return spd_geodesic_sq(y_s, y_t)
    d = graph_distance(y_s, y_t, spec.eta, spec.graph_mode)
    return d * d


def log_gaussian_kernel(y_s, y_t, spec: KernelSpec) -> float:
    """Log kernel value ``log zeta - d(y_s, y_t)^2 / (2 sigma^2)``.

    Finite for all finite payloads; the distance is computed once, so the
    value is exactly symmetric in its arguments.
    """
    y_s = np.asarray(y_s, dtype=float)
    y_t = np.asarray(y_t, dtype=float)
    if y_s.shape != y_t.shape:
        raise ValueError(f"payload shape mismatch {y_s.shape} vs {y_t.shape}")
    if not (np.all(np.isfinite(y_s)) and np.all(np.isfinite(y_t))):
        raise ValueError("non-finite payload entries")
    d2 = _pair_sq_distance(y_s, y_t, spec)
    return spec.log_zeta(y_s.shape[0]) - d2 / (2.0 * spec.sigma**2)


def pairwise_sq_distances(data: Dataset, spec: KernelSpec) -> np.ndarray:
    """Symmetric matrix of squared distances under the spec's metric.

    Euclidean distances sum squared coordinate differences, one coordinate
    at a time over all pairs, so points far from the origin keep their
    precision and working memory stays n x n, never n x n x p.  ``x_i - x_j``
    and ``x_j - x_i`` have equal squares, so symmetry is exact.  The other
    metrics compute each distance once and mirror it.
    """
    if data.family != spec.payload_family:
        raise ValueError(
            f"kernel family {spec.family!r} does not match payload family {data.family!r}"
        )
    n = data.n
    if spec.family == EUCLIDEAN_GAUSSIAN:
        out = np.zeros((n, n))
        for coord in np.stack(data.points).T:
            diff = coord[:, None] - coord
            out += diff * diff
        return out
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = _pair_sq_distance(data.points[i], data.points[j], spec)
            out[j, i] = out[i, j]
    return out


def log_weight_matrix(data: Dataset, spec: KernelSpec) -> np.ndarray:
    """Symmetric matrix of log kernel values; the diagonal is unused and 0."""
    d2 = pairwise_sq_distances(data, spec)
    logw = spec.log_zeta(data.dim) - d2 / (2.0 * spec.sigma**2)
    np.fill_diagonal(logw, 0.0)
    return logw
