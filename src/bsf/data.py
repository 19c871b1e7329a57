"""Datasets of points in a metric space: Euclidean vectors, SPD matrices,
or graph Laplacians, with ingestion-time validation and file I/O.

Euclidean datasets are stored as plain CSV, one row per point.  Matrix-valued
datasets use a stacked whitespace-delimited format with a one-line header
``m=<int> count=<int>`` followed by ``count`` matrices of ``m`` rows each.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean"
SPD = "spd"
GRAPH_LAPLACIAN = "graph-laplacian"

FAMILIES = (EUCLIDEAN, SPD, GRAPH_LAPLACIAN)

# Ingestion tolerances: symmetry / row-sum checks are absolute up to the
# matrix entry scale; SPD eigenvalues must clear a hard floor.
SYMMETRY_TOL = 1e-10
ROWSUM_TOL = 1e-10
SPD_EIG_FLOOR = 1e-12


class IngestionError(ValueError):
    """A payload or data file violates the dataset invariants."""


def validate_euclidean(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise IngestionError(f"euclidean payload must be 1-d, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise IngestionError("euclidean payload has non-finite entries")
    return vec


def _square_symmetric(mat: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """The payload as a finite symmetric square matrix, and its entry scale."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise IngestionError(f"{what} payload must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise IngestionError(f"{what} payload has non-finite entries")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > SYMMETRY_TOL * scale:
        raise IngestionError(f"{what} payload is not symmetric")
    return mat, scale


def validate_spd(mat: np.ndarray) -> np.ndarray:
    mat, _ = _square_symmetric(mat, "SPD")
    if np.linalg.eigvalsh(mat).min() <= SPD_EIG_FLOOR:
        raise IngestionError("SPD payload has an eigenvalue at or below the floor")
    return mat


def validate_graph_laplacian(mat: np.ndarray) -> np.ndarray:
    mat, scale = _square_symmetric(mat, "Laplacian")
    if np.abs(mat.sum(axis=1)).max() > ROWSUM_TOL * scale:
        raise IngestionError("Laplacian payload has non-zero row sums")
    return mat


_VALIDATORS = {
    EUCLIDEAN: validate_euclidean,
    SPD: validate_spd,
    GRAPH_LAPLACIAN: validate_graph_laplacian,
}


@dataclass(frozen=True)
class Dataset:
    """Ordered list of points sharing one payload family.

    ``points`` is a tuple of arrays: shape ``(p,)`` for euclidean payloads,
    ``(m, m)`` for SPD and graph-Laplacian payloads.
    """

    family: str
    points: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise IngestionError(f"unknown payload family {self.family!r}")
        if not self.points:
            raise IngestionError("dataset is empty")
        validate = _VALIDATORS[self.family]
        pts = tuple(validate(pt) for pt in self.points)
        dims = {pt.shape for pt in pts}
        if len(dims) != 1:
            raise IngestionError(f"payloads disagree on shape: {sorted(dims)}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        """Vector dimension p, or matrix side m for matrix payloads."""
        return self.points[0].shape[0]


def dataset_from_euclidean(rows) -> Dataset:
    arr = np.atleast_2d(np.asarray(rows, dtype=float))
    return Dataset(EUCLIDEAN, tuple(arr))


def read_euclidean_csv(path) -> Dataset:
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise IngestionError(f"malformed numeric CSV {path}: {exc}") from exc
    return dataset_from_euclidean(arr)


def write_euclidean_csv(path, data: Dataset) -> None:
    if data.family != EUCLIDEAN:
        raise ValueError("write_euclidean_csv needs a euclidean dataset")
    with open(path, "w", encoding="utf-8") as fh:
        for pt in data.points:
            fh.write(",".join(format(x, ".17g") for x in pt))
            fh.write("\n")


def read_matrix_stack(path, family: str) -> Dataset:
    """Read stacked matrices with a `m=<int> count=<int>` header line."""
    if family not in (SPD, GRAPH_LAPLACIAN):
        raise IngestionError(f"matrix stack family must be spd or graph-laplacian, got {family!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            body = fh.read()
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    fields = dict(
        part.split("=", 1) for part in header.split() if "=" in part
    )
    try:
        m = int(fields["m"])
        count = int(fields["count"])
    except (KeyError, ValueError) as exc:
        raise IngestionError(f"bad matrix-stack header {header!r}") from exc
    if m < 1 or count < 1:
        raise IngestionError(f"bad matrix-stack sizes m={m} count={count}")
    try:
        flat = np.loadtxt(io.StringIO(body), ndmin=2)
    except ValueError as exc:
        raise IngestionError(f"malformed matrix stack {path}: {exc}") from exc
    if flat.shape != (count * m, m):
        raise IngestionError(
            f"matrix stack shape {flat.shape} does not match m={m} count={count}"
        )
    mats = tuple(flat[k * m : (k + 1) * m] for k in range(count))
    return Dataset(family, mats)


def write_matrix_stack(path, data: Dataset) -> None:
    if data.family not in (SPD, GRAPH_LAPLACIAN):
        raise ValueError("write_matrix_stack needs a matrix-valued dataset")
    m = data.dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"m={m} count={data.n}\n")
        for mat in data.points:
            for row in mat:
                fh.write(" ".join(format(x, ".17g") for x in row))
                fh.write("\n")
