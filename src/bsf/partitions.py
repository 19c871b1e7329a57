"""Canonical set partitions, enumeration, and the permutation-invariant
Hamming distance.

A partition of ``[n]`` is stored as a restricted growth string (RGS): the
first label is 0 and each new label is one plus the maximum of the labels
before it.  Every equivalence class of partitions under relabeling has
exactly one RGS representative, so partition equality is class equality and
the K! labeled copies never appear explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

ENUM_CAP = 13  # Bell(13) ~ 2.8e7
RGS_CHUNK_ROWS = 1 << 11  # bounds the memory of one label chunk and its weights


@dataclass(frozen=True)
class Partition:
    """A set partition of [n] in restricted growth form."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        if not labels:
            raise ValueError("empty partition")
        peak = -1
        for lab in labels:
            if lab > peak + 1 or lab < 0:
                raise ValueError(f"labels {labels} are not a restricted growth string")
            peak = max(peak, lab)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def K(self) -> int:
        return max(self.labels) + 1

    @property
    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.K
        for lab in self.labels:
            counts[lab] += 1
        return tuple(counts)

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.K)]
        for i, lab in enumerate(self.labels):
            out[lab].append(i)
        return out

    def block_masks(self) -> list[int]:
        """Blocks as bitmasks over [n]."""
        masks = [0] * self.K
        for i, lab in enumerate(self.labels):
            masks[lab] |= 1 << i
        return masks

    def to_string(self) -> str:
        return ",".join(str(lab) for lab in self.labels)


def canonicalize(raw_labels) -> Partition:
    """Relabel to restricted growth form; invariant under label bijections."""
    raw = list(raw_labels)
    if not raw:
        raise ValueError("empty label array")
    seen: dict = {}
    out = []
    for lab in raw:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return Partition(tuple(out))


def rgs_chunks(n: int, k_cap: int | None = None) -> Iterator[np.ndarray]:
    """Yield every restricted growth string of length ``n`` with at most
    ``k_cap`` blocks, in lexicographic order, as ``(rows, n)`` label arrays
    of at most ``RGS_CHUNK_ROWS`` rows (or ``k_cap`` rows, if larger).

    Prefixes grow one position at a time: a prefix whose labels span
    ``0..p-1`` is repeated once per admissible next label ``0..min(p,
    k_cap - 1)``, in increasing order, so the rows stay sorted.  When a step
    would exceed the chunk bound the prefixes are split into runs whose
    children fit, and each run is grown on its own, first to last.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_CAP:
        raise ValueError(f"enumeration capped at n <= {ENUM_CAP}")
    cap = n if k_cap is None else min(k_cap, n)
    if cap < 1:
        raise ValueError("k_cap must be at least 1")
    labels = np.zeros((1, n), dtype=np.int8)
    peaks = np.ones(1, dtype=np.int64)  # number of blocks in each prefix
    yield from _grow(labels, peaks, 1, cap)


def _grow(labels: np.ndarray, peaks: np.ndarray, pos: int, cap: int) -> Iterator[np.ndarray]:
    n = labels.shape[1]
    while pos < n:
        counts = np.minimum(peaks + 1, cap)
        ends = np.cumsum(counts)
        if ends[-1] > RGS_CHUNK_ROWS and len(labels) > 1:
            start = 0
            while start < len(labels):
                base = ends[start - 1] if start else 0
                stop = max(int(np.searchsorted(ends, base + RGS_CHUNK_ROWS, side="right")),
                           start + 1)
                yield from _grow(labels[start:stop], peaks[start:stop], pos, cap)
                start = stop
            return
        # child j of a prefix takes label j: the offset of each row in its run
        child = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        labels = np.repeat(labels, counts, axis=0)
        labels[:, pos] = child
        peaks = np.maximum(np.repeat(peaks, counts), child + 1)
        pos += 1
    yield labels


def _max_assignments(mats: np.ndarray) -> np.ndarray:
    """Largest total of each matrix in a ``(B, rows, cols)`` stack of
    non-negative integers over matchings of rows to columns, by a dynamic
    program over column sets (Held and Karp), all B in step.

    The stack is first turned so that ``cols <= rows``; the cost is then
    O(rows cols 2^cols) per matrix, exponential in the smaller side only.
    ``best[:, S]`` is the largest total of the rows seen so far matched into
    the set ``S`` of columns.  Each row either stays unmatched or extends a
    set by one column it lacks.  The entries are non-negative, so ``best``
    may start at 0, and an optimum can always be grown to use every column:
    ``best[:, -1]``, the set of all columns, is the answer.
    """
    mats = np.asarray(mats, dtype=np.int64)
    if mats.shape[2] > mats.shape[1]:
        mats = mats.swapaxes(1, 2)
    B, rows, cols = mats.shape
    best = np.zeros((B, 1 << cols), dtype=np.int64)
    for r in range(rows):
        prev = best.copy()
        for j in range(cols):
            # axis 2 of these views is bit j of the set index
            into, out_of = best.reshape(B, -1, 2, 1 << j), prev.reshape(B, -1, 2, 1 << j)
            np.maximum(into[:, :, 1], out_of[:, :, 0] + mats[:, r, j, None, None],
                       out=into[:, :, 1])
    return best[:, -1]


def hamming_distances(labels: np.ndarray, truth: Partition) -> np.ndarray:
    """Hamming distance to ``truth`` of each row of a ``(rows, n)`` array of
    non-negative labels, as in :func:`hamming_distance`.

    The ``(rows, K, truth.K)`` confusion counts of a run of rows are taken in
    one ``bincount`` and their assignments solved together, ``RGS_CHUNK_ROWS``
    rows at a time, in a table of ``2^min(K, truth.K)`` entries per row.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2 or labels.shape[1] != truth.n:
        raise ValueError(f"label rows of shape {labels.shape} do not match n = {truth.n}")
    n = truth.n
    out = np.empty(len(labels), dtype=np.int64)
    for start in range(0, len(labels), RGS_CHUNK_ROWS):
        chunk = labels[start:start + RGS_CHUNK_ROWS]
        k = int(chunk.max()) + 1
        cells = (np.arange(len(chunk))[:, None] * k + chunk) * truth.K + np.asarray(truth.labels)
        counts = np.bincount(cells.ravel(), minlength=len(chunk) * k * truth.K)
        out[start:start + len(chunk)] = n - _max_assignments(counts.reshape(-1, k, truth.K))
    return out


def hamming_distance(p1: Partition, p2: Partition) -> int:
    """Minimum label disagreements over bijections of cluster labels.

    Solved exactly as ``n`` minus a maximum-weight matching on the confusion
    matrix; when the block counts differ, the unmatched blocks of the larger
    side count as disagreements, as if the smaller side were padded with
    empty blocks.  The cost grows as 2 to the smaller block count.
    """
    if p1.n != p2.n:
        raise ValueError(f"length mismatch {p1.n} vs {p2.n}")
    return int(hamming_distances(np.array([p1.labels]), p2)[0])
