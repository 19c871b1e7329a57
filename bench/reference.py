"""High-precision reference for log class weights, independent of bsf.

Edge log weights are recomputed in mpmath from the raw coordinates, and each
block determinant ``|L_T + J/|T||`` is taken as ``|T| * |L_T[last]|`` with
``|L_T[last]|`` the product of the pivots of node-by-node elimination
(the star-mesh transform).  Every pivot and every update is a sum of
positive terms, so no digits cancel, and mpmath's unbounded exponent covers
any weight range; 50 significant digits then leave far more accuracy than
the float64 values being checked.
"""

from __future__ import annotations

import mpmath

DIGITS = 50


class ReferenceWeights:
    """Reference ``log`` class weights for one Euclidean Gaussian-kernel
    model: points (a list of coordinate tuples), bandwidth ``sigma`` and
    ``log(delta * lambda)``."""

    def __init__(self, points, sigma: float, log_delta_lambda: float):
        self.ctx = mpmath.mp.clone()
        self.ctx.dps = DIGITS
        ctx = self.ctx
        dim = len(points[0])
        sig = ctx.mpf(sigma)
        log_zeta = -ctx.mpf(dim) / 2 * ctx.log(2 * ctx.pi) - dim * ctx.log(sig)
        pts = [[ctx.mpf(x) for x in p] for p in points]
        self.n = len(pts)
        self.weight = [[ctx.zero] * self.n for _ in range(self.n)]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                d2 = ctx.fsum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
                w = ctx.exp(log_zeta - d2 / (2 * sig**2))
                self.weight[i][j] = self.weight[j][i] = w
        self.log_dl = ctx.mpf(log_delta_lambda)
        self._blocks: dict[int, object] = {}

    def block_log_det(self, members) -> object:
        """``log |L_T + J/|T||`` for the block with the given point indices."""
        ctx = self.ctx
        m = len(members)
        if m == 1:
            return ctx.zero
        w = [[self.weight[i][j] for j in members] for i in members]
        total = ctx.log(m)
        for k in range(m - 1):
            row = w[k]
            pivot = ctx.fsum(row[k + 1:])
            total += ctx.log(pivot)
            for i in range(k + 1, m):
                wik = w[i][k] / pivot
                wi = w[i]
                for j in range(i + 1, m):
                    wi[j] += wik * row[j]
                    w[j][i] = wi[j]
        return total

    def log_class_weight(self, labels) -> float:
        """``log K! + sum over blocks (log(delta lambda) + block log-det)``."""
        ctx = self.ctx
        blocks: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(i)
        total = ctx.loggamma(len(blocks) + 1) + len(blocks) * self.log_dl
        for members in blocks.values():
            mask = sum(1 << i for i in members)
            if mask not in self._blocks:
                self._blocks[mask] = self.block_log_det(members)
            total += self._blocks[mask]
        return total
