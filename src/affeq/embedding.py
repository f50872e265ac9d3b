"""Coordinates from distances and back.

``embed`` realizes a squared-distance matrix as points in R^d whenever the
embeddability conditions hold, with a canonical gauge: a greedily chosen
pivot simplex is placed with its first vertex at the origin and the others in
lower-triangular position, and every remaining point is trilaterated against
that simplex.  The result is a deterministic function of the input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cmdet import (
    DEFAULT_REL_EPS,
    SquaredDistanceMatrix,
    menger_check,
    subset_scale,
)
from .errors import EmbeddabilityError, InputError
from .linalg import bordered_det_batch, is_exact_value

PIVOT_CONDITION_CUTOFF = 1e-7


class ConditioningWarning(UserWarning):
    """Best available pivot simplex is close to degenerate."""


@dataclass(frozen=True)
class Configuration:
    """A placement of n vertices as points in R^d."""

    dim: int
    points: tuple

    def __post_init__(self):
        pts = tuple(tuple(p) for p in self.points)
        for p in pts:
            if len(p) != self.dim:
                raise InputError(
                    f"point {p} does not have {self.dim} coordinates")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_array(cls, arr) -> "Configuration":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2:
            raise InputError("coordinate array must be 2-D")
        return cls(arr.shape[1], tuple(map(tuple, arr)))

    @property
    def n(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @property
    def exact(self) -> bool:
        return all(is_exact_value(x) for p in self.points for x in p)

    def diameter(self) -> float:
        if self.n < 2:
            return 0.0
        arr = self.as_array()
        diff = arr[:, None, :] - arr[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2).max()))


def distances_of(config: Configuration) -> SquaredDistanceMatrix:
    """Squared pairwise distances of a configuration.

    Exact when all coordinates are rational, so round trips through exact
    determinant checks lose nothing.
    """
    pts = config.points
    if config.exact:
        n = len(pts)
        z = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
                z[i][j] = z[j][i] = v
        return SquaredDistanceMatrix(z)
    arr = config.as_array()
    diff = arr[:, None, :] - arr[None, :, :]
    z = (diff**2).sum(axis=2)
    z = (z + z.T) / 2.0
    np.fill_diagonal(z, 0.0)
    return SquaredDistanceMatrix(z.tolist())


def _greedy_pivots(D: SquaredDistanceMatrix, d: int) -> list[int]:
    """Pick vertex 0 plus d more vertices greedily maximizing simplex volume.

    Equivalent to maximizing the normalized |bordered determinant| at each
    step; ties break toward the smallest vertex index, which keeps the gauge
    deterministic.
    """
    zf = D.as_array()
    pivots = [0]
    remaining = sorted(set(range(1, D.n)))
    while len(pivots) < d + 1:
        candidates = [tuple(pivots) + (j,) for j in remaining]
        dets = np.abs(bordered_det_batch(zf, candidates))
        scales = np.array([subset_scale(D, I) for I in candidates])
        best = int(np.argmax(dets / scales))
        pivots.append(remaining.pop(best))
    return pivots


def _cmd_float(zf: np.ndarray, index_set) -> float:
    return float(bordered_det_batch(zf, [tuple(index_set)])[0])


def embed(D: SquaredDistanceMatrix, d: int,
          rel_eps: float = DEFAULT_REL_EPS) -> Configuration:
    """Realize a squared-distance matrix as points in R^d.

    Raises :class:`EmbeddabilityError` with the failing condition when the
    distances do not embed.  Emits :class:`ConditioningWarning` when even the
    best pivot simplex is nearly degenerate (the embedding still proceeds).
    The output is float-valued and reproduces the input distances to relative
    1e-8 on well-conditioned data.
    """
    report = menger_check(D, d, rel_eps)
    if not report.passes:
        raise EmbeddabilityError(report)

    n = D.n
    zf = D.as_array()
    pivots = _greedy_pivots(D, d)
    pivot_norm = abs(_cmd_float(zf, pivots)) / subset_scale(D, pivots)
    if pivot_norm < PIVOT_CONDITION_CUTOFF:
        warnings.warn(
            f"pivot simplex is nearly degenerate (normalized determinant "
            f"{pivot_norm:.3e}); coordinates may be inaccurate",
            ConditioningWarning,
            stacklevel=2,
        )

    i0 = pivots[0]
    others = pivots[1:]
    # Gram matrix of the pivot edge vectors rooted at i0.
    g = np.empty((d, d))
    for a, pa in enumerate(others):
        for b, pb in enumerate(others):
            g[a, b] = (zf[i0, pa] + zf[i0, pb] - zf[pa, pb]) / 2.0
    g = (g + g.T) / 2.0
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        # Nearly degenerate pivots: clip tiny negative curvature and retry.
        w, q = np.linalg.eigh(g)
        w = np.clip(w, 0.0, None)
        ridge = max(w.max(), 1.0) * 1e-14
        chol = np.linalg.cholesky((q * w) @ q.T + ridge * np.eye(d))

    coords = np.zeros((n, d))
    for a, pa in enumerate(others):
        coords[pa] = chol[a]
    non_pivots = [j for j in range(n) if j not in pivots]
    if non_pivots:
        rhs = np.empty((d, len(non_pivots)))
        for col, j in enumerate(non_pivots):
            for a, pa in enumerate(others):
                rhs[a, col] = (zf[i0, j] + zf[i0, pa] - zf[pa, j]) / 2.0
        sol = np.linalg.solve(chol, rhs)
        # chol rows are the pivot coordinates; x_pa . y_j = rhs entries.
        for col, j in enumerate(non_pivots):
            coords[j] = sol[:, col]
    return Configuration.from_array(coords)
