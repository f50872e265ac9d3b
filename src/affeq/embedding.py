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

from .cmdet import DEFAULT_REL_EPS, SquaredDistanceMatrix, _scales, menger_check
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


def _greedy_pivots(D: SquaredDistanceMatrix, d: int) -> tuple[list[int], float]:
    """Pick vertex 0 plus d more vertices greedily maximizing simplex volume.

    Equivalent to maximizing the normalized |bordered determinant| at each
    step; ties break toward the smallest vertex index, which keeps the gauge
    deterministic.  Returns the pivots and the last step's normalized
    |determinant|, that of the whole pivot simplex.
    """
    zf = D.as_array()
    pivots = [0]
    remaining = list(range(1, D.n))
    while len(pivots) < d + 1:
        candidates = np.array([pivots + [j] for j in remaining], dtype=np.intp)
        norms = np.abs(bordered_det_batch(zf, candidates)) / _scales(D, candidates)
        best = int(np.argmax(norms))
        pivots.append(remaining.pop(best))
    return pivots, float(norms[best])


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
    return _coordinates(D, d)


def _coordinates(D: SquaredDistanceMatrix, d: int) -> Configuration:
    """The coordinate step of :func:`embed`, for a matrix already known to
    embed in R^d: nothing is checked here."""
    zf = D.as_array()
    pivots, pivot_norm = _greedy_pivots(D, d)
    if pivot_norm < PIVOT_CONDITION_CUTOFF:
        warnings.warn(
            f"pivot simplex is nearly degenerate (normalized determinant "
            f"{pivot_norm:.3e}); coordinates may be inaccurate",
            ConditioningWarning,
            stacklevel=3,
        )

    i0, others = pivots[0], pivots[1:]
    non_pivots = [j for j in range(D.n) if j not in pivots]
    # Inner products of the pivot edge vectors out of i0 with the edge
    # vectors to the pivots (their Gram matrix) and to every other point.
    cols = others + non_pivots
    gram = (zf[i0, others][:, None] + zf[i0, cols] - zf[np.ix_(others, cols)]) / 2.0
    g, rhs = gram[:, :d], gram[:, d:]
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        # Nearly degenerate pivots: clip tiny negative curvature and retry.
        w, q = np.linalg.eigh(g)
        w = np.clip(w, 0.0, None)
        ridge = max(w.max(), 1.0) * 1e-14
        chol = np.linalg.cholesky((q * w) @ q.T + ridge * np.eye(d))

    coords = np.zeros((D.n, d))
    # chol rows are the pivot coordinates; x_pa . y_j = rhs entries.
    coords[others] = chol
    coords[non_pivots] = np.linalg.solve(chol, rhs).T
    return Configuration.from_array(coords)
