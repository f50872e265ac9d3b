"""Affine maps between frameworks and certificate verification.

Once an assignment has passed the feasibility checker, both squared-distance
matrices are embeddable and the two embeddings are related by an invertible
affine map.  This module fits that map once, from a base-simplex
correspondence: the embedding gauge fixes coordinates only up to an
isometry, and composing the map with an isometry of the second framework
changes no residual, so no reflected retry is needed.  It also verifies the
four defining properties of an equivalent framework pair: matching edge
lengths on both sides, pointwise agreement under the map, and a
full-dimensional affine hull.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from .cmdet import cmd
from .embedding import Configuration, _coordinates, distances_of
from .errors import InputError, PreconditionError, ReconstructionError
from .linalg import bareiss_det, det_any, is_exact_value
from .system import Assignment, Instance, Tolerances, check_assignment


@dataclass(frozen=True)
class AffineMap:
    """x maps to matrix @ x + shift; rows of ``matrix`` are stored as tuples."""

    matrix: tuple
    shift: tuple

    def __post_init__(self):
        d = len(self.shift)
        rows = tuple(tuple(row) for row in self.matrix)
        if len(rows) != d or any(len(row) != d for row in rows):
            raise InputError("matrix and shift dimensions disagree")
        object.__setattr__(self, "matrix", rows)

    @property
    def dim(self) -> int:
        return len(self.shift)

    @property
    def exact(self) -> bool:
        return all(
            is_exact_value(x) for row in self.matrix for x in row
        ) and all(is_exact_value(x) for x in self.shift)

    def det(self):
        return det_any([list(row) for row in self.matrix])

    def apply_point(self, point):
        if len(point) != self.dim:
            raise InputError("point dimension mismatch")
        return tuple(
            sum(row[k] * point[k] for k in range(self.dim)) + s
            for row, s in zip(self.matrix, self.shift)
        )

    def apply(self, c: Configuration) -> Configuration:
        return Configuration(self.dim, [self.apply_point(p) for p in c.points])

    @classmethod
    def identity(cls, d: int) -> "AffineMap":
        return cls(
            tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)),
            (0,) * d,
        )


@dataclass(frozen=True)
class Problem1Report:
    """Residuals for the four conditions an equivalent pair must satisfy.

    (a) edge lengths of the first framework match ``lam``;
    (b) edge lengths of the second framework match ``lam_prime``;
    (c) the map sends each point of the first onto the second;
    (d) the first point set affinely spans the whole space.
    """

    edge_residual: float
    edge_residual_prime: float
    map_residual: float
    full_hull: bool
    tolerance: float
    witness_edge: Optional[tuple] = None
    witness_edge_prime: Optional[tuple] = None
    witness_vertex: Optional[int] = None

    @property
    def passed(self) -> bool:
        return (
            self.edge_residual <= self.tolerance
            and self.edge_residual_prime <= self.tolerance
            and self.map_residual <= self.tolerance
            and self.full_hull
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "edge_residual": self.edge_residual,
            "edge_residual_prime": self.edge_residual_prime,
            "map_residual": self.map_residual,
            "full_hull": self.full_hull,
            "tolerance": self.tolerance,
            "witness_edge": list(self.witness_edge) if self.witness_edge else None,
            "witness_edge_prime": (
                list(self.witness_edge_prime) if self.witness_edge_prime else None
            ),
            "witness_vertex": self.witness_vertex,
        }


def affine_from_simplex(src, dst) -> AffineMap:
    """The unique affine map sending the k-th source point to the k-th target.

    Needs d+1 affinely independent source points in R^d; the linear part is
    solved from the edge vectors out of the first point, exactly when all
    coordinates are rational.
    """
    src = [tuple(p) for p in src]
    dst = [tuple(p) for p in dst]
    if not src or len(src) != len(dst):
        raise InputError("need matching nonempty point lists")
    d = len(src[0])
    if len(src) != d + 1:
        raise InputError(f"need {d + 1} points in dimension {d}, got {len(src)}")
    if any(len(p) != d for p in src) or any(len(p) != d for p in dst):
        raise InputError("point dimension mismatch")

    exact = all(is_exact_value(x) for p in src + dst for x in p)
    # columns of E are source edge vectors, columns of F target edge vectors;
    # the linear part B solves B E = F
    if exact:
        E = [
            [Fraction(src[k + 1][i]) - Fraction(src[0][i]) for k in range(d)]
            for i in range(d)
        ]
        F = [
            [Fraction(dst[k + 1][i]) - Fraction(dst[0][i]) for k in range(d)]
            for i in range(d)
        ]
        det_e = bareiss_det(E)
        if det_e == 0:
            raise InputError("source simplex is degenerate")
        # Cramer's rule on each row of B E = F: B[i][k] is det(E) with row k
        # replaced by F[i], over det(E).
        B = tuple(tuple(bareiss_det(E[:k] + [F[i]] + E[k + 1:]) / det_e
                        for k in range(d)) for i in range(d))
        shift = tuple(
            Fraction(dst[0][i]) - sum(B[i][k] * Fraction(src[0][k]) for k in range(d))
            for i in range(d)
        )
        return AffineMap(B, shift)

    E = np.array(src[1:], dtype=float).T - np.array(src[0], dtype=float).reshape(-1, 1)
    F = np.array(dst[1:], dtype=float).T - np.array(dst[0], dtype=float).reshape(-1, 1)
    if abs(np.linalg.det(E)) <= 1e-12 * np.abs(E).max() ** d:
        raise InputError("source simplex is degenerate")
    B = F @ np.linalg.inv(E)
    shift = np.array(dst[0], dtype=float) - B @ np.array(src[0], dtype=float)
    return AffineMap(tuple(map(tuple, B)), tuple(shift))


def verify_problem1(inst: Instance, p: Configuration, p_prime: Configuration,
                    amap: AffineMap, tol: float = 1e-6) -> Problem1Report:
    """Check both edge-length prescriptions, the map residual and the hull.

    Length and map residuals are reported relative to the diameter of the
    relevant configuration, so ``tol`` is a dimensionless bound; it must be
    positive and finite.
    """
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    if p.n != inst.n or p_prime.n != inst.n:
        raise InputError("configurations must cover all vertices")
    if p.dim != inst.d or p_prime.dim != inst.d or amap.dim != inst.d:
        raise InputError("dimension mismatch")

    scale = max(p.diameter(), 1e-30)
    scale_prime = max(p_prime.diameter(), 1e-30)

    def edge_gap(conf, lengths, scale):
        worst, witness = 0.0, None
        arr = conf.as_array()
        for (i, j), lam in zip(inst.edges, lengths):
            gap = abs(float(np.linalg.norm(arr[i] - arr[j])) - float(lam)) / scale
            if gap > worst:
                worst, witness = gap, (i, j)
        return worst, witness

    edge_residual, witness_edge = edge_gap(p, inst.lam, scale)
    edge_residual_prime, witness_edge_prime = edge_gap(
        p_prime, inst.lam_prime, scale_prime
    )

    mapped = np.array(
        [[float(x) for x in amap.apply_point(pt)] for pt in p.points]
    )
    gaps = np.linalg.norm(mapped - p_prime.as_array(), axis=1) / scale_prime
    vertex = int(np.argmax(gaps)) if len(gaps) else None
    map_residual = float(gaps[vertex]) if vertex is not None else 0.0

    D = distances_of(p)
    full_hull = False
    if p.n >= inst.d + 1:
        for subset in combinations(range(p.n), inst.d + 1):
            value = cmd(D, subset)
            if abs(float(value)) > 1e-12 * D.max_over(subset) ** inst.d:
                full_hull = True
                break

    return Problem1Report(
        edge_residual=edge_residual,
        edge_residual_prime=edge_residual_prime,
        map_residual=map_residual,
        full_hull=full_hull,
        tolerance=tol,
        witness_edge=witness_edge,
        witness_edge_prime=witness_edge_prime,
        witness_vertex=vertex if map_residual > tol else None,
    )


def reconstruct(inst: Instance, a: Assignment, tol: Tolerances = Tolerances()):
    """Build configurations and the affine map realizing a checked assignment.

    Embeds both matrices and maps the base simplex of the first embedding
    onto the corresponding points of the second.  The checker decides
    embeddability, so the embedding is :func:`embed`'s coordinate step with
    no second check: families 6, 8 and 10 hold on both sides, family 9 on
    ``z``, and family 11 ties the base determinant of ``z_prime`` to that
    of ``z`` through ``alpha``, so both bases span.  One fit suffices: d+1
    affinely independent points fix the map, and the embedding gauge only
    composes it with an isometry of the second framework, which leaves
    every residual below unchanged.  Raises ``ReconstructionError`` unless
    the map places every vertex on its target, the map's determinant
    squared matches ``alpha``, and the second embedding reproduces every
    entry of ``z_prime``.  Each check allows 1e-6: of ``alpha`` for the
    determinant, of the second framework's diameter for the distances.
    """
    report = check_assignment(inst, a, tol)
    if not report.passed:
        failure = report.first_failure()
        raise PreconditionError(
            f"assignment fails condition ({failure.key}) {failure.label}",
            report=report,
        )
    d = inst.d
    p = _coordinates(a.z, d)
    q = _coordinates(a.z_prime, d)
    base = report.base_simplex
    amap = affine_from_simplex([p.points[i] for i in base],
                               [q.points[i] for i in base])

    arr_q = q.as_array()
    dist = np.linalg.norm(arr_q[:, None, :] - arr_q[None, :, :], axis=2)
    scale = max(float(dist.max()), 1e-30)
    mapped = np.array([[float(x) for x in amap.apply_point(pt)] for pt in p.points])
    residual = float(np.max(np.linalg.norm(mapped - arr_q, axis=1)))
    if residual > 1e-6 * scale:
        raise ReconstructionError(
            f"mapped points miss their targets by {residual:.3e} "
            f"(diameter {scale:.3e}); the checker and the embedding "
            "tolerances are inconsistent for this input"
        )

    alpha_f = float(a.alpha)
    det_sq = float(amap.det()) ** 2
    if abs(det_sq - alpha_f) > 1e-6 * alpha_f:
        raise ReconstructionError(
            f"map determinant squared {det_sq} disagrees with alpha {alpha_f}"
        )

    demanded = np.sqrt(np.maximum(a.z_prime.as_array(), 0.0))
    gaps = np.abs(dist - demanded)
    i, j = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    if gaps[i, j] > 1e-6 * scale:
        raise ReconstructionError(
            f"vertices {min(i, j)} and {max(i, j)} of the second framework are "
            f"{dist[i, j]:.9e} apart but the distance data demands "
            f"{demanded[i, j]:.9e}"
        )
    return p, q, amap


def certificate_alpha(amap: AffineMap):
    """The determinant ratio realized by an affine map."""
    det = amap.det()
    return det * det if is_exact_value(det) else float(det) ** 2
