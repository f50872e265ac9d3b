"""Affine maps between frameworks and certificate verification.

Once an assignment has passed the feasibility checker, both squared-distance
matrices are embeddable and the two embeddings are related by an invertible
affine map.  This module builds that map from a base-simplex correspondence,
repairs the reflection ambiguity left open by the embedding gauge, and
verifies the four defining properties of an equivalent framework pair:
matching edge lengths on both sides, pointwise agreement under the map, and
a full-dimensional affine hull.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from .cmdet import SquaredDistanceMatrix, cmd, simplex_volume_sq
from .embedding import Configuration, distances_of, embed
from .errors import InputError, PreconditionError, ReconstructionError
from .linalg import det_any, is_exact_value, solve_exact
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
        try:
            # solve E^T B^T = F^T row by row
            rows_t = [solve_exact(_transpose(E), col) for col in F]
        except ValueError as exc:
            raise InputError(f"source simplex is degenerate: {exc}") from exc
        B = tuple(tuple(row) for row in rows_t)
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


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def verify_problem1(inst: Instance, p: Configuration, p_prime: Configuration,
                    amap: AffineMap, tol: float = 1e-6) -> Problem1Report:
    """Check both edge-length prescriptions, the map residual and the hull.

    Length and map residuals are reported relative to the diameter of the
    relevant configuration, so ``tol`` is a dimensionless bound.
    """
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


def reconstruct(inst: Instance, a: Assignment, tol: Tolerances = Tolerances(),
                decisions: str = "auto"):
    """Build configurations and the affine map realizing a checked assignment.

    Embeds both matrices, maps the base simplex of the first embedding onto
    the corresponding points of the second, and if the residual is large
    retries with the second embedding reflected (the embedding gauge fixes
    coordinates only up to an isometry, which includes a reflection).  The
    winning map must place every vertex within 1e-6 of the corresponding
    point, relative to the diameter.
    """
    report = check_assignment(inst, a, tol, decisions)
    if not report.passed:
        failure = report.first_failure()
        raise PreconditionError(
            f"assignment fails condition ({failure.key}) {failure.label}",
            report=report,
        )
    d = inst.d
    p = embed(a.z, d, rel_eps=tol.rel_eps)
    p_prime = embed(a.z_prime, d, rel_eps=tol.rel_eps)
    base = report.base_simplex

    src = [p.points[i] for i in base]
    candidates = []
    for flip in (False, True):
        q = _reflect_first_axis(p_prime) if flip else p_prime
        dst = [q.points[i] for i in base]
        amap = affine_from_simplex(src, dst)
        residual = _map_residual(p, q, amap)
        candidates.append((residual, flip, q, amap))
    residual, flip, q, amap = min(candidates, key=lambda item: item[0])

    scale_prime = max(q.diameter(), 1e-30)
    if residual > 1e-6 * scale_prime:
        raise ReconstructionError(
            f"mapped points miss their targets by {residual:.3e} "
            f"(diameter {scale_prime:.3e}); the checker and the embedding "
            "tolerances are inconsistent for this input"
        )

    alpha_f = float(a.alpha)
    det_sq = float(amap.det()) ** 2
    if abs(det_sq - alpha_f) > 1e-6 * alpha_f:
        raise ReconstructionError(
            f"map determinant squared {det_sq} disagrees with alpha {alpha_f}"
        )

    _assert_heights(a, base, d, p, q, amap)
    return p, q, amap


def _reflect_first_axis(c: Configuration) -> Configuration:
    pts = [(-pt[0],) + tuple(pt[1:]) for pt in c.points]
    return Configuration(c.dim, pts)


def _map_residual(p: Configuration, q: Configuration, amap: AffineMap) -> float:
    mapped = np.array([[float(x) for x in amap.apply_point(pt)] for pt in p.points])
    return float(np.max(np.linalg.norm(mapped - q.as_array(), axis=1)))


def _assert_heights(a: Assignment, base, d, p: Configuration, q: Configuration,
                    amap: AffineMap):
    """Cross-check mapped points against face heights from the distance data.

    The distance from a vertex to the hyperplane through a face of the base
    simplex is determined by squared distances alone: a simplex of d+1
    points has volume vol_{d-1}(face) * height / d, so the height is
    d * vol_d / vol_{d-1}.  Every mapped vertex must sit at exactly that
    distance from the corresponding face hyperplane of the second
    embedding; a mismatch means the embeddings and the map disagree.
    """
    arr_q = q.as_array()
    scale = max(q.diameter(), 1e-30)
    for j in range(a.z.n):
        if j in base:
            continue
        x = np.array([float(v) for v in amap.apply_point(p.points[j])])
        for i_r in base:
            face = tuple(i for i in base if i != i_r)
            if d == 1:
                face_vol_sq = 1.0  # a single point has unit 0-volume
            else:
                face_vol_sq = float(simplex_volume_sq(a.z_prime, face))
            if face_vol_sq <= 0:
                continue
            joint = tuple(sorted(face + (j,)))
            joint_vol_sq = max(float(simplex_volume_sq(a.z_prime, joint)), 0.0)
            expected = d * np.sqrt(joint_vol_sq) / np.sqrt(face_vol_sq)
            anchor = arr_q[face[0]]
            w = x - anchor
            if d == 1:
                dist = abs(float(w[0]))
            else:
                E = (arr_q[list(face[1:])] - anchor).T
                coeffs, *_ = np.linalg.lstsq(E, w, rcond=None)
                dist = float(np.linalg.norm(w - E @ coeffs))
            if abs(dist - expected) > 1e-6 * scale:
                raise ReconstructionError(
                    f"vertex {j} sits {dist:.9e} from face {face} of the base "
                    f"simplex but the distance data demands {expected:.9e}"
                )


def certificate_alpha(amap: AffineMap):
    """The determinant ratio realized by an affine map."""
    det = amap.det()
    return det * det if is_exact_value(det) else float(det) ** 2
