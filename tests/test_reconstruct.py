import importlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from affeq.cmdet import SquaredDistanceMatrix
from affeq.embedding import (
    ConditioningWarning,
    Configuration,
    _coordinates,
    distances_of,
    embed,
)
from affeq.errors import InputError, PreconditionError, ReconstructionError
from affeq.linalg import bareiss_det
from affeq.reconstruct import (
    AffineMap,
    affine_from_simplex,
    certificate_alpha,
    reconstruct,
    verify_problem1,
)
from affeq.solver import random_instance
from affeq.system import Assignment, Instance, check_assignment

from helpers import loop_coordinates, squared_distance_rows

from test_system import K3, Z_345, Z_6810, complete_instance_from_points


class TestAffineMap:
    def test_apply_point(self):
        m = AffineMap(((2, 0), (0, 2)), (1, -1))
        assert m.apply_point((3, 4)) == (7, 7)

    def test_identity(self):
        m = AffineMap.identity(3)
        assert m.apply_point((1, 2, 3)) == (1, 2, 3)
        assert m.det() == 1

    def test_det_exact(self):
        m = AffineMap(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))), (0, 0))
        assert m.det() == Fraction(1)
        assert m.exact

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            AffineMap(((1, 0),), (0, 0))
        m = AffineMap.identity(2)
        with pytest.raises(InputError):
            m.apply_point((1, 2, 3))

    def test_apply_configuration(self):
        m = AffineMap(((1, 1), (0, 1)), (0, 0))
        c = Configuration(2, [(0, 0), (1, 0), (0, 1)])
        assert m.apply(c).points == ((0, 0), (1, 0), (1, 1))

    def test_certificate_alpha(self):
        m = AffineMap(((2, 0), (0, 2)), (0, 0))
        assert certificate_alpha(m) == 16


class TestAffineFromSimplex:
    def test_pure_scaling(self):
        m = affine_from_simplex(
            [(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 0), (0, 2)]
        )
        assert m.matrix == ((2, 0), (0, 2))
        assert m.shift == (0, 0)

    def test_identity(self):
        pts = [(0, 0), (1, 0), (0, 1)]
        m = affine_from_simplex(pts, pts)
        assert m.matrix == ((1, 0), (0, 1))
        assert m.shift == (0, 0)

    def test_shear_columns(self):
        m = affine_from_simplex(
            [(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 0), (1, 1)]
        )
        assert m.matrix == ((2, 1), (0, 1))
        assert m.det() == 2

    def test_exact_round_trip(self):
        src = [(0, 0), (Fraction(1, 3), 0), (1, Fraction(5, 2))]
        dst = [(1, 2), (4, Fraction(1, 2)), (0, 0)]
        m = affine_from_simplex(src, dst)
        assert m.exact
        for s, t in zip(src, dst):
            assert m.apply_point(s) == t
        inv = affine_from_simplex(dst, src)
        for s in src:
            assert inv.apply_point(m.apply_point(s)) == s

    def test_float_matches_planted(self):
        rng = np.random.default_rng(60)
        for d in (1, 2, 3, 4):
            B = rng.normal(size=(d, d)) + np.eye(d)
            if abs(np.linalg.det(B)) < 0.2:
                continue
            b = rng.normal(size=d)
            src = rng.normal(size=(d + 1, d))
            dst = src @ B.T + b
            m = affine_from_simplex(
                [tuple(p) for p in src], [tuple(p) for p in dst]
            )
            assert np.asarray(m.matrix) == pytest.approx(B, rel=1e-9, abs=1e-9)
            assert np.asarray(m.shift) == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_exact_matches_planted(self):
        rng = np.random.default_rng(61)

        def rational():
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))

        for d in (1, 2, 3, 4):
            B = [[rational() for _ in range(d)] for _ in range(d)]
            while bareiss_det(B) == 0:
                B = [[rational() for _ in range(d)] for _ in range(d)]
            b = [rational() for _ in range(d)]
            src = [[rational() for _ in range(d)] for _ in range(d + 1)]
            while bareiss_det([[x - y for x, y in zip(p, src[0])]
                               for p in src[1:]]) == 0:
                src = [[rational() for _ in range(d)] for _ in range(d + 1)]
            dst = [[sum(B[i][k] * p[k] for k in range(d)) + b[i] for i in range(d)]
                   for p in src]
            m = affine_from_simplex(src, dst)
            assert all(isinstance(x, Fraction) for row in m.matrix for x in row)
            assert all(isinstance(x, Fraction) for x in m.shift)
            assert m.matrix == tuple(map(tuple, B))
            assert m.shift == tuple(b)

    def test_degenerate_source(self):
        with pytest.raises(InputError):
            affine_from_simplex(
                [(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 0), (0, 1)]
            )

    def test_degenerate_exact_source_in_three_dimensions(self):
        # the fourth point lies in the plane of the first three
        src = [(0, 0, 0), (1, 0, Fraction(1, 2)), (0, 2, 1), (1, 2, Fraction(3, 2))]
        dst = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        with pytest.raises(InputError, match="source simplex is degenerate"):
            affine_from_simplex(src, dst)

    def test_wrong_count(self):
        with pytest.raises(InputError):
            affine_from_simplex([(0, 0), (1, 0)], [(0, 0), (1, 0)])


class TestVerifyProblem1:
    def shear_pair(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        amap = AffineMap(((1, 1), (0, 1)), (0, 0))
        p = Configuration(2, pts)
        q = amap.apply(p)
        inst = complete_instance_from_points(pts, q.points, 2)
        return inst, p, q, amap

    def test_shear_passes(self):
        inst, p, q, amap = self.shear_pair()
        report = verify_problem1(inst, p, q, amap)
        assert report.passed
        assert report.map_residual <= 1e-12
        assert report.full_hull

    def test_tampered_edge_fails(self):
        inst, p, q, amap = self.shear_pair()
        lam = list(inst.lam)
        lam[0] += 0.5
        bad = Instance(inst.n, inst.d, inst.edges, tuple(lam), inst.lam_prime)
        report = verify_problem1(bad, p, q, amap)
        assert not report.passed
        assert report.edge_residual > report.tolerance
        assert report.witness_edge == inst.edges[0]

    def test_wrong_map_fails(self):
        inst, p, q, _ = self.shear_pair()
        report = verify_problem1(inst, p, q, AffineMap.identity(2))
        assert not report.passed
        assert report.map_residual > report.tolerance
        assert report.witness_vertex is not None

    def test_collinear_fails_hull(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        p = Configuration(2, pts)
        inst = Instance(3, 2, (), (), ())
        report = verify_problem1(inst, p, p, AffineMap.identity(2))
        assert not report.passed
        assert not report.full_hull

    @pytest.mark.parametrize("tol", [0, -1.0, math.inf, math.nan])
    def test_rejects_tolerance_outside_the_open_range(self, tol):
        inst, p, q, amap = self.shear_pair()
        with pytest.raises(InputError, match="positive and finite"):
            verify_problem1(inst, p, q, amap, tol)

    def test_report_serializes(self):
        inst, p, q, amap = self.shear_pair()
        doc = verify_problem1(inst, p, q, amap).to_dict()
        assert doc["passed"] is True
        assert set(doc) == {
            "passed",
            "edge_residual",
            "edge_residual_prime",
            "map_residual",
            "full_hull",
            "tolerance",
            "witness_edge",
            "witness_edge_prime",
            "witness_vertex",
        }


class TestReconstruct:
    def test_345_similarity(self):
        p, q, amap = reconstruct(K3, Assignment(Z_345, Z_6810, 16))
        assert float(amap.det()) ** 2 == pytest.approx(16.0, rel=1e-9)
        report = verify_problem1(K3, p, q, amap)
        assert report.passed

    def test_identity_assignment_square(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        z = SquaredDistanceMatrix(squared_distance_rows(pts))
        inst = complete_instance_from_points(pts, pts, 2)
        p, q, amap = reconstruct(inst, Assignment(z, z, 1))
        assert _max_gap(amap.apply(p), q) <= 1e-9
        assert float(amap.det()) ** 2 == pytest.approx(1.0, rel=1e-9)

    def test_checker_failure_rejected(self):
        with pytest.raises(PreconditionError):
            reconstruct(K3, Assignment(Z_345, Z_6810, 1))

    def test_planted_affine_pairs(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d + 1, 8))
            pts = rng.normal(size=(n, d)) * 2.0
            while True:
                B = rng.normal(size=(d, d))
                if abs(np.linalg.det(B)) > 0.3:
                    break
            imgs = pts @ B.T + rng.normal(size=d)
            inst = complete_instance_from_points(pts, imgs, d)
            z = SquaredDistanceMatrix(squared_distance_rows([tuple(r) for r in pts]))
            zp = SquaredDistanceMatrix(squared_distance_rows([tuple(r) for r in imgs]))
            alpha = float(np.linalg.det(B)) ** 2
            p, q, amap = reconstruct(inst, Assignment(z, zp, alpha))
            report = verify_problem1(inst, p, q, amap)
            assert report.passed, (d, n, report.to_dict())
            assert float(amap.det()) ** 2 == pytest.approx(alpha, rel=1e-6)

    def test_mirror_pair_reconstructs(self):
        # the second configuration is a reflection: determinant -1, alpha 1
        pts = [(0.0, 0.0), (2.0, 0.0), (0.5, 1.5), (1.0, -1.0)]
        mirror = [(x, -y) for x, y in pts]
        z = SquaredDistanceMatrix(squared_distance_rows(pts))
        zp = SquaredDistanceMatrix(squared_distance_rows(mirror))
        inst = complete_instance_from_points(pts, mirror, 2)
        p, q, amap = reconstruct(inst, Assignment(z, zp, 1.0))
        assert _max_gap(amap.apply(p), q) <= 1e-9 * max(q.diameter(), 1.0)
        report = verify_problem1(inst, p, q, amap)
        assert report.passed


class TestReconstructFailures:
    """Embeddings that disagree with the distance data are rejected.

    The coordinate step is replaced by one returning tampered frameworks;
    vertex j lies outside the base simplex, so the map is still fitted
    exactly.
    """

    def tampered(self, monkeypatch, tamper):
        inst, planted = random_instance(0, 6, 2, 1.0)
        a = planted.assignment
        base = check_assignment(inst, a).base_simplex
        j = next(v for v in range(inst.n) if v not in base)
        p, q = embed(a.z, inst.d), embed(a.z_prime, inst.d)
        B = np.asarray(affine_from_simplex([p.points[i] for i in base],
                                           [q.points[i] for i in base]).matrix)
        e = np.full(inst.d, 0.1 * q.diameter())
        p_arr, q_arr = tamper(p.as_array(), q.as_array(), j, e, B)
        frameworks = {id(a.z): Configuration.from_array(p_arr),
                      id(a.z_prime): Configuration.from_array(q_arr)}
        monkeypatch.setattr(importlib.import_module("affeq.reconstruct"), "_coordinates",
                            lambda D, d, **kw: frameworks[id(D)])
        return inst, a

    def test_moved_target_misses_the_map(self, monkeypatch):
        def tamper(p, q, j, e, B):
            q[j] += e
            return p, q

        inst, a = self.tampered(monkeypatch, tamper)
        with pytest.raises(ReconstructionError, match="miss their targets"):
            reconstruct(inst, a)

    def test_consistent_move_misses_the_distances(self, monkeypatch):
        def tamper(p, q, j, e, B):
            p[j] += e
            q[j] += B @ e
            return p, q

        inst, a = self.tampered(monkeypatch, tamper)
        with pytest.raises(ReconstructionError, match="distance data demands"):
            reconstruct(inst, a)


def test_coordinate_step_matches_the_loop_reference():
    # Nearly flat and flat point sets reach the Cholesky fallback, which
    # reconstruct can meet once the checker has passed; h = 0 in d = 1 puts
    # every point at the origin.
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        for n in range(d + 1, d + 7):
            for h in (1.0, 1e-6, 1e-10, 0.0):
                pts = rng.normal(size=(n, d)) * np.r_[np.ones(d - 1), h]
                D = SquaredDistanceMatrix(squared_distance_rows(pts.tolist()))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ConditioningWarning)
                    got = _coordinates(D, d).as_array()
                np.testing.assert_array_equal(got, loop_coordinates(D, d))


def _max_gap(a: Configuration, b: Configuration) -> float:
    return float(
        np.max(np.linalg.norm(a.as_array() - b.as_array(), axis=1))
    )
