from fractions import Fraction
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np
import pytest

from affeq.cmdet import (
    EmbeddabilityReport,
    Side,
    SquaredDistanceMatrix,
    _defects,
    _evaluate,
    _Rule,
    _linear_forms,
    _scales,
    _subset_max,
    _subsets,
    cmd,
    menger_check,
    quadratic_slice,
    side_classify,
    simplex_volume_sq,
    subset_scale,
)
from affeq.errors import InputError, PreconditionError

from helpers import (
    cmd_oracle,
    gram_volume_sq,
    random_rational_sdm_rows,
    signed_side,
    squared_distance_rows,
)


def sdm(pairs, n, **kw):
    return SquaredDistanceMatrix.from_pairs(n, pairs, **kw)


TRIANGLE_345 = sdm({(0, 1): 9, (1, 2): 16, (0, 2): 25}, 3)
TRIANGLE_345_F = sdm({(0, 1): 9.0, (1, 2): 16.0, (0, 2): 25.0}, 3)


class TestMatrixValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            SquaredDistanceMatrix([[0, 1], [1, 0], [1, 1]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            SquaredDistanceMatrix([[1, 1], [1, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            SquaredDistanceMatrix([[0, 1], [2, 0]])

    def test_rejects_negative_by_default(self):
        with pytest.raises(InputError):
            SquaredDistanceMatrix([[0, -1], [-1, 0]])

    def test_negative_allowed_when_checking(self):
        m = SquaredDistanceMatrix([[0, -1], [-1, 0]], allow_negative=True)
        assert m.entry(0, 1) == -1

    def test_exact_flag(self):
        assert TRIANGLE_345.exact
        assert not TRIANGLE_345_F.exact

    def test_scaled_by_a_fraction_equals_the_matrix_of_the_multiplied_rows(self):
        rng = np.random.default_rng(31)
        int_rows = squared_distance_rows([(0, 0), (3, 1), (1, 4), (5, 2)])
        for rows in (random_rational_sdm_rows(rng, 5), int_rows):
            D = SquaredDistanceMatrix(rows)
            for factor in (Fraction(3, 7), Fraction(-5, 2), Fraction(1, 10**400),
                           Fraction(10**20, 3), Fraction(0)):
                got = D.scaled(factor)
                want = SquaredDistanceMatrix([[x * factor for x in row] for row in rows],
                                             allow_negative=True)
                assert got == want and hash(got) == hash(want)
                assert got.exact and want.exact
                n = len(rows)
                for i, j in combinations(range(n), 2):
                    for a, b in ((i, j), (j, i), (i, i)):
                        assert type(got.entry(a, b)) is type(want.entry(a, b))
                        assert got.entry(a, b) == want.entry(a, b)
                assert got.as_array().tobytes() == want.as_array().tobytes()
                assert not got.as_array().flags.writeable
                assert cmd(got, range(n)) == cmd(want, range(n))

    def test_equal_matrices_hash_equal(self):
        a = SquaredDistanceMatrix([[0, 9, 25], [9, 0, 16], [25, 16, 0]])
        b = SquaredDistanceMatrix.from_pairs(3, {(0, 1): 9, (1, 2): 16, (0, 2): 25})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, TRIANGLE_345}) == 1


class TestCmd:
    def test_single_point(self):
        assert cmd(TRIANGLE_345, [0]) == -1

    def test_two_points(self):
        assert cmd(sdm({(0, 1): 9}, 2), [0, 1]) == 18

    def test_triangle_345_exact(self):
        assert cmd(TRIANGLE_345, [0, 1, 2]) == -576
        assert isinstance(cmd(TRIANGLE_345, [0, 1, 2]), Fraction)

    def test_triangle_345_float(self):
        assert cmd(TRIANGLE_345_F, [0, 1, 2]) == pytest.approx(-576.0)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            z = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(z)
            size = int(rng.integers(1, n + 1))
            I = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            assert cmd(D, I) == cmd_oracle(z, I)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        z = random_rational_sdm_rows(rng, 5)
        D = SquaredDistanceMatrix(z)
        base = cmd(D, (0, 1, 2, 3))
        for perm in permutations((0, 1, 2, 3)):
            assert cmd(D, perm) == base

    def test_homogeneity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(z)
            s = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
            I = tuple(range(n))
            assert cmd(D.scaled(s), I) == s ** (len(I) - 1) * cmd(D, I)

    def test_two_point_identity_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            z = random_rational_sdm_rows(rng, 4)
            D = SquaredDistanceMatrix(z)
            i, j = sorted(rng.choice(4, size=2, replace=False).tolist())
            assert cmd(D, (i, j)) == 2 * z[i][j]

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            cmd(TRIANGLE_345, [])
        with pytest.raises(InputError):
            cmd(TRIANGLE_345, [0, 0])
        with pytest.raises(InputError):
            cmd(TRIANGLE_345, [0, 5])


class TestSimplexVolume:
    def test_segment(self):
        assert simplex_volume_sq(sdm({(0, 1): 9}, 2), [0, 1]) == 9

    def test_triangle_345(self):
        assert simplex_volume_sq(TRIANGLE_345, [0, 1, 2]) == 36

    def test_collinear_triple(self):
        D = sdm({(0, 1): 1, (1, 2): 4, (0, 2): 9}, 3)
        assert simplex_volume_sq(D, [0, 1, 2]) == 0

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, d + 1))
            pts = rng.normal(size=(k + 1, d))
            z = squared_distance_rows([tuple(p) for p in pts])
            got = simplex_volume_sq(SquaredDistanceMatrix(z), range(k + 1))
            want = gram_volume_sq(pts)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_requires_two_vertices(self):
        with pytest.raises(InputError):
            simplex_volume_sq(TRIANGLE_345, [0])


class TestMengerCheck:
    def test_triangle_plane(self):
        report = menger_check(TRIANGLE_345, 2)
        assert report.passes
        assert report.first_failed_condition == "none"

    def test_triangle_line_fails_flatness(self):
        report = menger_check(TRIANGLE_345, 1)
        assert not report.passes
        assert report.first_failed_condition == "iv"
        assert report.witness_subset == (0, 1, 2)
        assert report.residual == 576

    def test_two_points_plane_fails_count(self):
        report = menger_check(sdm({(0, 1): 9}, 2), 2)
        assert not report.passes
        assert report.first_failed_condition == "i"

    def test_sign_violation(self):
        D = sdm({(0, 1): 1, (1, 2): 4, (0, 2): 16}, 3)
        report = menger_check(D, 2)
        assert not report.passes
        assert report.first_failed_condition == "ii"
        assert report.witness_subset == (0, 1, 2)
        assert report.residual == 105

    def test_degenerate_hull_fails_rank(self):
        # three collinear points cannot affinely span the plane
        D = sdm({(0, 1): 1, (1, 2): 4, (0, 2): 9}, 3)
        report = menger_check(D, 2)
        assert not report.passes
        assert report.first_failed_condition == "iii"

    def test_random_configurations_pass(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(d + 1, 9))
            pts = rng.normal(size=(n, d))
            z = squared_distance_rows([tuple(p) for p in pts])
            assert menger_check(SquaredDistanceMatrix(z), d).passes

    def test_report_invariant(self):
        report = EmbeddabilityReport(True, "none", None, 0.0)
        assert report.passes == (report.first_failed_condition == "none")


class TestQuadraticSlice:
    def test_line_slice_example(self):
        D = sdm({(0, 1): 9, (1, 2): 16}, 3)
        sl = quadratic_slice(D, (0, 1, 2), (0, 2))
        assert (sl.U, sl.V, sl.W) == (1, -50, 49)

    def test_line_slice_float(self):
        D = sdm({(0, 1): 9.0, (1, 2): 16.0}, 3)
        sl = quadratic_slice(D, (0, 1, 2), (0, 2))
        assert sl.U == pytest.approx(1.0)
        assert sl.V == pytest.approx(-50.0)
        assert sl.W == pytest.approx(49.0)

    def test_u_equals_minus_face_determinant(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(3, 6))
            z = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(z)
            I = tuple(range(n))
            r, s = sorted(rng.choice(n, size=2, replace=False).tolist())
            delta = tuple(i for i in I if i not in (r, s))
            sl = quadratic_slice(D, I, (r, s))
            assert sl.U == -cmd(D, delta)

    def test_consistency_with_direct_evaluation(self):
        sl = quadratic_slice(TRIANGLE_345, (0, 1, 2), (0, 2))
        assert sl.evaluate(25) == -576

    def test_interpolation_matches_cmd_random(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            z = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(z)
            I = tuple(range(n))
            r, s = sorted(rng.choice(n, size=2, replace=False).tolist())
            sl = quadratic_slice(D, I, (r, s))
            t = random_rational_sdm_rows(rng, 2)[0][1]
            znew = [list(row) for row in z]
            znew[r][s] = znew[s][r] = t
            assert sl.evaluate(t) == cmd(SquaredDistanceMatrix(znew), I)
        # proper subsets of a larger matrix, the pair anywhere inside them
        for _ in range(40):
            n = int(rng.integers(4, 8))
            z = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(z)
            I = tuple(sorted(rng.choice(n, size=int(rng.integers(2, n)), replace=False).tolist()))
            r, s = sorted(rng.choice(I, size=2, replace=False).tolist())
            sl = quadratic_slice(D, I, (r, s))
            t = random_rational_sdm_rows(rng, 2)[0][1]
            znew = [list(row) for row in z]
            znew[r][s] = znew[s][r] = t
            assert sl.evaluate(t) == cmd(SquaredDistanceMatrix(znew), I)

    def test_interpolation_matches_cmd_random_float(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            pts = rng.normal(size=(n, n - 2)) * 3.0
            z = squared_distance_rows([tuple(p) for p in pts])
            D = SquaredDistanceMatrix(z)
            I = tuple(range(n))
            r, s = sorted(rng.choice(n, size=2, replace=False).tolist())
            sl = quadratic_slice(D, I, (r, s))
            t = float(rng.uniform(0.0, 10.0))
            znew = [list(row) for row in z]
            znew[r][s] = znew[s][r] = t
            direct = cmd(SquaredDistanceMatrix(znew), I)
            scale = subset_scale(D, I)
            assert abs(sl.evaluate(t) - direct) <= 1e-10 * max(scale, abs(direct))
        # proper subsets of a larger matrix, the pair anywhere inside them
        for _ in range(40):
            n = int(rng.integers(4, 8))
            pts = rng.normal(size=(n, 3)) * 3.0
            z = squared_distance_rows([tuple(p) for p in pts])
            D = SquaredDistanceMatrix(z)
            I = tuple(sorted(rng.choice(n, size=int(rng.integers(3, n)), replace=False).tolist()))
            r, s = sorted(rng.choice(I, size=2, replace=False).tolist())
            sl = quadratic_slice(D, I, (r, s))
            t = float(rng.uniform(0.0, 10.0))
            znew = [list(row) for row in z]
            znew[r][s] = znew[s][r] = t
            direct = cmd(SquaredDistanceMatrix(znew), I)
            scale = subset_scale(D, I)
            assert abs(sl.evaluate(t) - direct) <= 1e-10 * max(scale, abs(direct))

    def test_bad_pairs(self):
        with pytest.raises(InputError):
            quadratic_slice(TRIANGLE_345, (0, 1, 2), (0, 0))
        with pytest.raises(InputError):
            quadratic_slice(TRIANGLE_345, (0, 1), (0, 2))


def pair_derivative(z, index_set, pair):
    """Exact derivative of the bordered determinant in ``z[pair]``: it is a
    quadratic in that entry, so the central difference of step 1 is exact."""
    r, s = pair
    values = []
    for step in (1, -1):
        znew = [list(row) for row in z]
        znew[r][s] = znew[s][r] = z[r][s] + step
        values.append(cmd_oracle(znew, index_set))
    return Fraction(values[0] - values[1], 2)


class TestExactEdgeSizes:
    """The exact branches on subsets whose determinant has degree zero or
    less in the entries: |I|-1 for a subset, |I|-2 for a pair's minor."""

    Z = [[0, Fraction(3, 4), 5, Fraction(7, 6)],
         [Fraction(3, 4), 0, Fraction(2, 5), 9],
         [5, Fraction(2, 5), 0, Fraction(1, 3)],
         [Fraction(7, 6), 9, Fraction(1, 3), 0]]

    # The lcm of the entries' denominators 4, 6, 5 and 3.
    L = 60

    def test_evaluate(self):
        # Int numerators over the shared power L**(|I|-1).
        D = SquaredDistanceMatrix(self.Z)
        for size in (0, 1, 2, 3):
            subsets = list(combinations(range(4), size))
            dets, _, power = _evaluate(D, subsets)
            assert power == self.L ** max(size - 1, 0)
            assert all(type(det) is int for det in dets.tolist())
            assert ([Fraction(det, power) for det in dets.tolist()]
                    == [cmd_oracle(self.Z, I) for I in subsets])

    def test_linear_forms(self):
        # Int numerators over the shared power L**(|I|-2).
        D = SquaredDistanceMatrix(self.Z)
        for size in (2, 3):
            subsets = list(combinations(range(4), size))
            pairs = [I[-2:] for I in subsets]
            forms, power = _linear_forms(D, subsets, pairs)
            assert power == self.L ** (size - 2)
            assert all(type(form) is int for form in forms.tolist())
            assert ([Fraction(form, power) for form in forms.tolist()]
                    == [pair_derivative(self.Z, I, p) for I, p in zip(subsets, pairs)])

    def test_quadratic_slice_of_a_pair(self):
        # The face of a 2-subset is empty, so U is the empty set's determinant.
        D = SquaredDistanceMatrix(self.Z)
        for pair in combinations(range(4), 2):
            sl = quadratic_slice(D, pair, pair)
            assert (sl.U, sl.V, sl.W) == (0, 2, 0)
            assert sl.evaluate(self.Z[pair[0]][pair[1]]) == cmd(D, pair)

    def test_large_numpy_integer_entries(self):
        rng = np.random.default_rng(23)
        n = 6
        big = np.zeros((n, n), dtype=np.int64)
        for i, j in combinations(range(n), 2):
            big[i, j] = big[j, i] = 2**40 + int(rng.integers(0, 2**30))
        D64 = SquaredDistanceMatrix(big)
        z = big.tolist()
        assert D64.exact
        for size in range(1, n + 1):
            subsets = list(combinations(range(n), size))
            dets, _, power = _evaluate(D64, subsets)
            assert power == 1
            assert all(type(det) is int for det in dets.tolist())
            assert dets.tolist() == [cmd_oracle(z, I) for I in subsets]
            if size >= 2:
                pairs = [I[:2] for I in subsets]
                forms, power = _linear_forms(D64, subsets, pairs)
                assert power == 1
                assert all(type(form) is int for form in forms.tolist())
                assert forms.tolist() == [pair_derivative(z, I, p)
                                          for I, p in zip(subsets, pairs)]
        full = tuple(range(n))
        assert cmd(D64, full) == cmd_oracle(big.tolist(), full)
        assert abs(cmd(D64, full)) > 2**63


class TestSideClassify:
    def line_sdm(self, t):
        return sdm({(0, 1): 9, (1, 2): 16, (0, 2): t}, 3)

    def test_same_side_on_line(self):
        assert side_classify(self.line_sdm(1), (0, 1, 2), (0, 2), 1) is Side.SAME_SIDE

    def test_opposite_side_on_line(self):
        assert side_classify(self.line_sdm(49), (0, 1, 2), (0, 2), 1) is Side.OPPOSITE_SIDE

    def test_on_hyperplane_collinear_plane(self):
        pts = [(0, 0), (1, 0), (2, 0), (3, 0)]
        D = SquaredDistanceMatrix(squared_distance_rows(pts))
        assert side_classify(D, (0, 1, 2, 3), (2, 3), 2) is Side.ON_HYPERPLANE

    def test_requires_flat_subset(self):
        with pytest.raises(PreconditionError):
            side_classify(self.line_sdm(30), (0, 1, 2), (0, 2), 1)

    def test_requires_nondegenerate_face(self):
        pts = [(0, 0), (1, 0), (1, 0), (2, 0)]  # degenerate face {1, 2}
        D = SquaredDistanceMatrix(squared_distance_rows(pts))
        with pytest.raises(PreconditionError):
            side_classify(D, (0, 1, 2, 3), (0, 3), 2)

    def test_u_sign_for_nondegenerate_face(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            pts = rng.normal(size=(d + 2, d))
            D = SquaredDistanceMatrix(squared_distance_rows([tuple(p) for p in pts]))
            sl = quadratic_slice(D, tuple(range(d + 2)), (0, d + 1))
            assert (-1) ** (d - 1) * sl.U > 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_coordinate_oracle(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(150):
            pts = rng.normal(size=(d + 2, d)) * 2.0
            face = pts[1:d + 1]
            if trial % 3 == 0:
                # force the second pair point onto the face hyperplane
                w = rng.normal(size=d)
                w /= w.sum() if abs(w.sum()) > 1e-3 else 1.0
                pts[d + 1] = (w[:, None] * face).sum(axis=0)
            D = SquaredDistanceMatrix(squared_distance_rows([tuple(p) for p in pts]))
            prod = signed_side(face, pts[0]) * signed_side(face, pts[d + 1])
            scale = max(1.0, D.max_over(range(d + 2))) ** d
            if abs(prod) < 1e-9 * scale and prod != 0.0:
                continue  # too close to call for the oracle itself
            got = side_classify(D, tuple(range(d + 2)), (0, d + 1), d)
            if prod > 0:
                assert got is Side.SAME_SIDE
            elif prod < 0:
                assert got is Side.OPPOSITE_SIDE
            else:
                assert got is Side.ON_HYPERPLANE


class TestRuleSigns:
    """``_Rule.signs`` is ``_Rule.sign`` element by element."""

    EPS = 1e-9

    def edge_values(self, scale):
        at = self.EPS * scale
        return [0.0, -0.0, at, -at, np.nextafter(at, np.inf), np.nextafter(at, 0.0),
                -np.nextafter(at, np.inf), -np.nextafter(at, 0.0), 1.0, -1.0,
                np.inf, -np.inf, np.nan, 5e-324, -5e-324]

    def scalar(self, rule, values, scales, eps=None):
        if np.ndim(scales) == 0:
            scales = [scales] * len(values)
        return [rule.sign(v, s, eps) for v, s in zip(values, scales)]

    @pytest.mark.parametrize("scale", [1.0, 3.7, 1e-300, 1e300, 0.0, np.inf])
    def test_tolerant_matches_sign(self, scale):
        rule = _Rule(False, self.EPS)
        values = self.edge_values(scale)
        got = rule.signs(values, scale)
        assert got.tolist() == self.scalar(rule, values, scale)
        assert got[2] == 0  # exactly eps * scale counts as zero

    def test_tolerant_per_element_scales_and_eps(self):
        rule = _Rule(False, self.EPS)
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(size=40) * 1e-8, [np.nan, np.inf, -np.inf]])
        scales = np.abs(rng.normal(size=len(values))) * 10
        for eps in (None, 1e-9, 1e-6, 1.0):
            assert (rule.signs(values, scales, eps).tolist()
                    == self.scalar(rule, values.tolist(), scales.tolist(), eps))

    def test_tolerant_on_fractions(self):
        rule = _Rule(False, self.EPS)
        values = [Fraction(1, 10**9), Fraction(-1, 10**9), Fraction(1, 10**8),
                  Fraction(-3, 7), Fraction(0), Fraction(10**400, 3**800)]
        scales = [1.0, 1.0, 1.0, 1e9, 2.0, 1.0]
        assert rule.signs(values, scales).tolist() == self.scalar(rule, values, scales)

    def test_nan_is_negative_under_a_tolerant_rule(self):
        rule = _Rule(False)
        assert rule.sign(float("nan")) == -1
        assert rule.signs([float("nan")], 1.0).tolist() == [-1]

    def test_exact_gives_true_signs(self):
        rule = _Rule(True, self.EPS)
        values = [Fraction(0), Fraction(1, 10**30), Fraction(-1, 10**30), 0, 7, -7,
                  10**40, -(10**40), Fraction(-5, 3)]
        expected = [0, 1, -1, 0, 1, -1, 1, -1, -1]
        for scales in (1.0, [1e30] * len(values)):
            got = rule.signs(values, scales)
            assert got.tolist() == self.scalar(rule, values, scales) == expected
            assert rule.signs(np.asarray(values, dtype=object), scales).tolist() == expected

    def test_empty(self):
        assert _Rule(False).signs([], 1.0).tolist() == []
        assert _Rule(True).signs([], np.empty(0)).tolist() == []


class TestSubsets:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_combinations(self, n):
        for size in range(n + 2):
            idx = _subsets(n, size)
            assert idx.dtype == np.intp
            assert idx.shape == (len(list(combinations(range(n), size))), size)
            assert [tuple(row) for row in idx.tolist()] == list(combinations(range(n), size))
            assert not idx.flags.writeable
        assert _subsets(n, n + 1).shape == (0, n + 1)

    def test_read_only_and_shared(self):
        idx = _subsets(5, 3)
        with pytest.raises(ValueError):
            idx[0, 0] = 4
        assert _subsets(5, 3) is idx


class TestScales:
    def test_bitwise_equal_to_per_subset_pow(self):
        # The matrix is read only through as_array, so a stand-in carries the
        # NaN entries a SquaredDistanceMatrix would reject as asymmetric.
        rng = np.random.default_rng(5)
        n = 9
        pool = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e60, 3.0, -3.0]
        for trial in range(6):
            m = rng.choice([*pool, *rng.lognormal(0.0, 4.0, size=12)], size=(n, n))
            if trial == 0:
                m = rng.lognormal(0.0, 4.0, size=(n, n))
            m = np.triu(m, 1) + np.triu(m, 1).T
            stand_in = SimpleNamespace(as_array=lambda m=m: m)
            for size in range(1, 7):
                idx = _subsets(n, size)
                want = np.array([v ** (size - 1) if v != 0.0 else 1.0
                                 for v in _subset_max(stand_in, idx).tolist()])
                got = _scales(stand_in, idx)
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes()

    def test_empty(self):
        got = _scales(TRIANGLE_345_F, np.empty((0, 3), dtype=np.intp))
        assert got.dtype == np.float64 and got.shape == (0,)


class TestDefects:
    """``_defects`` is the scalar sign test, subset by subset: the legal
    sign ``(-1)**size`` up to d+1 points, flatness on d+2 points."""

    D = 2

    def scalar(self, rule, size, values, scales):
        if size == self.D + 2:
            return [rule.sign(v, s) != 0 for v, s in zip(values, scales)]
        return [rule.sign((-1) ** size * v, s) < 0 for v, s in zip(values, scales)]

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_floats(self, size):
        rule = _Rule(False, 1e-9)
        values = [0.0, -0.0, 1.0, -1.0, 1e-10, -1e-10, np.inf, -np.inf, np.nan, 2e-9, -2e-9]
        scales = [1.0] * 6 + [np.inf, 1.0, 1.0, 1.0, 1.0]
        got = _defects(rule, self.D, size, np.array(values), np.array(scales))
        assert got.tolist() == self.scalar(rule, size, values, scales)

    def test_nan_fails_at_odd_and_even_sizes(self):
        rule = _Rule(False)
        for size in (2, 3, 4):
            assert _defects(rule, self.D, size, [np.nan], [1.0]).tolist() == [True]

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_exact_fractions(self, size):
        rule = _Rule(True)
        values = [Fraction(0), Fraction(1, 10**30), Fraction(-1, 10**30), Fraction(-5, 3), 7]
        scales = [1.0] * len(values)
        for dets in (values, np.asarray(values, dtype=object)):
            got = _defects(rule, self.D, size, dets, scales)
            assert got.tolist() == self.scalar(rule, size, values, scales)

    def test_empty(self):
        for size in (2, 3, 4):
            assert _defects(_Rule(True), self.D, size, [], np.empty(0)).tolist() == []
