import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from affeq.cmdet import SquaredDistanceMatrix, cmd, menger_check
from affeq.errors import (
    InputError,
    NoBaseSimplexError,
    PreconditionError,
    RatioSignError,
)
from affeq.solver import random_instance
from affeq import cmdet, linalg, solver
from affeq.system import (
    CONDITION_KEYS,
    Assignment,
    Instance,
    Tolerances,
    _Family,
    _side_checks,
    check_assignment,
    estimate_alpha,
    find_base_simplex,
)

from helpers import (
    check_report_corpus,
    cofactor_det,
    exact_report_corpus,
    random_rational,
    squared_distance_rows,
)


def sdm(pairs, n, **kw):
    return SquaredDistanceMatrix.from_pairs(n, pairs, **kw)


def complete_instance_from_points(pts, pts_prime, d):
    """Instance with all pairs as edges, lengths read off two point sets."""
    n = len(pts)
    lengths = {}
    for i in range(n):
        for j in range(i + 1, n):
            a = math.dist([float(x) for x in pts[i]], [float(x) for x in pts[j]])
            b = math.dist(
                [float(x) for x in pts_prime[i]], [float(x) for x in pts_prime[j]]
            )
            lengths[(i, j)] = (a, b)
    return Instance.from_lengths(n, d, lengths)


K3 = Instance.from_lengths(3, 2, {(0, 1): (3, 6), (1, 2): (4, 8), (0, 2): (5, 10)})
Z_345 = sdm({(0, 1): 9, (1, 2): 16, (0, 2): 25}, 3)
Z_6810 = sdm({(0, 1): 36, (1, 2): 64, (0, 2): 100}, 3)
Z_124 = sdm({(0, 1): 1, (1, 2): 4, (0, 2): 16}, 3)

SQUARE_PTS = [(0, 0), (1, 0), (0, 1), (1, 1)]
SKEW_PTS = [(0, 0), (1, 0), (0, 1), (2, 2)]
Z_SQUARE = SquaredDistanceMatrix(squared_distance_rows(SQUARE_PTS))
Z_SKEW = SquaredDistanceMatrix(squared_distance_rows(SKEW_PTS))


class TestInstance:
    def test_canonical_edges(self):
        inst = Instance(3, 2, ((1, 0),), (2,), (3,))
        assert inst.edges == ((0, 1),)

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Instance(3, 2, ((1, 1),), (2,), (3,))

    def test_rejects_duplicate(self):
        with pytest.raises(InputError):
            Instance(3, 2, ((0, 1), (1, 0)), (2, 2), (3, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Instance(3, 2, ((0, 3),), (2,), (3,))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InputError):
            Instance(3, 2, ((0, 1),), (0,), (3,))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_non_finite_length(self, value, side):
        lengths = [(2.0,), (3.0,)]
        lengths[side] = (value,)
        with pytest.raises(InputError, match="finite"):
            Instance(3, 2, ((0, 1),), *lengths)

    def test_accepts_huge_exact_length(self):
        # math.isfinite(10**400) would overflow; an int is finite.
        assert Instance(3, 2, ((0, 1),), (10**400,), (3,)).exact

    def test_rejects_misaligned_lengths(self):
        with pytest.raises(InputError):
            Instance(3, 2, ((0, 1),), (2, 2), (3,))

    def test_exact_flag(self):
        assert K3.exact
        assert not Instance(2, 1, ((0, 1),), (1.5,), (2,)).exact
        assert Instance(2, 1, ((0, 1),), (Fraction(3, 2),), (2,)).exact

    def test_is_complete(self):
        assert K3.is_complete()
        assert not Instance(3, 2, ((0, 1),), (1,), (1,)).is_complete()

    def test_lam_sq(self):
        assert K3.lam_sq() == {(0, 1): 9, (1, 2): 16, (0, 2): 25}
        assert K3.lam_prime_sq() == {(0, 1): 36, (1, 2): 64, (0, 2): 100}


class TestAssignment:
    def test_size_mismatch(self):
        with pytest.raises(InputError):
            Assignment(Z_345, sdm({(0, 1): 1}, 2), 1)

    def test_alpha_positive(self):
        with pytest.raises(InputError):
            Assignment(Z_345, Z_345, 0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_alpha_finite(self, alpha):
        # an infinite alpha used to pass family 11 on a float K3
        with pytest.raises(InputError, match="finite"):
            Assignment(Z_345.scaled(1.0), Z_6810.scaled(1.0), alpha)

    def test_accepts_huge_exact_alpha(self):
        assert Assignment(Z_345, Z_6810, 10**400).exact

    def test_exact_flag(self):
        assert Assignment(Z_345, Z_6810, 16).exact
        assert not Assignment(Z_345, Z_6810, 16.0).exact


class TestSideChecks:
    def test_side_checks(self):
        assert _side_checks(4, (0, 1, 2)) == (
            (3, 0, (0, 1, 2, 3), (0, 3)),
            (3, 1, (0, 1, 2, 3), (1, 3)),
            (3, 2, (0, 1, 2, 3), (2, 3)),
        )


class TestFindBaseSimplex:
    def test_square_lex_first(self):
        base = find_base_simplex(Z_SQUARE, 2)
        assert base == (0, 1, 2)
        assert abs(cmd(Z_SQUARE, base)) == 4

    def test_all_coincident(self):
        zero = SquaredDistanceMatrix([[0] * 3 for _ in range(3)])
        with pytest.raises(NoBaseSimplexError):
            find_base_simplex(zero, 2)

    def test_collinear_in_plane(self):
        D = sdm({(0, 1): 1, (1, 2): 4, (0, 2): 9}, 3)
        with pytest.raises(NoBaseSimplexError):
            find_base_simplex(D, 2)

    def test_too_few_points(self):
        with pytest.raises(NoBaseSimplexError):
            find_base_simplex(sdm({(0, 1): 1}, 2), 2)

    def test_strict_keeps_tiny_exact_simplex(self):
        h = Fraction(1, 10**9)
        pts = [(0, 0), (1, 0), (2, h)]
        D = SquaredDistanceMatrix(squared_distance_rows(pts))
        assert find_base_simplex(D, 2) == (0, 1, 2)

    def test_picks_largest_margin(self):
        # vertex 3 far away: triangles through it dominate unless normalized
        pts = [(0, 0), (1, 0), (0, 1), (100, 100)]
        D = SquaredDistanceMatrix(squared_distance_rows(pts))
        assert find_base_simplex(D, 2) == (0, 1, 2)


class TestEstimateAlpha:
    def test_scaling_by_four(self):
        assert estimate_alpha(Z_345, Z_345.scaled(4), (0, 1, 2)) == 16

    def test_identity(self):
        assert estimate_alpha(Z_345, Z_345, (0, 1, 2)) == 1

    def test_345_vs_6810(self):
        alpha = estimate_alpha(Z_345, Z_6810, (0, 1, 2))
        assert alpha == Fraction(16)

    def test_float_inputs(self):
        zf = SquaredDistanceMatrix([[float(x) for x in r] for r in Z_345.z])
        zf2 = SquaredDistanceMatrix([[float(4 * x) for x in r] for r in Z_345.z])
        assert estimate_alpha(zf, zf2, (0, 1, 2)) == pytest.approx(16.0)

    def test_sign_flip_rejected(self):
        with pytest.raises(RatioSignError):
            estimate_alpha(Z_345, Z_124, (0, 1, 2))

    def test_degenerate_base_rejected(self):
        collinear = sdm({(0, 1): 1, (1, 2): 4, (0, 2): 9}, 3)
        with pytest.raises(PreconditionError):
            estimate_alpha(collinear, Z_345, (0, 1, 2))


class TestTolerances:
    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            Tolerances(rel_eps=0)

    @pytest.mark.parametrize("rel_eps", [math.inf, math.nan])
    def test_rejects_non_finite(self, rel_eps):
        with pytest.raises(InputError, match="finite"):
            Tolerances(rel_eps=rel_eps)


class TestCheckAssignmentPass:
    def test_k3_similar_exact(self):
        report = check_assignment(K3, Assignment(Z_345, Z_6810, 16))
        assert report.passed
        assert report.base_simplex == (0, 1, 2)
        assert all(e.passed for e in report.entries)
        assert [e.key for e in report.entries] == list(CONDITION_KEYS)

    def test_exact_planted_no_edges(self):
        # rational points, rational affine image; empty edge set isolates
        # the determinant conditions from pinning
        rng = np.random.default_rng(50)
        for d, matrix in ((2, ((2, 1), (1, 1))), (2, ((3, 1), (1, 2)))):
            pts = [
                tuple(random_rational(rng) for _ in range(d)) for _ in range(d + 3)
            ]
            shift = tuple(random_rational(rng) for _ in range(d))
            imgs = [
                tuple(
                    sum(matrix[a][b] * p[b] for b in range(d)) + shift[a]
                    for a in range(d)
                )
                for p in pts
            ]
            z = SquaredDistanceMatrix(squared_distance_rows(pts))
            zp = SquaredDistanceMatrix(squared_distance_rows(imgs))
            alpha = Fraction(cofactor_det([list(r) for r in matrix])) ** 2
            inst = Instance(len(pts), d, (), (), ())
            report = check_assignment(inst, Assignment(z, zp, alpha))
            assert report.passed, report.first_failure()

    def test_float_planted_complete(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d + 1, 8))
            pts = rng.normal(size=(n, d)) * 2.0
            while True:
                B = rng.normal(size=(d, d))
                if abs(np.linalg.det(B)) > 0.3:
                    break
            q = pts @ B.T + rng.normal(size=d)
            inst = complete_instance_from_points(pts, q, d)
            z = SquaredDistanceMatrix(squared_distance_rows([tuple(p) for p in pts]))
            zp = SquaredDistanceMatrix(squared_distance_rows([tuple(p) for p in q]))
            alpha = float(np.linalg.det(B)) ** 2
            report = check_assignment(inst, Assignment(z, zp, alpha))
            assert report.passed, (d, n, report.first_failure())

    def test_swap_symmetry_on_true_instance(self):
        report = check_assignment(
            K3, Assignment(Z_6810, Z_345, Fraction(1, 16)),
        )
        # swapped sides need swapped lengths
        swapped = Instance.from_lengths(
            3, 2, {(0, 1): (6, 3), (1, 2): (8, 4), (0, 2): (10, 5)}
        )
        report = check_assignment(swapped, Assignment(Z_6810, Z_345, Fraction(1, 16)))
        assert report.passed

    def test_tiny_exact_alpha_drift_fails(self):
        alpha = 16 * (1 + Fraction(1, 10**12))
        a = Assignment(Z_345, Z_6810, alpha)
        assert not check_assignment(K3, a).passed


class TestCheckAssignmentFail:
    def test_heron_sign_violation(self):
        inst = Instance.from_lengths(3, 2, {(0, 1): (3, 1), (1, 2): (4, 2), (0, 2): (5, 4)})
        report = check_assignment(inst, Assignment(Z_345, Z_124, 1))
        assert not report.passed
        entry = report.entry("8")
        assert not entry.passed
        assert entry.witness == {"matrix": "z_prime", "subset": [0, 1, 2]}
        assert entry.residual == Fraction(105)
        assert report.first_failure().key == "8"

    def test_wrong_alpha_exact(self):
        report = check_assignment(K3, Assignment(Z_345, Z_6810, 1))
        entry = report.entry("11")
        assert not entry.passed
        assert entry.witness["subset"] == [0, 1, 2]
        assert entry.witness["ratio"] == Fraction(16)
        assert entry.residual == Fraction(15)

    def test_doubled_alpha_ties_keep_first_witness(self):
        # every (d+1)-subset is off by the same factor two, so the family 11
        # magnitudes tie up to roundoff and the first subset must be reported
        for n, d in ((6, 2), (7, 3)):
            for seed in range(10):
                inst, cert = random_instance(seed, n, d, 0.5)
                a = cert.assignment
                report = check_assignment(inst, Assignment(a.z, a.z_prime, 2 * a.alpha))
                entry = report.entry("11")
                assert not entry.passed
                assert entry.witness["subset"] == list(range(inst.d + 1))

    def test_k4_ratio_mismatch(self):
        inst = complete_instance_from_points(SQUARE_PTS, SKEW_PTS, 2)
        report = check_assignment(inst, Assignment(Z_SQUARE, Z_SKEW, 1.0))
        assert report.base_simplex == (0, 1, 2)
        entry = report.entry("11")
        assert not entry.passed
        assert entry.witness["subset"] == [1, 2, 3]
        assert float(entry.witness["ratio"]) == pytest.approx(9.0, rel=1e-9)
        assert float(entry.residual) == pytest.approx(8.0, rel=1e-9)

    def test_negative_free_entry(self):
        inst = Instance.from_lengths(3, 2, {(0, 1): (3, 3), (1, 2): (4, 4)})
        z = sdm({(0, 1): 9, (1, 2): 16, (0, 2): -1}, 3, allow_negative=True)
        report = check_assignment(inst, Assignment(z, z, 1))
        entry = report.entry("6")
        assert not entry.passed
        assert entry.witness == {"matrix": "z", "pair": [0, 2]}
        assert entry.residual == 1

    def test_pinning_violation(self):
        z = sdm({(0, 1): 10, (1, 2): 16, (0, 2): 25}, 3)
        report = check_assignment(K3, Assignment(z, Z_6810, 16))
        entry = report.entry("7")
        assert not entry.passed
        assert entry.witness == {"matrix": "z", "edge": [0, 1]}
        assert entry.residual == 1

    def test_flatness_violation(self):
        # a genuine 3-simplex offered for d = 2
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        z = SquaredDistanceMatrix(squared_distance_rows(pts))
        inst = Instance(4, 2, (), (), ())
        report = check_assignment(inst, Assignment(z, z, 1))
        entry = report.entry("10")
        assert not entry.passed
        assert entry.witness["subset"] == [0, 1, 2, 3]

    def test_no_base_simplex(self):
        inst = Instance.from_lengths(3, 2, {(0, 1): (1, 1), (1, 2): (2, 2), (0, 2): (3, 3)})
        z = sdm({(0, 1): 1, (1, 2): 4, (0, 2): 9}, 3)
        report = check_assignment(inst, Assignment(z, z, 1))
        assert not report.passed
        assert not report.entry("9").passed
        assert report.base_simplex is None
        assert report.entry("11").passed
        assert report.entry("11").note == "not evaluated: no base simplex"

    def test_side_flip_detected(self):
        # kite over a 3-4-5 frame: moving the apex to its mirror image
        # preserves every triangle area (all ratios stay 1) yet flips the
        # side pattern, so only the side-classification family can object
        pts = [(0, 0), (4, 0), (0, 3), (4, 1)]
        flipped = [(0, 0), (4, 0), (0, 3), (4, -1)]
        z = SquaredDistanceMatrix(squared_distance_rows(pts))
        zp = SquaredDistanceMatrix(squared_distance_rows(flipped))
        inst = complete_instance_from_points(pts, flipped, 2)
        report = check_assignment(inst, Assignment(z, zp, 1.0))
        assert report.base_simplex == (0, 2, 3)
        for key in ("6", "7", "8", "9", "10", "11"):
            assert report.entry(key).passed, key
        entry = report.entry("12")
        assert not entry.passed
        assert entry.witness["vertex"] == 1
        assert entry.witness["subset"] == [0, 1, 2, 3]
        assert entry.witness["r"] in (0, 1)

    def test_side_flip_swap_symmetry(self):
        pts = [(0, 0), (4, 0), (0, 3), (4, 1)]
        flipped = [(0, 0), (4, 0), (0, 3), (4, -1)]
        z = SquaredDistanceMatrix(squared_distance_rows(pts))
        zp = SquaredDistanceMatrix(squared_distance_rows(flipped))
        inst = complete_instance_from_points(flipped, pts, 2)
        report = check_assignment(inst, Assignment(zp, z, 1.0))
        assert not report.entry("12").passed


class TestReportShape:
    def test_report_serializes(self):
        inst = Instance.from_lengths(3, 2, {(0, 1): (3, 1), (1, 2): (4, 2), (0, 2): (5, 4)})
        report = check_assignment(inst, Assignment(Z_345, Z_124, 1))
        doc = report.to_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["passed"] is False
        assert back["base_simplex"] == [0, 1, 2]
        assert [c["condition"] for c in back["conditions"]] == list(CONDITION_KEYS)
        eight = back["conditions"][2]
        assert eight["label"] == "subset sign rule"
        assert eight["residual"] == "105"

    def test_deterministic(self):
        inst = complete_instance_from_points(SQUARE_PTS, SKEW_PTS, 2)
        a = Assignment(Z_SQUARE, Z_SKEW, 1.0)
        first = check_assignment(inst, a).to_dict()
        second = check_assignment(inst, a).to_dict()
        assert first == second

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            check_assignment(K3, Assignment(Z_SQUARE, Z_SKEW, 1.0))


def _rounded(value, digits=12):
    """Floats to ``digits`` significant digits: the last bits of a LAPACK
    determinant depend on the BLAS build and the CPU it dispatches to."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _rounded(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v, digits) for v in value]
    return value


def pinned_report_json():
    """Report JSON of check_assignment over ``helpers.check_report_corpus``."""
    reports = []
    for n, d, lengths, z, zp, alpha in check_report_corpus():
        inst = Instance.from_lengths(n, d, lengths)
        a = Assignment(SquaredDistanceMatrix(z, allow_negative=True),
                       SquaredDistanceMatrix(zp, allow_negative=True), alpha)
        with np.errstate(invalid="ignore"):
            doc = check_assignment(inst, a).to_dict()
        reports.append(json.dumps(_rounded(doc), sort_keys=True))
    return "\n".join(reports)


# SHA-256 of pinned_report_json; any change to a family's verdict, witness
# or residual must show here.
def test_check_report_json_pinned():
    digest = hashlib.sha256(pinned_report_json().encode()).hexdigest()
    assert digest == (
        "7de0e6c6715a6df22ea2bd9028e70c6e4c674e012da2ddc29213ec77854d33f7")


def exact_report_json():
    """Exact reports over ``helpers.exact_report_corpus``: ``check_assignment``
    on every case, ``menger_check`` on both sides of every case at d-1, d
    and d+1, and ``solver._pinned_scan`` on each case's instance and on
    copies with one second-side length times 9/10, 3 and 1001/1000.  The two
    sides have different denominators, so every ratio and residual crosses
    two powers of them."""
    rng = np.random.default_rng(4)
    tol = Tolerances()
    lines = []
    for d, p, _, _, cases in exact_report_corpus():
        n = len(p)
        for label, lengths, z, zp, alpha in cases:
            inst = Instance.from_lengths(n, d, lengths)
            sides = [SquaredDistanceMatrix(rows, allow_negative=True) for rows in (z, zp)]
            lines.append(json.dumps([label, check_assignment(
                inst, Assignment(*sides, alpha), tol).to_dict()], sort_keys=True))
            for D in sides:
                lines += [json.dumps(_rounded(dataclasses.asdict(menger_check(D, dim))))
                          for dim in (d - 1, d, d + 1) if dim >= 1]
            edges = sorted(lengths)
            for factor in (1, Fraction(9, 10), 3, Fraction(1001, 1000)):
                k = int(rng.integers(len(edges))) if edges else None
                table = {e: (a, b * factor if t == k else b)
                         for t, (e, (a, b)) in enumerate(sorted(lengths.items()))}
                verdict = solver._pinned_scan(Instance.from_lengths(n, d, table),
                                              None, tol, None)
                lines.append(json.dumps(verdict and verdict.to_dict(), sort_keys=True))
    return "\n".join(lines)


# SHA-256 of exact_report_json; exact reports must not depend on how
# determinants are represented on the way.
def test_exact_report_json_pinned():
    digest = hashlib.sha256(exact_report_json().encode()).hexdigest()
    assert digest == (
        "cc1f155b715a999a20c9feac4ec795b3d9979a18672c815de782f55f0cc7557f")


def test_family_scan_keeps_the_first_witness_within_the_tie_band():
    # The scan replaces its witness only beyond (1 + tie) times the worst so
    # far, so it keeps "c"; the first violation within the band of the
    # largest one would be "b".
    tie = 1e-3
    fam = _Family("8", tie)
    for magnitude, witness in [(1.0, "a"), (1 + 0.6 * tie, "b"), (1 + 1.2 * tie, "c")]:
        fam.fail(magnitude, witness, magnitude)
    assert fam.witness == "c" and fam.worst == 1 + 1.2 * tie
    assert 1 + 0.6 * tie >= (1 + 1.2 * tie) * (1 - tie)


def test_float_length_instance_decides_a_rational_assignment_in_floats(monkeypatch):
    # The integer unit square, with and without its diagonal (0, 3) as an
    # edge of float length sqrt(2): the float length makes the rescaling
    # factor a float, so the integer assignment is evaluated in floats.
    # Every exact elimination runs through bareiss_stack, bound in linalg
    # for determinants and in cmdet for cofactor minors.
    calls, bareiss_stack = [], linalg.bareiss_stack

    def counted(stack):
        calls.append(stack)
        return bareiss_stack(stack)

    for module in (linalg, cmdet):
        monkeypatch.setattr(module, "bareiss_stack", counted)
    sides = {(0, 1): (1, 1), (0, 2): (1, 1), (1, 3): (1, 1), (2, 3): (1, 1)}
    square = Assignment(Z_SQUARE, Z_SQUARE, 1)
    diagonal = Instance.from_lengths(4, 2, {**sides, (0, 3): (math.sqrt(2), math.sqrt(2))})
    assert square.exact and not diagonal.exact
    assert check_assignment(diagonal, square).passed
    assert calls == []
    assert check_assignment(Instance.from_lengths(4, 2, sides), square).passed
    assert len(calls) > 0
