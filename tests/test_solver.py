import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from affeq.embedding import Configuration
from affeq.errors import InputError
from affeq.linalg import det_gradient
from affeq.reconstruct import verify_problem1
from affeq.solver import (
    NO,
    UNKNOWN,
    YES,
    Certificate,
    SearchBudget,
    Verdict,
    line_oracle,
    numeric_search,
    random_instance,
    solve,
)
from affeq.system import Instance, check_assignment

from test_system import K3, SKEW_PTS, SQUARE_PTS, complete_instance_from_points

BAD_K3 = Instance.from_lengths(3, 2, {(0, 1): (3, 1), (1, 2): (4, 2), (0, 2): (5, 4)})
K4_PAIR = complete_instance_from_points(SQUARE_PTS, SKEW_PTS, 2)
PATH_2X = Instance.from_lengths(3, 1, {(0, 1): (3, 6), (1, 2): (4, 8)})
TRIANGLE_D1 = Instance.from_lengths(3, 1, {(0, 1): (1, 1), (1, 2): (1, 1), (0, 2): (1, 1)})
PATH_MISMATCH = Instance.from_lengths(3, 1, {(0, 1): (3, 6), (1, 2): (4, 7)})
# No triangle, so only enumeration can see that 3.5 exceeds 1+1+1.
CYCLE_OPEN = Instance.from_lengths(
    4, 1, {(0, 1): (1, 2), (1, 2): (1, 2), (2, 3): (1, 2), (0, 3): (Fraction(7, 2), 7)})
CYCLE_CLOSED = Instance.from_lengths(
    4, 1, {(0, 1): (1, 2), (1, 2): (1, 2), (2, 3): (1, 2), (0, 3): (3, 6)})
# Infeasible in any dimension, yet it has no fully pinned subset of size >= 3.
LONG_CYCLE = Instance.from_lengths(
    4, 2, {(0, 1): (1, 1), (1, 2): (1, 1), (2, 3): (1, 1), (0, 3): (10, 10)})


def certificate_is_valid(inst, cert):
    report = check_assignment(inst, cert.assignment)
    ver = verify_problem1(inst, cert.p, cert.p_prime, cert.amap)
    return report.passed and ver.passed


class TestSearchBudget:
    def test_defaults(self):
        b = SearchBudget()
        assert b.restarts == 40 and b.iterations == 300 and b.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0}, {"iterations": 0}, {"seed": -1}, {"target": 0.0},
        {"restarts": 2.5},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InputError):
            SearchBudget(**kwargs)


class TestVerdictTypes:
    def test_yes_requires_certificate(self):
        with pytest.raises(InputError):
            Verdict(YES)

    def test_no_requires_witness(self):
        with pytest.raises(InputError):
            Verdict(NO)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            Verdict("MAYBE")

    def test_unknown_needs_nothing(self):
        v = Verdict(UNKNOWN, diagnostics={"best_residual": 1.0})
        assert v.to_dict()["verdict"] == UNKNOWN
        assert v.to_dict()["certificate"] is None

    def test_certificate_to_dict_stringifies_exact_values(self):
        cert = solve(K3).certificate
        doc = cert.to_dict()
        assert doc["alpha"] == "16"
        assert set(doc) == {"alpha", "points", "points_prime", "map", "z", "z_prime"}
        assert len(doc["points"]) == 3 and len(doc["points"][0]) == 2


class TestSolveComplete:
    def test_similar_triangles_yes(self):
        v = solve(K3)
        assert v.kind == YES
        assert v.diagnostics["stage"] == "complete"
        assert v.certificate.alpha == Fraction(16)
        assert certificate_is_valid(K3, v.certificate)

    def test_map_determinant_matches_alpha(self):
        cert = solve(K3).certificate
        assert float(cert.amap.det()) ** 2 == pytest.approx(16.0, rel=1e-9)

    def test_impossible_second_triangle_no(self):
        v = solve(BAD_K3)
        assert v.kind == NO
        assert v.witness.source == "complete-pinned"
        failure = v.witness.report.first_failure()
        assert failure.key == "8"
        assert failure.witness["matrix"] == "z_prime"
        assert failure.residual == Fraction(105)

    def test_square_vs_skew_ratio_no(self):
        v = solve(K4_PAIR)
        assert v.kind == NO
        failure = v.witness.report.first_failure()
        assert failure.key == "11"
        assert failure.witness["subset"] == [1, 2, 3]
        assert float(failure.witness["ratio"]) == pytest.approx(9.0, rel=1e-6)
        assert float(failure.witness["expected_alpha"]) == pytest.approx(1.0, rel=1e-6)

    def test_collinear_complete_no_base(self):
        inst = Instance.from_lengths(
            3, 2, {(0, 1): (1, 1), (1, 2): (1, 1), (0, 2): (2, 2)})
        v = solve(inst)
        assert v.kind == NO
        assert v.witness.report.first_failure().key == "9"

    @pytest.mark.parametrize("d", [2, 3])
    def test_complete_instance_scaled_down_yes(self, d):
        inst, _ = random_instance(0, 10, d, 1.0)
        small = Instance(inst.n, d, inst.edges, tuple(v * 1e-4 for v in inst.lam),
                         tuple(v * 1e-4 for v in inst.lam_prime))
        v = solve(small)
        assert v.kind == YES
        assert v.diagnostics["stage"] == "complete"
        assert certificate_is_valid(small, v.certificate)

    def test_complete_float_planted_yes(self):
        inst, planted = random_instance(9, 5, 2, 1.0)
        v = solve(inst)
        assert v.kind == YES
        assert v.diagnostics["stage"] == "complete"
        assert float(v.certificate.alpha) == pytest.approx(float(planted.alpha), rel=1e-9)


class TestStructural:
    def test_too_few_vertices_no(self):
        inst = Instance.from_lengths(2, 2, {(0, 1): (1, 1)})
        v = solve(inst)
        assert v.kind == NO
        assert v.witness.source == "structure"
        assert v.witness.report.first_failure().key == "9"

    def test_no_edges_is_trivially_yes(self):
        v = solve(Instance(4, 2, (), (), ()))
        assert v.kind == YES
        assert v.certificate.alpha == 1
        assert certificate_is_valid(Instance(4, 2, (), (), ()), v.certificate)

    def test_solve_rejects_non_instance(self):
        with pytest.raises(InputError):
            solve("nope")

    def test_solve_rejects_non_budget(self):
        with pytest.raises(InputError):
            solve(K3, budget=7)


class TestPinnedScan:
    def test_incompatible_triangle_ratios_without_completeness(self):
        # Square vs skew with edge (2,3) removed: the two surviving pinned
        # triangles demand ratios 1 and 4, so no single alpha can work.
        lengths = {}
        for i in range(4):
            for j in range(i + 1, 4):
                if (i, j) == (2, 3):
                    continue
                lengths[(i, j)] = (math.dist(SQUARE_PTS[i], SQUARE_PTS[j]),
                                   math.dist(SKEW_PTS[i], SKEW_PTS[j]))
        inst = Instance.from_lengths(4, 2, lengths)
        assert not inst.is_complete()
        v = solve(inst)
        assert v.kind == NO
        assert v.witness.source == "pinned-subsystem"
        failure = v.witness.report.first_failure()
        assert failure.key == "11"
        ratios = sorted([float(failure.witness["ratio"]),
                         float(failure.witness["other_ratio"])])
        assert ratios == pytest.approx([1.0, 4.0], rel=1e-9)

    def test_sign_rule_violation_in_clique(self):
        # Pendant vertex keeps the graph incomplete; the pinned triangle on
        # the second side has lengths (1,2,4), which violate the triangle
        # inequality.
        inst = Instance.from_lengths(4, 2, {
            (0, 1): (3, 1), (1, 2): (4, 2), (0, 2): (5, 4), (0, 3): (1, 1)})
        v = solve(inst)
        assert v.kind == NO
        failure = v.witness.report.first_failure()
        assert failure.key == "8"
        assert failure.witness == {"matrix": "z_prime", "subset": [0, 1, 2]}
        assert failure.residual == Fraction(105)

    def test_flatness_violation_in_clique(self):
        # Equilateral triangle pinned in dimension 1, plus an isolated vertex.
        inst = Instance.from_lengths(4, 1, {
            (0, 1): (1, 1), (1, 2): (1, 1), (0, 2): (1, 1)})
        v = solve(inst)
        assert v.kind == NO
        failure = v.witness.report.first_failure()
        assert failure.key == "10"
        assert failure.witness["subset"] == [0, 1, 2]
        # Float lengths: a regular tetrahedron pinned in the plane, with a
        # pendant edge keeping the graph incomplete.
        lengths = {pair: (1.0, 1.0) for pair in itertools.combinations(range(4), 2)}
        lengths[(3, 4)] = (1.0, 1.0)
        v = solve(Instance.from_lengths(5, 2, lengths))
        assert v.kind == NO
        assert v.witness.source == "pinned-subsystem"
        failure = v.witness.report.first_failure()
        assert failure.key == "10"
        assert failure.witness == {"matrix": "z", "subset": [0, 1, 2, 3]}
        assert type(failure.residual) is float

    def test_one_sided_degenerate_subset(self):
        # One pinned triangle that is collinear on the first side but has
        # positive area on the second: the ratio condition cannot hold.
        inst = Instance.from_lengths(4, 2, {
            (0, 1): (1, 1), (1, 2): (1, 1), (0, 2): (2, 1), (0, 3): (1, 1)})
        v = solve(inst)
        assert v.kind == NO
        failure = v.witness.report.first_failure()
        assert failure.key == "11"
        assert failure.witness["matrix"] == "z"
        assert failure.witness["subset"] == [0, 1, 2]


class TestLineOracle:
    def test_doubled_path_yes(self):
        v = line_oracle(PATH_2X)
        assert v.kind == YES
        assert v.diagnostics["stage"] == "line-oracle"
        assert v.certificate.alpha == Fraction(4)
        xs = [p[0] for p in v.certificate.p.points]
        assert xs == [0, 3, 7]
        assert [p[0] for p in v.certificate.p_prime.points] == [0, 6, 14]
        assert certificate_is_valid(PATH_2X, v.certificate)

    def test_equilateral_triangle_no(self):
        v = line_oracle(TRIANGLE_D1)
        assert v.kind == NO
        assert v.witness.source == "pinned-subsystem"
        assert v.witness.report.first_failure().key == "10"

    def test_ratio_mismatch_no(self):
        v = line_oracle(PATH_MISMATCH)
        assert v.kind == NO
        failure = v.witness.report.first_failure()
        assert failure.key == "11"
        ratios = sorted([failure.witness["ratio"], failure.witness["other_ratio"]])
        assert ratios == [Fraction(49, 16), Fraction(4)]

    def test_open_cycle_no_by_enumeration(self):
        v = line_oracle(CYCLE_OPEN)
        assert v.kind == NO
        assert v.witness.source == "line-oracle"
        failure = v.witness.report.first_failure()
        assert failure.key == "10"
        assert failure.witness["component"] == [0, 1, 2, 3]
        assert failure.residual == Fraction(1, 2)

    def test_closed_cycle_yes(self):
        v = line_oracle(CYCLE_CLOSED)
        assert v.kind == YES
        xs = [p[0] for p in v.certificate.p.points]
        assert sorted(xs) == [0, 1, 2, 3]
        assert certificate_is_valid(CYCLE_CLOSED, v.certificate)

    def test_disconnected_consistent_components_yes(self):
        inst = Instance.from_lengths(4, 1, {(0, 1): (1, 2), (2, 3): (5, 10)})
        v = line_oracle(inst)
        assert v.kind == YES
        assert v.certificate.alpha == Fraction(4)

    def test_disconnected_inconsistent_ratio_no(self):
        inst = Instance.from_lengths(4, 1, {(0, 1): (1, 2), (2, 3): (1, 3)})
        v = line_oracle(inst)
        assert v.kind == NO
        assert v.witness.report.first_failure().key == "11"

    def test_no_edges_yes(self):
        v = line_oracle(Instance(3, 1, (), (), ()))
        assert v.kind == YES
        xs = [p[0] for p in v.certificate.p.points]
        assert xs == [0, 1, 2]

    def test_single_vertex_no(self):
        v = line_oracle(Instance(1, 1, (), (), ()))
        assert v.kind == NO
        assert v.witness.source == "structure"

    def test_rejects_higher_dimension(self):
        with pytest.raises(InputError):
            line_oracle(K3)

    def test_float_planted_line_instance(self):
        inst, planted = random_instance(2, 6, 1, 0.7)
        v = line_oracle(inst)
        assert v.kind == YES
        assert certificate_is_valid(inst, v.certificate)

    def test_solve_routes_line_instances_to_the_oracle(self):
        v = solve(PATH_2X)
        assert v.kind == YES
        assert v.diagnostics["stage"] == "line-oracle"
        assert v.certificate.alpha == Fraction(4)


class TestNumericSearch:
    def test_planted_instances_recovered(self):
        for seed in range(12):
            d = 1 + seed % 3
            n = d + 2 + seed % 3
            inst, planted = random_instance(seed, n, d, 0.4)
            v = solve(inst)
            assert v.kind == YES, (seed, n, d, v.diagnostics)
            assert certificate_is_valid(inst, v.certificate)

    def test_deterministic_output(self):
        inst, _ = random_instance(11, 6, 2, 0.4)
        a = solve(inst)
        b = solve(inst)
        assert a.kind == b.kind == YES
        assert a.certificate.p.points == b.certificate.p.points
        assert a.certificate.amap.matrix == b.certificate.amap.matrix

    def test_unknown_when_search_fails(self):
        v = solve(LONG_CYCLE, SearchBudget(restarts=6))
        assert v.kind == UNKNOWN
        assert v.diagnostics["stage"] == "numeric"
        assert v.diagnostics["restarts_used"] == 6
        assert v.diagnostics["best_residual"] > 1e-3

    def test_numeric_search_reports_diagnostics(self):
        cert, diag = numeric_search(LONG_CYCLE, SearchBudget(restarts=2))
        assert cert is None
        assert diag["restarts_used"] == 2
        assert diag["best_residual"] > 1e-3

    def test_numeric_search_finds_planted(self):
        inst, _ = random_instance(4, 5, 2, 0.5)
        cert, diag = numeric_search(inst)
        assert cert is not None
        assert certificate_is_valid(inst, cert)
        assert diag["best_residual"] <= 1e-8

    def test_fixed_left_reuses_the_given_frame(self):
        inst, planted = random_instance(3, 5, 2, 0.6)
        v = solve(inst, fixed_left=planted.p)
        assert v.kind == YES
        assert v.certificate.p.points == planted.p.points
        assert certificate_is_valid(inst, v.certificate)

    def test_fixed_left_length_mismatch_rejected(self):
        inst, planted = random_instance(3, 5, 2, 0.6)
        wrong = Configuration.from_array(np.zeros((5, 2)) + np.arange(5)[:, None])
        with pytest.raises(InputError):
            solve(inst, fixed_left=wrong)

    def test_fixed_left_degenerate_frame_no(self):
        inst = Instance.from_lengths(3, 2, {(0, 1): (1, 1)})
        flat = Configuration(2, [(0, 0), (1, 0), (2, 0)])
        v = solve(inst, fixed_left=flat)
        assert v.kind == NO
        assert v.witness.source == "fixed-left"
        assert v.witness.report.first_failure().key == "9"

    def test_det_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(3, 3))
        grad = det_gradient(B)
        h = 1e-6
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = h
                num = (np.linalg.det(B + E) - np.linalg.det(B - E)) / (2 * h)
                assert grad[i, j] == pytest.approx(num, rel=1e-6, abs=1e-9)


class TestRandomInstance:
    def test_deterministic(self):
        a_inst, a_cert = random_instance(5, 6, 2, 0.5)
        b_inst, b_cert = random_instance(5, 6, 2, 0.5)
        assert a_inst == b_inst
        assert a_cert.p.points == b_cert.p.points

    def test_planted_certificate_passes(self):
        for seed in range(6):
            inst, cert = random_instance(seed, 6, 3, 0.5)
            assert certificate_is_valid(inst, cert)

    def test_contains_spanning_tree(self):
        inst, _ = random_instance(8, 7, 2, 0.0)
        assert len(inst.edges) == 6
        parent = list(range(7))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in inst.edges:
            parent[find(i)] = find(j)
        assert len({find(i) for i in range(7)}) == 1

    def test_density_one_is_complete(self):
        inst, _ = random_instance(1, 5, 2, 1.0)
        assert inst.is_complete()

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            random_instance(0, 2, 2)
        with pytest.raises(InputError):
            random_instance(0, 5, 2, 1.5)
        with pytest.raises(InputError):
            random_instance(0, 5, 0)


def test_import_loads_no_scipy():
    code = (
        "import affeq, sys\n"
        "def loaded(): return any(m.startswith('scipy') for m in sys.modules)\n"
        "assert not loaded()\n"
        "v = affeq.solve(affeq.random_instance(0, 6, 2, 1.0)[0])\n"
        "assert v.diagnostics['stage'] == 'complete' and not loaded()\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)))
