import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from affeq import solver
from affeq.cmdet import SquaredDistanceMatrix, menger_check
from affeq.embedding import Configuration, ConditioningWarning, embed
from affeq.errors import EmbeddabilityError, InputError
from affeq.reconstruct import verify_problem1
from affeq.solver import (
    DET_BARRIER,
    NO,
    UNKNOWN,
    YES,
    Certificate,
    SearchBudget,
    Verdict,
    least_squares,
    line_oracle,
    numeric_search,
    random_instance,
    solve,
)
from affeq.system import Instance, Tolerances, check_assignment

from helpers import loop_jacobian, squared_distance_rows
from test_acceptance import _random_line_instance
from test_system import K3, SKEW_PTS, SQUARE_PTS, _rounded, complete_instance_from_points

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


COMPLETE_YES = [
    K3,
    # the unit square and its image under (x, y) -> (2x + y, y + 1)
    complete_instance_from_points(SQUARE_PTS, [(0, 1), (2, 1), (1, 2), (3, 2)], 2),
    *(random_instance(seed, 6, 2, 1.0)[0] for seed in range(3)),
]


def flattened_square(h):
    """A quadrilateral and its image under diag(1, h), as a complete instance."""
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.3)]
    return complete_instance_from_points(pts, [(x, h * y) for x, y in pts], 2)


def certificate_is_valid(inst, cert):
    report = check_assignment(inst, cert.assignment)
    ver = verify_problem1(inst, cert.p, cert.p_prime, cert.amap)
    return report.passed and ver.passed


class TestSearchBudget:
    def test_defaults(self):
        b = SearchBudget()
        assert b.restarts == 40 and b.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0}, {"restarts": -1}, {"seed": -1}, {"seed": 0.5},
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

    def test_verdicts_hash(self):
        inst, _ = random_instance(0, 6, 2, 1.0)
        lam_prime = (inst.lam_prime[0] * 1.3,) + inst.lam_prime[1:]
        twin = Instance(inst.n, inst.d, inst.edges, inst.lam, lam_prime)
        yes, no = solve(inst), solve(twin)
        assert yes.kind == YES
        assert no.kind == NO and no.witness.source == "complete-pinned"
        assert any(e.witness is not None for e in no.witness.report.entries)
        assert hash(yes) == hash(solve(inst))
        assert hash(no) == hash(solve(twin))


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

    def test_flattened_square_yes(self):
        # The checker passes both sides, while menger_check on z_prime alone
        # finds no spanning triangle: its margins are about h**2 = 1e-10 of
        # their scale, below rel_eps.  The checker's verdict is the one
        # reconstructed, and the certificate verifies.
        inst = flattened_square(1e-5)
        with pytest.warns(ConditioningWarning):
            v = solve(inst)
        assert v.kind == YES and v.diagnostics["stage"] == "complete"
        assert certificate_is_valid(inst, v.certificate)
        assert not menger_check(v.certificate.assignment.z_prime, 2).passes

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fixed_left_without_edges(self, d):
        # no residual rows at all: the first restart's start is accepted
        inst = Instance.from_lengths(d + 2, d, {})
        v = solve(inst, fixed_left=Configuration.from_array(np.eye(d + 2, d)))
        assert v.kind == YES
        assert v.diagnostics["restarts_used"] == 1
        assert certificate_is_valid(inst, v.certificate)


def search_functions(monkeypatch, inst, fixed_left=None):
    """The residual and Jacobian functions ``numeric_search`` hands to least
    squares, with the size of its unknown vector."""
    seen = {}

    def capture(fun, x0, jac, **kwargs):
        seen.update(fun=fun, jac=jac, size=x0.size)
        return SimpleNamespace(x=np.full_like(x0, np.nan))

    monkeypatch.setattr(solver, "least_squares", capture)
    numeric_search(inst, SearchBudget(restarts=1), fixed_left=fixed_left)
    return seen["fun"], seen["jac"], seen["size"]


def search_cases():
    """(instance, fixed_left) pairs for d = 1-3, free and fixed_left modes,
    with an edgeless fixed_left instance per dimension."""
    for d in (1, 2, 3):
        for seed in range(3):
            inst, planted = random_instance(seed, d + 2 + seed, d, 0.5)
            yield inst, None
            yield inst, planted.p
        empty = Instance.from_lengths(d + 2, d, {})
        yield empty, Configuration.from_array(np.eye(d + 2, d))


def search_theta(rng, size, d, singular):
    """Random unknowns whose map block has |det| = DET_BARRIER / 2 when
    ``singular``, and at least 1/8 otherwise."""
    theta = rng.normal(size=size)
    U, _, Vt = np.linalg.svd(rng.normal(size=(d, d)))
    s = np.ones(d) if singular else rng.uniform(0.5, 2.0, size=d)
    if singular:
        s[-1] = 0.5 * DET_BARRIER
    theta[size - d * d:] = ((U * s) @ Vt).ravel()
    return theta


class TestSearchJacobian:
    @pytest.mark.parametrize("singular", [False, True])
    def test_matches_central_differences(self, monkeypatch, singular):
        rng = np.random.default_rng(31)
        h = 1e-6
        for inst, fixed_left in search_cases():
            fun, jac, size = search_functions(monkeypatch, inst, fixed_left)
            theta = search_theta(rng, size, inst.d, singular)
            J = jac(theta)
            num = np.empty_like(J)
            for col in range(size):
                step = np.zeros(size)
                step[col] = h
                num[:, col] = (fun(theta + step) - fun(theta - step)) / (2 * h)
            np.testing.assert_allclose(J, num, rtol=1e-6, atol=1e-6)

    def test_bitwise_equal_to_edge_loop(self, monkeypatch):
        rng = np.random.default_rng(32)
        for inst, fixed_left in search_cases():
            _, jac, size = search_functions(monkeypatch, inst, fixed_left)
            ii = np.asarray([e[0] for e in inst.edges], dtype=int)
            jj = np.asarray([e[1] for e in inst.edges], dtype=int)
            fixed = None
            if fixed_left is not None:
                lam = np.asarray([float(v) for v in inst.lam])
                fixed = fixed_left.as_array() / (float(lam.max()) if len(lam) else 1.0)
            for trial in range(20):
                theta = search_theta(rng, size, inst.d, singular=trial % 4 == 0)
                expected = loop_jacobian(theta, ii, jj, inst.n, inst.d, fixed)
                assert np.array_equal(jac(theta), expected)


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


def pinned_verdict_json():
    """Verdict JSON over exact instances, whose reports and certificates hold
    no value from a float kernel: the line-oracle cases, the exact complete
    NO cases (a complete YES is embedded in floats), and the exact instances
    of the acceptance line suite."""
    line = [PATH_2X, TRIANGLE_D1, PATH_MISMATCH, CYCLE_OPEN, CYCLE_CLOSED,
            Instance.from_lengths(4, 1, {(0, 1): (1, 2), (2, 3): (5, 10)}),
            Instance.from_lengths(4, 1, {(0, 1): (1, 2), (2, 3): (1, 3)}),
            Instance(3, 1, (), (), ()), Instance(1, 1, (), (), ())]
    line += [inst for inst in map(_random_line_instance, range(40)) if inst.exact]
    complete = [BAD_K3, TRIANGLE_D1, Instance.from_lengths(
        3, 2, {(0, 1): (1, 1), (1, 2): (1, 1), (0, 2): (2, 2)})]
    verdicts = [line_oracle(inst) for inst in line] + [solve(inst) for inst in complete]
    assert all(v.diagnostics["stage"] != "numeric" for v in verdicts)
    return "\n".join(json.dumps(v.to_dict(), sort_keys=True) for v in verdicts)


class TestStagePipeline:
    def test_line_oracle_matches_solve_off_complete_graphs(self):
        budget = SearchBudget(restarts=4)
        compared = 0
        for k in range(200):
            inst = _random_line_instance(k)
            if inst.is_complete():
                continue
            compared += 1
            assert line_oracle(inst, budget=budget).to_dict() == solve(inst, budget).to_dict(), k
        assert compared >= 150

    @pytest.mark.parametrize("inst", COMPLETE_YES)
    def test_complete_yes_runs_the_checker_once(self, monkeypatch, inst):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return check_assignment(*args, **kwargs)

        monkeypatch.setattr(solver, "check_assignment", counted)
        monkeypatch.setattr(importlib.import_module("affeq.reconstruct"),
                            "check_assignment", counted)
        v = solve(inst)
        assert v.kind == YES and v.diagnostics["stage"] == "complete"
        assert len(calls) == 1

    @pytest.mark.parametrize("inst", COMPLETE_YES)
    def test_complete_yes_runs_no_embeddability_check(self, monkeypatch, inst):
        # The checker has decided both sides; reconstruct only computes
        # coordinates.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return menger_check(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module("affeq.embedding"),
                            "menger_check", counted)
        v = solve(inst)
        assert v.kind == YES and v.diagnostics["stage"] == "complete"
        assert calls == []

    def test_structure_note_counts_vertices(self):
        single = Instance(1, 1, (), (), ())
        v = solve(single)
        assert v.witness.report.entries[0].note == "1 vertex cannot affinely span dimension 1"
        assert v.to_dict() == line_oracle(single).to_dict()

    # SHA-256 of pinned_verdict_json; any change to a stage's output must
    # show here.
    def test_verdict_json_pinned(self):
        digest = hashlib.sha256(pinned_verdict_json().encode()).hexdigest()
        assert digest == (
            "c380600f9a632800506882f270664108fd57e76196059a464444409f90a1203a")


def pinned_scan_json():
    """``_pinned_scan`` verdicts and ``menger_check`` reports, floats rounded
    as in ``pinned_report_json``.

    The scan runs on sparse planted instances of the solve-planted cells,
    each with a twin whose second length on one edge is times 1.3, and on
    the exact instances of the acceptance line suite.  ``menger_check`` runs
    on points in dimensions 1-3 (float, and integer lattice points) at the
    right dimension and one off either way, on a float matrix with one
    entry nudged by 1e-12 and by 1e-2, and on matrices with one infinite or
    one negative entry.
    """
    rng = np.random.default_rng(15)
    tol = Tolerances()
    scans = []
    for seed in range(8):
        for n, d, density in itertools.product((6, 8, 10), (2, 3), (0.3, 0.5, 0.7)):
            inst, _ = random_instance(seed, n, d, density)
            k = int(rng.integers(len(inst.edges)))
            lam_prime = list(inst.lam_prime)
            lam_prime[k] *= 1.3
            scans += [inst, Instance(n, d, inst.edges, inst.lam, tuple(lam_prime))]
    scans += [inst for inst in map(_random_line_instance, range(200)) if inst.exact]
    lines = [json.dumps(_rounded(v.to_dict() if v else None), sort_keys=True)
             for v in (solver._pinned_scan(inst, None, tol, None) for inst in scans)]

    checks = []
    for d in (1, 2, 3):
        for n in (d + 1, d + 3, 7):
            pts = rng.normal(size=(n, d))
            grid = rng.choice(8**d, size=n, replace=False)
            lattice = [[int(c) // 8**k % 8 for k in range(d)] for c in grid]
            for rows in (squared_distance_rows(pts.tolist()),
                         squared_distance_rows(lattice)):
                i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
                variants = [rows]
                for factor in (1 + 1e-12, 1.01, math.inf, -1):
                    bad = [list(row) for row in rows]
                    bad[i][j] = bad[j][i] = factor * bad[i][j]
                    variants.append(bad)
                for z in variants:
                    D = SquaredDistanceMatrix(z, allow_negative=True)
                    checks += [(D, dim) for dim in (d - 1, d, d + 1) if dim >= 1]
    with np.errstate(invalid="ignore", over="ignore"):
        for D, dim in checks:
            report = dataclasses.asdict(menger_check(D, dim))
            lines.append(json.dumps(_rounded(report), sort_keys=True))
    return "\n".join(lines)


# SHA-256 of pinned_scan_json; any change to the scan's or menger_check's
# output must show here.
def test_pinned_scan_json_pinned():
    digest = hashlib.sha256(pinned_scan_json().encode()).hexdigest()
    assert digest == (
        "8975283c1a0fa2be0187f2ee956b4b3a9e1fbd8d79659ea317fb2f3fbbaeaab1")


def embed_and_complete_solve_json():
    """``embed`` outputs and complete-graph ``solve`` verdicts, with the
    warnings each emits, floats rounded to 9 significant digits: Cholesky
    and triangular-solve last bits depend on the BLAS build, and some of
    about a thousand coordinates would round differently at 12.

    ``embed`` runs on float, integer lattice and thin (last coordinate times
    1e-5) point sets of d+1 to d+7 points in dimensions 1-3, at d and d+1.
    ``solve`` runs on complete planted instances of the solve-planted cells
    and (5, 1), each with a twin whose first second-side length is times
    1.3, with every length times 1, 1e-4 and 1e6.
    """
    rng = np.random.default_rng(7)
    lines = []
    for d in (1, 2, 3):
        for n in range(d + 1, d + 8):
            pts = rng.normal(size=(n, d))
            grid = rng.choice(8**d, size=n, replace=False)
            lattice = [[int(c) // 8**k % 8 for k in range(d)] for c in grid]
            thin = pts * np.r_[np.ones(d - 1), 1e-5]
            for points in (pts.tolist(), lattice, thin.tolist()):
                D = SquaredDistanceMatrix(squared_distance_rows(points))
                for dim in (d, d + 1):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            out = [list(pt) for pt in embed(D, dim).points]
                        except EmbeddabilityError as exc:
                            out = dataclasses.asdict(exc.report)
                    lines.append(json.dumps(
                        [_rounded(out, 9), [str(w.message) for w in caught]]))
    budget = SearchBudget(restarts=1)
    for seed in range(6):
        for n, d in [(5, 1), (6, 2), (6, 3), (8, 2), (8, 3), (10, 2), (10, 3)]:
            inst, _ = random_instance(seed, n, d, 1.0)
            twin = (inst.lam_prime[0] * 1.3,) + inst.lam_prime[1:]
            for scale, lam_prime in itertools.product((1.0, 1e-4, 1e6),
                                                      (inst.lam_prime, twin)):
                scaled = Instance(n, d, inst.edges, tuple(v * scale for v in inst.lam),
                                  tuple(v * scale for v in lam_prime))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    doc = solve(scaled, budget).to_dict()
                lines.append(json.dumps([_rounded(doc, 9), [str(w.message) for w in caught]],
                                        sort_keys=True))
    return "\n".join(lines)


# SHA-256 of embed_and_complete_solve_json; any change to embed's
# coordinates, errors or warnings, or to a complete-graph verdict, must show
# here.
def test_embed_and_complete_solve_json_pinned():
    digest = hashlib.sha256(embed_and_complete_solve_json().encode()).hexdigest()
    assert digest == (
        "d0b52158bdbb45411c4cf1f1354ccdc522584bd5a7840d35ff38a0faed85c92a")


def _ratio_lines(seed):
    """Planted rational line instances at n = 7-9 whose two sides differ by a
    scale of 1/2, 3/2 or 5/3, either side carrying the fractions; each has a
    twin with one second-side length off by one.  The same graph, and a ring
    with no triangle for the pinned scan to refute, also get random
    fractional lengths at the same scale."""
    rng = np.random.default_rng([23, seed])
    out = []
    for n in (7, 8, 9):
        xs = [int(v) for v in rng.choice(4 * n, size=n, replace=False)]
        perm = rng.permutation(n)
        edges = {tuple(sorted((int(perm[t]), int(perm[rng.integers(0, t)]))))
                 for t in range(1, n)}
        edges |= {pair for pair in itertools.combinations(range(n), 2)
                  if rng.random() < 0.35}
        edges = sorted(edges)
        s = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 3))[rng.integers(3)]
        lam = [Fraction(abs(xs[i] - xs[j])) for i, j in edges]
        lam_prime = [s * v for v in lam]
        if seed % 2:
            lam, lam_prime = lam_prime, lam
        bumped = list(lam_prime)
        bumped[rng.integers(len(edges))] += 1
        cycle = [Fraction(int(rng.integers(1, 3 * n)), int(rng.integers(1, 4)))
                 for _ in edges]
        ring = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        loose = [Fraction(int(rng.integers(1, 3 * n)), int(rng.integers(1, 4)))
                 for _ in ring]
        for graph, a, b in ((edges, lam, lam_prime), (edges, lam, bumped),
                            (edges, cycle, [s * v for v in cycle]),
                            (ring, loose, [s * v for v in loose])):
            out.append(Instance.from_lengths(n, 1, dict(zip(graph, zip(a, b)))))
    return out


def line_oracle_json():
    """``line_oracle`` verdict JSON, floats rounded as in
    ``pinned_report_json``, over the float planted lines of the acceptance
    line suite, planted float lines at n = 6-9 and ``_ratio_lines``."""
    lines = [_random_line_instance(k) for k in range(2, 200, 3)]
    lines += [random_instance(seed, n, 1, 0.5)[0] for seed in range(4) for n in range(6, 10)]
    lines += [inst for seed in range(8) for inst in _ratio_lines(seed)]
    budget = SearchBudget(restarts=1)
    return "\n".join(json.dumps(_rounded(line_oracle(inst, budget=budget).to_dict()),
                                sort_keys=True) for inst in lines)


# SHA-256 of line_oracle_json; any change to the line oracle's verdicts,
# witnesses or certificates on float and fractional data must show here.
def test_line_oracle_json_pinned():
    digest = hashlib.sha256(line_oracle_json().encode()).hexdigest()
    assert digest == (
        "32ee152660777c93222293e6fa885b9930db153d925658aa78ecee14a6938b5c")


def numeric_search_outcomes_json():
    """Verdict kind, stage and ``restarts_used`` of ``solve`` at 6 restarts on
    the sparse solve-planted cells, seeds 0-1.  No float is written, so
    last-bit differences between BLAS or numpy builds do not move the lines;
    a restart that ends near ``_TARGET`` or ``DET_BARRIER`` still could."""
    budget = SearchBudget(restarts=6)
    lines = []
    for seed in range(2):
        for n, d, density in itertools.product((6, 8, 10), (2, 3), (0.3, 0.5, 0.7)):
            v = solve(random_instance(seed, n, d, density)[0], budget)
            lines.append(json.dumps({"kind": v.kind, "stage": v.diagnostics["stage"],
                                     "restarts_used": v.diagnostics.get("restarts_used")}))
    return "\n".join(lines)


# SHA-256 of numeric_search_outcomes_json; a stopping rule or acceptance
# change that alters which restart succeeds, or whether any does, shows here.
def test_numeric_search_outcomes_pinned():
    digest = hashlib.sha256(numeric_search_outcomes_json().encode()).hexdigest()
    assert digest == (
        "2e1c01c885f6820c4b0009a3fadc57f8a158aeeb187ef78312d2402531b4e35d")


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


def test_line_oracle_rejects_non_budget():
    # 19 tree edges exceed the enumeration cap, so the budget would reach the
    # numeric stage; it is rejected up front, as solve rejects it.
    path = Instance.from_lengths(20, 1, {(i, i + 1): (i + 1, 2 * (i + 1)) for i in range(19)})
    with pytest.raises(InputError, match="budget must be a SearchBudget"):
        line_oracle(path, budget=7)


def test_complete_no_runs_the_checker_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_assignment(*args, **kwargs)

    monkeypatch.setattr(solver, "check_assignment", counted)
    monkeypatch.setattr(importlib.import_module("affeq.reconstruct"),
                        "check_assignment", counted)
    v = solve(K4_PAIR)
    assert v.kind == NO and v.witness.source == "complete-pinned"
    assert len(calls) == 1


def counted_problem(fun, jac):
    """``fun`` and ``jac`` wrapped to count their calls."""
    calls = {"fun": 0, "jac": 0}

    def f(x):
        calls["fun"] += 1
        return fun(x)

    def j(x):
        calls["jac"] += 1
        return jac(x)

    return f, j, calls


class TestLeastSquares:
    # Both problems have a zero residual, which they must still reach under
    # the relative-decrease stop.
    def test_underdetermined_consistent_problem(self):
        # two rows, three unknowns: the unit sphere cut by the plane x0 = x1
        def fun(x):
            return np.array([x @ x - 1.0, x[0] - x[1]])

        def jac(x):
            return np.array([2.0 * x, [1.0, -1.0, 0.0]])

        for x0 in ([2.0, 0.0, 1.0], [0.1, -0.3, 0.2], [-1.0, 3.0, -2.0]):
            result = least_squares(fun, np.array(x0), jac=jac, xtol=1e-15, max_nfev=100)
            r = fun(result.x)
            assert r @ r < 1e-20, x0

    def test_square_problem(self):
        # Rosenbrock's valley as residuals, from the classic start
        def fun(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        result = least_squares(fun, np.array([-1.2, 1.0]), jac=jac,
                               xtol=1e-15, max_nfev=200)
        r = fun(result.x)
        assert r @ r < 1e-20
        np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=1e-10)

    @pytest.mark.parametrize("max_nfev", [1, 2, 5, 40])
    def test_counts_respect_max_nfev(self, monkeypatch, max_nfev):
        # the search's own residuals on an infeasible instance never converge
        fun, jac, size = search_functions(monkeypatch, LONG_CYCLE)
        f, j, calls = counted_problem(fun, jac)
        x0 = np.random.default_rng(3).normal(size=size)
        result = least_squares(f, x0, jac=j, xtol=1e-15, max_nfev=max_nfev)
        assert type(result.nfev) is int and type(result.njev) is int
        assert result.nfev == calls["fun"] <= max_nfev
        assert result.njev == calls["jac"]

    def test_ftol_stops_a_stalled_search(self, monkeypatch):
        # LONG_CYCLE is infeasible, so the search settles at a positive
        # residual; the relative-decrease stop ends it sooner at that cost
        fun, jac, size = search_functions(monkeypatch, LONG_CYCLE)
        x0 = np.random.default_rng(3).normal(size=size)

        def run():
            return least_squares(fun, x0, jac=jac, xtol=1e-15, max_nfev=solver._ITERATIONS)

        stopped_run = run()
        monkeypatch.setattr(solver, "_FTOL", 0.0)
        full_run = run()
        full, stopped = (float(fun(r.x) @ fun(r.x)) for r in (full_run, stopped_run))
        assert stopped_run.nfev < full_run.nfev
        assert full > 1e-3
        assert stopped == pytest.approx(full, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_returns(self, bad):
        f, j, calls = counted_problem(lambda x: np.array([bad, 0.0]),
                                      lambda x: np.ones((2, 2)))
        result = least_squares(f, np.array([1.0, 2.0]), jac=j, xtol=1e-15, max_nfev=50)
        assert (result.nfev, result.njev) == (1, 0)
        assert np.array_equal(result.x, [1.0, 2.0])

    def test_empty_residual_returns_start(self):
        f, j, calls = counted_problem(lambda x: np.zeros(0),
                                      lambda x: np.zeros((0, x.size)))
        result = least_squares(f, np.array([1.0, 2.0]), jac=j, xtol=1e-15, max_nfev=50)
        assert (result.nfev, result.njev) == (1, 0)
        assert np.array_equal(result.x, [1.0, 2.0])


def test_numeric_search_loads_no_scipy():
    code = (
        "import affeq, sys\n"
        "v = affeq.solve(affeq.random_instance(0, 8, 2, 0.5)[0])\n"
        "assert v.kind == 'YES' and v.diagnostics['stage'] == 'numeric'\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)))
