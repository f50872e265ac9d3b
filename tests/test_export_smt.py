import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from affeq.cmdet import SquaredDistanceMatrix, cmd, quadratic_slice
from affeq.errors import InputError
from affeq.smtexport import (
    _cmd_poly,
    _linear_form,
    _poly_text,
    export_smt,
    variable_name,
)
from affeq.solver import random_instance
from affeq.system import Assignment, Instance, check_assignment

from helpers import random_rational_sdm_rows

K3 = Instance.from_lengths(3, 2, {(0, 1): (3, 6), (1, 2): (4, 8), (0, 2): (5, 10)})
PATH = Instance.from_lengths(3, 2, {(0, 1): (3, 6), (1, 2): (4, 8)})


def eval_poly(poly, env):
    """Exact evaluation of a {monomial: coefficient} polynomial."""
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = coeff
        for var in mono:
            term *= env[var]
        total += term
    return total


def const_entry(matrix):
    return lambda i, j: ("const", Fraction(matrix[i][j]))


class TestPolynomialEngine:
    def test_constant_cmd_matches_kernel(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            rows = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(rows)
            subset = tuple(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                             replace=False).tolist()))
            poly = _cmd_poly(subset, const_entry(rows))
            assert eval_poly(poly, {}) == cmd(D, subset)

    def test_variable_entries_evaluate_to_kernel(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            rows = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(rows)
            subset = tuple(range(n))

            def entry(i, j):
                return ("var", variable_name("z", i, j))

            poly = _cmd_poly(subset, entry)
            env = {variable_name("z", i, j): Fraction(rows[i][j])
                   for i in range(n) for j in range(i + 1, n)}
            assert eval_poly(poly, env) == cmd(D, subset)

    def test_cofactor_form_matches_quadratic_slice(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            rows = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(rows)
            subset = tuple(range(n))
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())

            def entry(a, b):
                return ("var", variable_name("z", a, b))

            linear = _linear_form(subset, (i, j), entry)
            env = {variable_name("z", a, b): Fraction(rows[a][b])
                   for a in range(n) for b in range(a + 1, n)}
            slice_ = quadratic_slice(D, subset, (i, j))
            assert eval_poly(linear, env) == slice_.linear_form(rows[i][j])

    def test_poly_text_forms(self):
        assert _poly_text({}) == "0"
        assert _poly_text({(): Fraction(3)}) == "3"
        assert _poly_text({(): Fraction(3, 4)}) == "(/ 3 4)"
        assert _poly_text({(): Fraction(-2)}) == "(- 2)"
        text = _poly_text({("x", "x"): Fraction(1), ("y",): Fraction(-1, 2)})
        assert "(* x x)" in text and "(/ 1 2)" in text


class TestExportText:
    def test_path_declares_one_free_variable_per_side(self):
        text = export_smt(PATH)
        declared = re.findall(r"\(declare-const (\S+) Real\)", text)
        assert declared == ["z_0_2", "zp_0_2", "alpha"]

    def test_complete_graph_declares_only_alpha(self):
        text = export_smt(K3)
        declared = re.findall(r"\(declare-const (\S+) Real\)", text)
        assert declared == ["alpha"]

    def test_header_and_footer(self):
        text = export_smt(PATH)
        lines = text.splitlines()
        assert lines[0] == "(set-logic QF_NRA)"
        assert lines[-2:] == ["(check-sat)", "(get-model)"]

    def test_balanced_parentheses(self):
        for inst in (K3, PATH):
            text = export_smt(inst)
            depth = 0
            for ch in text:
                depth += ch == "("
                depth -= ch == ")"
                assert depth >= 0
            assert depth == 0

    def test_assertion_families_present(self):
        text = export_smt(PATH)
        asserts = [l for l in text.splitlines() if l.startswith("(assert")]
        # nonnegativity (2) + alpha (1) + sign rule (2) + ratio (1) + base (1)
        assert len(asserts) == 7
        assert "(assert (>= z_0_2 0))" in asserts
        assert "(assert (> alpha 0))" in asserts
        assert any("(* alpha" in a for a in asserts)

        # nonnegativity and alpha, sign rule and flatness on both sides, one
        # ratio per (d+1)-subset, one base disjunction
        counts = []
        for n, d in ((4, 1), (5, 2), (6, 2), (6, 3)):
            inst, _ = random_instance(0, n, d, 0.5)
            free = math.comb(n, 2) - len(inst.edges)
            lines = export_smt(inst).splitlines()
            declared = [l for l in lines if l.startswith("(declare-const")]
            asserts = [l for l in lines if l.startswith("(assert")]
            assert len(declared) == 2 * free + 1
            want = (2 * free + 1
                    + sum(2 * math.comb(n, s) for s in range(3, d + 2))
                    + 2 * math.comb(n, d + 2) + math.comb(n, d + 1) + 1)
            assert len(asserts) == want
            counts.append(len(asserts))
        assert counts == [18, 46, 100, 115]

    def test_flatness_emitted_above_dimension(self):
        inst = Instance.from_lengths(
            3, 1, {(0, 1): (3, 6), (1, 2): (4, 8), (0, 2): (7, 14)})
        text = export_smt(inst)
        assert "; flatness of subsets of 3 vertices" in text

    def test_pinned_floats_become_exact_rationals(self):
        inst = Instance.from_lengths(2, 1, {(0, 1): (2.5, 5.0)})
        text = export_smt(inst)
        # the pair determinant doubles the pinned 25/4
        assert "(/ 25 2)" in text

    def test_rejects_non_instance(self):
        with pytest.raises(InputError):
            export_smt("nope")


class TestModelRoundTrip:
    def assignment_from_model(self, inst, model):
        """Assignment an external solver's model would pin down."""
        n = len({v for e in inst.edges for v in e} | set(range(inst.n)))
        z = dict(inst.lam_sq())
        zp = dict(inst.lam_prime_sq())
        for (i, j) in [(i, j) for i in range(n) for j in range(i + 1, n)]:
            if (i, j) not in inst.edge_set:
                z[(i, j)] = model[variable_name("z", i, j)]
                zp[(i, j)] = model[variable_name("z_prime", i, j)]
        return Assignment(
            SquaredDistanceMatrix.from_pairs(n, z),
            SquaredDistanceMatrix.from_pairs(n, zp),
            model["alpha"],
        )

    def test_satisfying_model_passes_check(self):
        # the 3-4-5 right triangle satisfies the path system: z_0_2 = 25
        model = {"z_0_2": Fraction(25), "zp_0_2": Fraction(100),
                 "alpha": Fraction(16)}
        a = self.assignment_from_model(PATH, model)
        assert check_assignment(PATH, a).passed

    def test_violating_model_fails_check(self):
        model = {"z_0_2": Fraction(25), "zp_0_2": Fraction(99),
                 "alpha": Fraction(16)}
        a = self.assignment_from_model(PATH, model)
        report = check_assignment(PATH, a)
        assert not report.passed
