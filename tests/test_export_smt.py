import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from affeq import smtexport
from affeq.cmdet import SquaredDistanceMatrix, _subsets, cmd, quadratic_slice
from affeq.errors import InputError
from affeq.smtexport import (
    _cmd_poly,
    _linear_form,
    _poly_text,
    export_smt,
    variable_name,
)
from affeq.solver import random_instance
from affeq.system import Assignment, Instance, _side_checks, check_assignment

from helpers import (
    bordered_rows,
    laplace_entry_derivative,
    laplace_poly,
    random_rational,
    random_rational_sdm_rows,
)

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


def const_table(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def var_table(n):
    return [[variable_name("z", i, j) if i != j else 0 for j in range(n)]
            for i in range(n)]


class TestPolynomialEngine:
    def test_constant_cmd_matches_kernel(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            rows = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(rows)
            subset = tuple(sorted(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                             replace=False).tolist()))
            poly = _cmd_poly(subset, const_table(rows))
            assert eval_poly(poly, {}) == cmd(D, subset)

    def test_variable_entries_evaluate_to_kernel(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            rows = random_rational_sdm_rows(rng, n)
            D = SquaredDistanceMatrix(rows)
            subset = tuple(range(n))
            poly = _cmd_poly(subset, var_table(n))
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
            linear = _linear_form(subset, (i, j), var_table(n))
            env = {variable_name("z", a, b): Fraction(rows[a][b])
                   for a in range(n) for b in range(a + 1, n)}
            slice_ = quadratic_slice(D, subset, (i, j))
            assert eval_poly(linear, env) == slice_.linear_form(rows[i][j])

    @pytest.mark.parametrize("k", range(2, 7))
    def test_template_expansion_matches_plain_laplace(self, k):
        # Entries are a random mix of variable names (labelled in shuffled
        # order, so monomials sort differently from positions), ints,
        # Fractions and zero constants.
        rng = np.random.default_rng(k)
        n = 8
        pairs = list(itertools.combinations(range(n), 2))
        labels = rng.permutation(len(pairs))
        for _ in range(3):
            table = [[0] * n for _ in range(n)]
            for (i, j), label in zip(pairs, labels):
                kind = rng.integers(4)
                entry = (f"w{label}" if kind == 0 else int(rng.integers(-9, 10)) if kind == 1
                         else random_rational(rng, -20, 20) if kind == 2 else 0)
                table[i][j] = table[j][i] = entry
            subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            assert _cmd_poly(subset, table) == laplace_poly(bordered_rows(table, subset))
            for i, j in itertools.combinations(subset, 2):
                want = laplace_entry_derivative(table, subset, (i, j))
                assert _linear_form(subset, (i, j), table) == want
                assert _linear_form(subset, (j, i), table) == want

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

    def test_each_side_form_built_once(self, monkeypatch):
        # Bases leaving out either end of a pair share its side-test form,
        # which is symmetric in the pair; each is built once per side.
        built = []

        def counting(subset, pair, table):
            built.append((subset, frozenset(pair)))
            return _linear_form(subset, pair, table)

        monkeypatch.setattr(smtexport, "_linear_form", counting)
        for n, d in ((4, 1), (6, 2), (6, 3)):
            inst, _ = random_instance(0, n, d, 0.5)
            built.clear()
            export_smt(inst)
            distinct = {(subset, frozenset(pair))
                        for base in _subsets(n, d + 1).tolist()
                        for _, _, subset, pair in _side_checks(n, base)}
            assert len(built) == 2 * len(distinct)
            assert set(built) == distinct
            table = var_table(n)
            for subset, pair in distinct:
                i, j = sorted(pair)
                assert (_linear_form(subset, (i, j), table)
                        == _linear_form(subset, (j, i), table))

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

    def test_too_few_vertices_for_a_base_simplex(self):
        # No (d+1)-subset, so no base disjunct: the empty disjunction is
        # false, written without a zero-argument `or`.
        lines = export_smt(Instance(3, 4, ((0, 1),), (2,), (1,))).splitlines()
        assert not any("(or )" in line for line in lines)
        assert lines[-3:] == ["(assert false)", "(check-sat)", "(get-model)"]

    def test_rejects_non_instance(self):
        with pytest.raises(InputError):
            export_smt("nope")

    # SHA-256 of the exported text, taken while polynomial coefficients were
    # still all Fraction; the coefficient types must not change the bytes.
    @pytest.mark.parametrize("inst, digest", [
        # lattice points (0,0) (1,0) (0,1) (1,1) (2,1), unit axis edges, and
        # the map with columns (3,4) and (0,2): integer lengths on both sides
        (Instance.from_lengths(5, 2, {(0, 1): (1, 5), (0, 2): (1, 2), (1, 3): (1, 2),
                                      (2, 3): (1, 5), (3, 4): (1, 5)}),
         "42d7495110442feafae2d2b2d23610747ca87e1e9af34ad057c9976312a82f11"),
        (Instance.from_lengths(5, 2, {(0, 1): (Fraction(1, 2), 1), (1, 2): (0.75, 2.5),
                                      (2, 3): (3, Fraction(7, 3)),
                                      (0, 3): (Fraction(5, 3), 0.1),
                                      (3, 4): (1.25, Fraction(9, 4))}),
         "cd6adf40cd27e0610d8ea53dab8b19f992067a0ef3ab09f5df466b7158e26ec3"),
    ])
    def test_text_pinned(self, inst, digest):
        assert hashlib.sha256(export_smt(inst).encode()).hexdigest() == digest


def export_corpus():
    """Seeded instances with n >= d+1, each followed by a rational twin with
    ``Fraction`` lengths on one side and ints on the other."""
    for seed, (n, d), density in itertools.product(
            (0, 1),
            ((2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2), (4, 3), (5, 3)),
            (0.0, 0.5, 1.0)):
        inst, _ = random_instance(seed, n, d, density)
        yield inst
        yield Instance(n, d, inst.edges,
                       tuple(Fraction(round(7 * v) + 1, 3) for v in inst.lam),
                       tuple(round(7 * v) + 1 for v in inst.lam_prime))


# One SHA-256 over the text of all 108 exports; any change to a declaration,
# assertion or comment line must show here.
def test_export_smt_corpus_pinned():
    digest = hashlib.sha256()
    for inst in export_corpus():
        digest.update(export_smt(inst).encode())
    assert digest.hexdigest() == (
        "32ec1df08998f27b1425519d373b581ec121087deace7ba0d8964d63defd1299")


# Integer columns with integer norms, so axis-aligned edges keep integer
# lengths under the map.
NORM_COLUMNS = ((1, 0), (0, 1), (3, 4), (4, -3), (0, 2), (5, 12), (6, 8))


def int_dist(u, v):
    return math.isqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def lattice_instance(seed, n):
    """Integer points in {0..3}^2 with axis-aligned edges, and their image
    under an integer map whose columns have integer norms: integer lengths
    on both sides, at the sizes the command line's export documents use."""
    rng = np.random.default_rng([seed, n])
    grid = list(itertools.product(range(4), repeat=2))
    while True:
        p = [grid[t] for t in rng.choice(len(grid), size=n, replace=False)]
        if all((b[0] - p[0][0]) * (c[1] - p[0][1]) == (b[1] - p[0][1]) * (c[0] - p[0][0])
               for b, c in itertools.combinations(p, 2)):
            continue
        axis = [(i, j) for i, j in itertools.combinations(range(n), 2)
                if (p[i][0] == p[j][0]) != (p[i][1] == p[j][1])]
        edges = [e for e in axis if rng.random() < 0.6]
        if not edges:
            continue
        a, b = (NORM_COLUMNS[t] for t in rng.choice(len(NORM_COLUMNS), size=2,
                                                     replace=False))
        if a[0] * b[1] == a[1] * b[0]:
            continue
        q = [(a[0] * x + b[0] * y, a[1] * x + b[1] * y) for x, y in p]
        return Instance.from_lengths(n, 2, {(i, j): (int_dist(p[i], p[j]),
                                                     int_dist(q[i], q[j]))
                                            for i, j in edges})


def wide_export_corpus():
    """Lattice instances at n = 5 and 6, and float instances at n = 6 up to
    d = 4, where the sign rule, flatness and side tests use larger subsets
    than the first corpus reaches."""
    for seed, n in itertools.product(range(4), (5, 6)):
        yield lattice_instance(seed, n)
    for d, density in itertools.product((2, 3, 4), (0.0, 0.5)):
        yield random_instance(1, 6, d, density)[0]


# One SHA-256 over the 14 exports of the wider corpus.
def test_export_smt_wide_corpus_pinned():
    digest = hashlib.sha256()
    for inst in wide_export_corpus():
        digest.update(export_smt(inst).encode())
    assert digest.hexdigest() == (
        "3dc14d77f4050d36a3b41c9a154d054265dc16552813d1f65d950436ab168348")


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
