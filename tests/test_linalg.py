import itertools
from fractions import Fraction

import numpy as np
import pytest

from affeq.errors import InputError
from affeq.linalg import (
    bareiss_det,
    bareiss_stack,
    bordered_det_batch,
    clear_denominators,
    is_exact_value,
)

from helpers import cmd_oracle, fraction_bareiss, squared_distance_rows


def random_square(rng, n, integral, zeros):
    """Entries in [-9, 9], a share ``zeros`` of them 0, with denominators up
    to 6 unless ``integral``."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = 0 if rng.random() < zeros else int(rng.integers(-9, 10))
            row.append(num if integral else Fraction(num, int(rng.integers(1, 7))))
        rows.append(row)
    return rows


class TestBareissDet:
    def test_matches_fraction_reference(self):
        rng = np.random.default_rng(21)
        for trial in range(640):
            n, integral = trial % 8, trial % 16 < 8
            # Sparse matrices give zero pivots and so row swaps; a repeated
            # row, scaled, makes the matrix singular.
            rows = random_square(rng, n, integral, zeros=(0.0, 0.6, 0.85)[trial % 3])
            if n >= 2 and trial % 5 == 0:
                rows[-1] = [3 * x for x in rows[0]]
            got = bareiss_det(rows)
            assert got == fraction_bareiss(rows)
            # an empty matrix has no entries that are not ints
            assert type(got) is (int if integral or n == 0 else Fraction)

    @pytest.mark.parametrize("rows, det", [
        ([[0, 1], [1, 0]], -1),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        # the second pivot vanishes only after the first elimination step
        ([[1, 1, 1], [1, 1, 2], [2, 3, 4]], -1),
        ([[0, 0], [0, 5]], 0),
        ([[Fraction(1, 2), Fraction(-1, 3)], [Fraction(5, 4), 0]], Fraction(5, 12)),
        ([], 1),
    ])
    def test_zero_pivots_and_singular(self, rows, det):
        assert bareiss_det(rows) == det == fraction_bareiss(rows)

    def test_numpy_integers_do_not_overflow(self):
        rng = np.random.default_rng(22)
        big = rng.integers(2**40, 2**41, size=(6, 6), dtype=np.int64)
        want = fraction_bareiss(big.tolist())
        assert abs(want) > 2**200
        assert bareiss_det([list(row) for row in big]) == want
        assert bareiss_det(big.tolist()) == want

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            bareiss_det([[1, 2], [3]])


def test_clear_denominators():
    rows, den = clear_denominators([[Fraction(1, 4), 2], [np.int64(2**62), Fraction(-5, 6)]])
    assert den == 12
    assert rows == [[3, 24], [12 * 2**62, -10]]
    assert all(type(x) is int for row in rows for x in row)


def random_int_stack(rng, count, m, kind):
    """``count`` random ``m x m`` int matrices of one kind."""
    stack = [random_square(rng, m, True, zeros=0.7 if kind == "sparse" else 0.0)
             for _ in range(count)]
    for mat in stack:
        if kind == "big":
            for row in mat:
                row[:] = [x * 2**64 + int(rng.integers(2**62)) for x in row]
        elif kind == "leading-zero" and m:
            for row in mat[: int(rng.integers(1, m + 1))]:
                row[0] = 0
        elif kind == "rank-deficient" and m >= 2:
            mat[-1] = [2 * a - 3 * b for a, b in zip(mat[0], mat[1 % (m - 1)])]
        elif kind == "zero":
            for row in mat:
                row[:] = [0] * m
        elif kind == "negative":
            for row in mat:
                row[:] = [-abs(x) - 1 for x in row]
    return stack


class TestBareissStack:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "leading-zero", "rank-deficient",
                                      "zero", "negative", "big"])
    def test_matches_bareiss_det_per_matrix(self, kind):
        rng = np.random.default_rng(["dense", "sparse", "leading-zero", "rank-deficient",
                                     "zero", "negative", "big"].index(kind))
        for m in range(8):
            stack = random_int_stack(rng, 12, m, kind)
            got = bareiss_stack(np.array(stack, dtype=object).reshape(12, m, m))
            assert got.dtype == object and got.shape == (12,)
            # bareiss_det eliminates each matrix as a stack of one; the
            # Fraction elimination is the independent reference.
            assert (got.tolist() == [bareiss_det(mat) for mat in stack]
                    == [fraction_bareiss(mat) for mat in stack]), (kind, m)
            assert all(type(v) is int for v in got.tolist())

    def test_mixed_stack_and_no_division_by_zero(self):
        # A zero column leaves one matrix while its neighbours continue, at
        # the first step and at a later one.
        stack = [[[0, 1, 2], [0, 3, 4], [0, 5, 6]],
                 [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
                 [[2, 2**64, 1], [1, 3, 0], [0, 1, -1]],
                 [[0, 0, 1], [0, 1, 0], [1, 0, 0]]]
        got = bareiss_stack(np.array(stack, dtype=object))
        assert got.tolist() == [bareiss_det(mat) for mat in stack] == [
            0, bareiss_det(stack[1]), bareiss_det(stack[2]), -1]

    def test_empty_stacks(self):
        assert bareiss_stack(np.empty((3, 0, 0), dtype=object)).tolist() == [1, 1, 1]
        assert bareiss_stack(np.empty((0, 4, 4), dtype=object)).tolist() == []


def point_sets(d):
    """Collinear, coincident-pair and lattice integer point sets in R^d."""
    rng = np.random.default_rng(d)
    lattice = [[int(c) // 5**k % 5 for k in range(d)]
               for c in rng.choice(5**d, size=d + 4, replace=False)]
    collinear = [[t * c for c in range(1, d + 1)] for t in (0, 1, 3, -2, 5)]
    coincident = lattice[:3] + [lattice[1]] + lattice[3:]
    return lattice, collinear, coincident


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_bordered_det_batch_matches_the_oracle(d):
    for points in point_sets(d):
        z = squared_distance_rows(points)
        for size in range(d + 3):
            subsets = list(itertools.combinations(range(len(points)), size))
            want = [cmd_oracle(z, I) for I in subsets]
            for rows in (z, np.array(z, dtype=object)):
                got = bordered_det_batch(rows, np.array(subsets, dtype=np.intp)
                                         .reshape(len(subsets), size))
                assert got.tolist() == want, (d, size)
                assert all(type(v) is int for v in got.tolist())


@pytest.mark.parametrize("value, exact", [
    (3, True), (Fraction(1, 3), True), (np.int64(3), True),
    (True, False), (np.bool_(True), False),
    (0.5, False), (np.float64(0.5), False), (2.0, False),
])
def test_is_exact_value(value, exact):
    assert is_exact_value(value) is exact
