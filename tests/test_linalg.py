from fractions import Fraction

import numpy as np
import pytest

from affeq.errors import InputError
from affeq.linalg import bareiss_det, clear_denominators

from helpers import fraction_bareiss


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
