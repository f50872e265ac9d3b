"""Determinant and linear-solve kernels in two arithmetic modes.

Exact mode takes ``fractions.Fraction`` / ``int`` entries, clears their
denominators and runs fraction-free Bareiss elimination on Python ints, so
signs of near-degenerate determinants are decided without rounding.
Floating mode delegates to LAPACK (elimination with partial pivoting)
through numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import InputError


def is_exact_value(x) -> bool:
    """True for values that support exact rational arithmetic."""
    return isinstance(x, Rational) and not isinstance(x, bool)


def to_fraction(x) -> Fraction:
    """Exact conversion; floats convert to their exact binary rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        return Fraction(float(x))
    return Fraction(x)


def clear_denominators(rows):
    """``(int rows, L)``: ``L`` is the lcm of the entries' denominators and
    each entry is multiplied by it.  Entries convert through ``Fraction``,
    so numpy integers cannot overflow."""
    fr = [[to_fraction(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in fr for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in fr], den


def bareiss_det(rows):
    """Exact determinant via fraction-free Bareiss elimination on ints.

    ``rows`` is a square list-of-lists of rationals.  Rows of Python ints
    give an ``int``.  Other rows are first cleared of denominators: with
    ``L`` the lcm of every entry's denominator, the ``int`` matrix
    ``L * rows`` is eliminated and the result is ``Fraction(det, L**n)``.
    Row pivoting is used; every division in the Bareiss recurrence is
    exact, so ``//`` is.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("bareiss_det requires a square matrix")
    if {type(x) for row in rows for x in row} <= {int}:
        a, den = [list(row) for row in rows], None
    else:
        a, den = clear_denominators(rows)
    det = _int_bareiss(a) if n else 1
    return det if den is None else Fraction(det, den**n)


def _int_bareiss(a) -> int:
    """Determinant of a nonempty square ``int`` matrix; ``a`` is consumed."""
    sign, prev = 1, 1
    while len(a) > 1:
        for k, row in enumerate(a):
            if row[0]:
                break
        else:
            return 0
        if k:
            a[0], a[k] = a[k], a[0]
            sign = -sign
        top = a[0]
        pivot = top[0]
        a = [[(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in a[1:]]
        prev = pivot
    return sign * a[0][0]


def solve_exact(rows, rhs) -> list[Fraction]:
    """Exact solve of a square nonsingular system by Gaussian elimination."""
    n = len(rows)
    a = [[to_fraction(x) for x in row] + [to_fraction(b)]
         for row, b in zip(rows, rhs)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[piv][k] == 0:
            raise InputError("singular system in exact solve")
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f == 0:
                continue
            for j in range(k, n + 1):
                a[i][j] -= f * a[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / a[k][k]
    return x


def det_any(rows):
    """Determinant dispatching on entry type: exact when all rational."""
    flat = [x for row in rows for x in row]
    if all(is_exact_value(x) for x in flat):
        return Fraction(bareiss_det(rows))
    return float(np.linalg.det(np.asarray(rows, dtype=float)))


def bordered_matrix(z, index_set):
    """Bordered squared-distance determinant matrix for a point subset.

    Layout: a leading 0 with a border of ones, then the squared-distance
    block with a zero diagonal.  For ``k+1`` indices the matrix is
    ``(k+2) x (k+2)``.
    """
    m = len(index_set)
    rows = [[0] + [1] * m]
    for a in index_set:
        rows.append([1] + [z[a][b] for b in index_set])
    for a in range(m):
        rows[a + 1][a + 1] = 0
    return rows


def bordered_stack(zf: np.ndarray, subsets) -> np.ndarray:
    """Float bordered matrices of many same-size subsets, stacked."""
    subsets = np.asarray(subsets, dtype=np.intp)
    if subsets.ndim != 2:
        raise InputError("subsets must be a 2-D index array")
    count, m = subsets.shape
    big = np.ones((count, m + 1, m + 1))
    big[:, 0, 0] = 0.0
    big[:, 1:, 1:] = zf[subsets[:, :, None], subsets[:, None, :]]
    diag = np.arange(1, m + 1)
    big[:, diag, diag] = 0.0
    return big


def bordered_det_batch(zf: np.ndarray, subsets) -> np.ndarray:
    """Floating bordered determinants for many subsets of equal size at once."""
    return np.linalg.det(bordered_stack(zf, subsets))
