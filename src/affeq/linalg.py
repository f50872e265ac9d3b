"""Determinant kernels in two arithmetic modes.

Exact mode runs fraction-free Bareiss elimination on Python ints, so signs
of near-degenerate determinants are decided without rounding; the batch
kernels give int determinants, which :mod:`affeq.cmdet` keeps over a power of
its common denominator, and only :func:`bareiss_det` returns a ``Fraction``.
Floating mode delegates to LAPACK (partial pivoting) through numpy.

Batches of same-size determinants take one call in either mode.
:func:`bordered_det_batch` sends a float matrix's bordered stack to LAPACK.
Given int rows it builds the rooted Gram stack instead, ``k = |I| - 1``
square rather than ``|I| + 1``, and :func:`bareiss_stack` eliminates the
whole ``(count, k, k)`` object-dtype stack at once.
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
    ``L * rows`` is eliminated by :func:`bareiss_stack` as a stack of one
    and the result is ``Fraction(det, L**n)``.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("bareiss_det requires a square matrix")
    if {type(x) for row in rows for x in row} <= {int}:
        a, den = rows, None
    else:
        a, den = clear_denominators(rows)
    det = bareiss_stack(np.array(a, dtype=object).reshape(1, n, n))[0]
    return det if den is None else Fraction(det, den**n)


def det_any(rows):
    """Determinant dispatching on entry type: exact when all rational."""
    flat = [x for row in rows for x in row]
    if all(is_exact_value(x) for x in flat):
        return Fraction(bareiss_det(rows))
    return float(np.linalg.det(np.asarray(rows, dtype=float)))


def _index_array(subsets) -> np.ndarray:
    subsets = np.asarray(subsets, dtype=np.intp)
    if subsets.ndim != 2:
        raise InputError("subsets must be a 2-D index array")
    return subsets


def bordered_stack(z: np.ndarray, subsets) -> np.ndarray:
    """Bordered matrices of many same-size subsets, stacked, in ``z``'s dtype:
    floats for a float array, Python ints for an object array of them."""
    subsets = _index_array(subsets)
    count, m = subsets.shape
    big = np.ones((count, m + 1, m + 1), dtype=z.dtype)
    big[:, 0, 0] = 0
    big[:, 1:, 1:] = z[subsets[:, :, None], subsets[:, None, :]]
    diag = np.arange(1, m + 1)
    big[:, diag, diag] = 0
    return big


def bareiss_stack(a) -> np.ndarray:
    """Exact determinants of a ``(count, k, k)`` stack of Python ints.

    One fraction-free Bareiss elimination runs over the whole object-dtype
    stack, with row pivoting chosen per matrix: the first row with a nonzero
    entry in the current column.  A matrix whose column has none has
    determinant 0 and leaves the stack, so no division by a zero pivot
    occurs; every other division in the recurrence is exact, so ``//`` is.
    Returns an object array of ``int``; an empty matrix gives 1.
    """
    a = np.array(a, dtype=object)
    count, k = a.shape[0], a.shape[-1]
    det = np.zeros(count, dtype=object)
    live = np.arange(count)
    sign = np.ones(count, dtype=object)
    prev = np.ones(count, dtype=object)
    while k > 1 and live.size:
        nonzero = a[:, :, 0] != 0
        has = nonzero.any(axis=1)
        if not has.all():
            a, nonzero, live, sign, prev = (x[has] for x in (a, nonzero, live, sign, prev))
        piv = nonzero.argmax(axis=1)
        rows = np.arange(live.size)
        top = a[rows, piv]
        a[rows, piv] = a[:, 0]
        sign[piv != 0] *= -1
        pivot = top[:, 0]
        rest = a[:, 1:]
        a = ((rest[:, :, 1:] * pivot[:, None, None] - rest[:, :, :1] * top[:, None, 1:])
             // prev[:, None, None])
        prev = pivot
        k -= 1
    det[live] = sign * a[:, 0, 0] if k == 1 else sign
    return det


def bordered_det_batch(z, subsets) -> np.ndarray:
    """Bordered determinants for many subsets of equal size at once.

    A float array ``z`` gives floats from one batched LAPACK call on the
    bordered stack.  Int rows (a list of lists or an object array of
    Python ints) give exact ints from one :func:`bareiss_stack` call on the
    rooted Gram stack ``H_ab = z[i0,ia] + z[i0,ib] - z[ia,ib]`` over
    ``I = (i0, i1, ...)``, for which ``CM(I) = (-1)**|I| * det H``.  As for
    the bordered matrix, one index gives -1 and the empty set 0.
    """
    if isinstance(z, np.ndarray) and z.dtype != object:
        return np.linalg.det(bordered_stack(z, subsets))
    z = np.asarray(z, dtype=object)
    subsets = _index_array(subsets)
    count, m = subsets.shape
    if m == 0 or not count:
        return np.zeros(count, dtype=object)
    root, rest = subsets[:, :1], subsets[:, 1:]
    rooted = z[root, rest]
    gram = rooted[:, :, None] + rooted[:, None, :] - z[rest[:, :, None], rest[:, None, :]]
    dets = bareiss_stack(gram)
    return -dets if m % 2 else dets
