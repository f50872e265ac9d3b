"""Shared independent oracles for the test suite.

Everything here is deliberately naive: recursive cofactor expansion for
determinants, Gram matrices for volumes, coordinate geometry for side
classification.  These are the references the library is checked against, so
they must not reuse the library's own evaluation paths.
"""

from fractions import Fraction

import numpy as np


def cofactor_det(mat):
    """Exact determinant by recursive cofactor expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j, a in enumerate(mat[0]):
        if a == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * a * cofactor_det(minor)
    return total


def bordered_rows(z, index_set):
    m = len(index_set)
    rows = [[0] + [1] * m]
    for a in index_set:
        rows.append([1] + [z[a][b] for b in index_set])
    for a in range(m):
        rows[a + 1][a + 1] = 0
    return rows


def cmd_oracle(z, index_set):
    """Bordered determinant straight from cofactor expansion."""
    return cofactor_det(bordered_rows(z, list(index_set)))


def gram_volume_sq(points):
    """Squared k-volume of a simplex from coordinates via the Gram matrix."""
    pts = np.asarray(points, dtype=float)
    k = len(pts) - 1
    edges = pts[1:] - pts[0]
    gram = edges @ edges.T
    return float(np.linalg.det(gram)) / _fact(k) ** 2


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def signed_side(face_points, x):
    """Signed offset of x from the hyperplane through ``face_points``.

    ``face_points`` must be d affinely independent points in R^d.  The sign
    convention is arbitrary but consistent, so products of two values are
    orientation-free.
    """
    face = np.asarray(face_points, dtype=float)
    x = np.asarray(x, dtype=float)
    rows = np.vstack([face[1:] - face[0], x - face[0]])
    return float(np.linalg.det(rows))


def squared_distance_rows(points):
    """Squared pairwise distances, exact if the coordinates are rational."""
    n = len(points)
    exact = all(isinstance(c, (int, Fraction)) for p in points for c in p)
    z = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if exact:
                v = sum((a - b) ** 2 for a, b in zip(points[i], points[j]))
            else:
                v = float(sum((a - b) ** 2 for a, b in zip(points[i], points[j])))
            z[i][j] = z[j][i] = v
    return z


def random_rational(rng, lo=0, hi=30, den=7):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den)))


def random_rational_sdm_rows(rng, n, lo=1, hi=40, den=5):
    """Random symmetric nonnegative rational matrix with a zero diagonal.

    Not necessarily embeddable anywhere; fine for algebraic identities.
    """
    z = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z[i][j] = z[j][i] = random_rational(rng, lo, hi, den)
    return z


def loop_jacobian(theta, ii, jj, n, d, fixed):
    """Jacobian of the numeric search's residuals, one edge at a time.

    The per-edge loop the vectorised ``numeric_search`` Jacobian replaced,
    kept as its bitwise reference: same products in the same order.
    ``fixed`` is the first framework (already scaled) or None when its
    coordinates are unknowns.
    """
    k = len(ii)
    npos = 0 if fixed is not None else n * d
    p = fixed if fixed is not None else theta[:npos].reshape(n, d)
    B = theta[npos:].reshape(d, d)
    u = p[ii] - p[jj]
    w = u @ B.T
    J = np.zeros((k if fixed is not None else 2 * k, npos + d * d))
    row = 0
    if fixed is None:
        for a in range(k):
            g = 2.0 * u[a]
            J[row, ii[a] * d:(ii[a] + 1) * d] = g
            J[row, jj[a] * d:(jj[a] + 1) * d] = -g
            row += 1
    for a in range(k):
        J[row, npos:] = 2.0 * np.outer(w[a], u[a]).ravel()
        if fixed is None:
            g = 2.0 * (B.T @ w[a])
            J[row, ii[a] * d:(ii[a] + 1) * d] = g
            J[row, jj[a] * d:(jj[a] + 1) * d] = -g
        row += 1
    return J


def fraction_bareiss(rows):
    """Exact determinant by Bareiss elimination over ``Fraction``.

    The elimination ``linalg.bareiss_det`` ran before it moved to ints, kept
    as its reference: every intermediate is a reduced ``Fraction``.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x) for x in row]
         for row in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return sign * a[n - 1][n - 1]
