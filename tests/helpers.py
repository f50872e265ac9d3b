"""Shared independent oracles for the test suite.

Everything here is deliberately naive: recursive cofactor expansion for
determinants, Gram matrices for volumes, coordinate geometry for side
classification.  These are the references the library is checked against, so
they must not reuse the library's own evaluation paths.
"""

import math
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


def laplace_poly(mat):
    """Determinant of a matrix of constants and variable names as a
    polynomial ``{sorted tuple of names: coefficient}``, by plain recursive
    first-row expansion with no memo; zero terms are dropped."""
    if not mat:
        return {(): 1}
    total = {}
    for j, a in enumerate(mat[0]):
        if not isinstance(a, str) and a == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        for mono, c in laplace_poly(minor).items():
            if isinstance(a, str):
                mono = tuple(sorted(mono + (a,)))
            else:
                c = c * a
            total[mono] = total.get(mono, 0) + (-1) ** j * c
    return {mono: c for mono, c in total.items() if c}


def laplace_entry_derivative(z, index_set, pair):
    """Derivative of the bordered determinant in the symmetric entry
    ``z[pair]``: both places get a fresh symbol ``t``, each term
    ``c * t**p * rest`` becomes ``c * p * t**(p-1) * rest``, and the entry
    is put back for ``t``."""
    i, j = pair
    entry = z[i][j]
    marked = [list(row) for row in z]
    marked[i][j] = marked[j][i] = t = "\x00"
    out = {}
    for mono, c in laplace_poly(bordered_rows(marked, list(index_set))).items():
        power = mono.count(t)
        if not power:
            continue
        rest = [v for v in mono if v != t]
        c *= power
        if isinstance(entry, str):
            rest += [entry] * (power - 1)
        else:
            c *= entry ** (power - 1)
        key = tuple(sorted(rest))
        out[key] = out.get(key, 0) + c
    return {mono: c for mono, c in out.items() if c}


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


def loop_coordinates(D, d):
    """The coordinate step of ``embed``, one candidate and one entry at a time.

    The loops that index arrays replaced, kept as their bitwise reference:
    the same determinant kernel, scales and arithmetic in the same order.
    Returns an (n, d) array and emits no warning.
    """
    from affeq.linalg import bordered_det_batch

    zf = D.as_array()
    pivots, remaining = [0], list(range(1, D.n))
    while len(pivots) < d + 1:
        candidates = [tuple(pivots) + (j,) for j in remaining]
        scales = [D.max_over(I) ** (len(I) - 1) if D.max_over(I) else 1.0
                  for I in candidates]
        norms = np.abs(bordered_det_batch(zf, candidates)) / np.array(scales)
        pivots.append(remaining.pop(int(np.argmax(norms))))
    i0, others = pivots[0], pivots[1:]
    g = np.empty((d, d))
    for a, pa in enumerate(others):
        for b, pb in enumerate(others):
            g[a, b] = (zf[i0, pa] + zf[i0, pb] - zf[pa, pb]) / 2.0
    g = (g + g.T) / 2.0
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        w, q = np.linalg.eigh(g)
        w = np.clip(w, 0.0, None)
        ridge = max(w.max(), 1.0) * 1e-14
        chol = np.linalg.cholesky((q * w) @ q.T + ridge * np.eye(d))
    coords = np.zeros((D.n, d))
    for a, pa in enumerate(others):
        coords[pa] = chol[a]
    non_pivots = [j for j in range(D.n) if j not in pivots]
    if non_pivots:
        rhs = np.empty((d, len(non_pivots)))
        for col, j in enumerate(non_pivots):
            for a, pa in enumerate(others):
                rhs[a, col] = (zf[i0, j] + zf[i0, pa] - zf[pa, j]) / 2.0
        sol = np.linalg.solve(chol, rhs)
        for col, j in enumerate(non_pivots):
            coords[j] = sol[:, col]
    return coords


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



def _spanning_edges(rng, n, density):
    """A random spanning tree plus each other pair with probability density."""
    perm = rng.permutation(n)
    edges = {tuple(sorted((int(perm[t]), int(perm[rng.integers(0, t)]))))
             for t in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < density:
                edges.add((i, j))
    return sorted(edges)


def _corrupted(rng, n, edges, z, zp, factor):
    """Copies of both sides with one free entry of one side times factor."""
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    i, j = free[rng.integers(len(free))]
    z, zp = [list(row) for row in z], [list(row) for row in zp]
    side = z if rng.integers(2) == 0 else zp
    side[i][j] = side[j][i] = factor * side[i][j]
    return z, zp


def check_report_corpus(seed=0):
    """Seeded inputs for the checker's report digest.

    Returns ``(n, d, lengths, z, z_prime, alpha)`` tuples:
    ``lengths`` maps each edge to its two lengths and ``z``, ``z_prime`` are
    row lists for ``SquaredDistanceMatrix(..., allow_negative=True)``.  The
    corpus holds float planted assignments at n 8-14 and d 2-3, the same
    with one free squared distance times 1.5 on one side, integer-lattice
    assignments (planted and corrupted) twice each, one assignment with an
    infinite entry, one with a negative entry and a wrong pinned length,
    and one with every point on a line.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for n, d in [(8, 2), (9, 3), (11, 2), (12, 3), (14, 2), (14, 3)]:
        p = rng.normal(size=(n, d))
        B = np.eye(d) + 0.5 * rng.normal(size=(d, d))
        q = p @ B.T + rng.normal(size=d)
        z = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2).tolist()
        zp = ((q[:, None, :] - q[None, :, :]) ** 2).sum(axis=2).tolist()
        alpha = float(np.linalg.det(B)) ** 2
        edges = _spanning_edges(rng, n, 0.5)
        lengths = {(i, j): (math.sqrt(z[i][j]), math.sqrt(zp[i][j])) for i, j in edges}
        cases.append((n, d, lengths, z, zp, alpha))
        cases.append((n, d, lengths, *_corrupted(rng, n, edges, z, zp, 1.5), alpha))
        if (n, d) == (9, 3):
            bad = [list(row) for row in z]
            bad[0][n - 1] = bad[n - 1][0] = math.inf
            cases.append((n, d, lengths, bad, zp, alpha))
        if (n, d) == (11, 2):
            # a negative free entry, a wrong pinned length, and the points
            # flattened onto a line on both sides
            bad = [list(row) for row in z]
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if (i, j) not in lengths)
            bad[i][j] = bad[j][i] = -bad[i][j]
            wrong = dict(lengths)
            wrong[edges[0]] = (1.1 * lengths[edges[0]][0], lengths[edges[0]][1])
            cases.append((n, d, wrong, bad, zp, alpha))
            x = p[:, :1]
            line = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2).tolist()
            flat = {(i, j): (math.sqrt(line[i][j]), 2 * math.sqrt(line[i][j]))
                    for i, j in edges}
            cases.append((n, d, flat, line, [[4 * v for v in row] for row in line],
                          16.0))

    # Integer points under an integer diagonal map: pairs that differ in
    # one coordinate have integer lengths on both sides and become edges.
    for n, d in [(8, 2), (9, 2), (8, 3)]:
        cells = rng.choice(4**d, size=n, replace=False)
        p = [[int(c) // 4**k % 4 for k in range(d)] for c in cells]
        b = rng.integers(1, 4, size=d).tolist()
        q = [[c * s for c, s in zip(row, b)] for row in p]
        z = squared_distance_rows(p)
        zp = squared_distance_rows(q)
        alpha = math.prod(b) ** 2
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if sum(x != y for x, y in zip(p[i], p[j])) == 1]
        lengths = {(i, j): (math.isqrt(z[i][j]), math.isqrt(zp[i][j])) for i, j in edges}
        # Two rounds: the pinned digest covers both corruption draws.
        for _ in range(2):
            cases.append((n, d, lengths, z, zp, alpha))
            cases.append((n, d, lengths,
                          *_corrupted(rng, n, edges, z, zp, Fraction(3, 2)),
                          alpha))
    return cases


def _rational_sqrt(x):
    """The rational square root of a nonnegative Fraction, or None."""
    x = Fraction(x)
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if Fraction(num * num, den * den) == x else None


def _mirrored(points, j, face):
    """``points`` with vertex j reflected across the hyperplane through the
    d points ``face``, in exact arithmetic (d = 1, 2 or 3)."""
    a = [points[i] for i in face]
    d = len(a[0])
    if d == 1:
        normal = (Fraction(1),)
    elif d == 2:
        u = [x - y for x, y in zip(a[1], a[0])]
        normal = (-u[1], u[0])
    else:
        u = [x - y for x, y in zip(a[1], a[0])]
        v = [x - y for x, y in zip(a[2], a[0])]
        normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                  u[0] * v[1] - u[1] * v[0])
    x = points[j]
    t = 2 * sum((c - o) * m for c, o, m in zip(x, a[0], normal)) / sum(m * m for m in normal)
    out = list(points)
    out[j] = tuple(c - t * m for c, m in zip(x, normal))
    return out


def _exact_lengths(rng, p, q, keep):
    """Each pair whose distance is rational on both point sets, kept with
    probability keep, mapped to its two lengths."""
    n = len(p)
    z, zp = squared_distance_rows(p), squared_distance_rows(q)
    lengths = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = _rational_sqrt(z[i][j]), _rational_sqrt(zp[i][j])
            if a and b and rng.random() < keep:
                lengths[(i, j)] = (a, b)
    return lengths


# Rational maps per dimension: one general map whose columns have rational
# norms (so axis-parallel pairs keep rational lengths) and one similarity
# (a rational rotation times a rational factor, so every rational length
# stays rational).
_EXACT_MAPS = {
    1: [[[Fraction(7, 3)]]],
    2: [[[Fraction(3, 2), Fraction(5, 6)], [Fraction(2), Fraction(2)]],
        [[Fraction(7, 5), Fraction(-28, 15)], [Fraction(28, 15), Fraction(7, 5)]]],
    3: [[[Fraction(1, 2), Fraction(2, 5), Fraction(1, 2)],
         [Fraction(1), Fraction(3, 5), Fraction(3, 2)],
         [Fraction(1), Fraction(6, 5), Fraction(9, 4)]],
        [[Fraction(5, 6), Fraction(5, 3), Fraction(5, 3)],
         [Fraction(5, 3), Fraction(5, 6), Fraction(-5, 3)],
         [Fraction(5, 3), Fraction(-5, 3), Fraction(5, 6)]]],
}


def _exact_pool(d):
    """Rational points at rational distances from each other.

    On a line any rationals will do.  In the plane, a point at angle 2t on a
    circle of radius R with rational sin t and cos t is rational, and two
    such points are 2R|sin(t - u)| apart.  In space, that circle in z = 0
    with radius 3/7, its centre and the points (0, 0, +-4/7).
    """
    if d == 1:
        return [(Fraction(k, m),) for k in range(-6, 7) for m in (2, 3, 5, 7)]
    halves = set()
    for a, b, h in [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]:
        for s, c in [(a, b), (b, a), (-a, b), (-b, a)]:
            halves.add((Fraction(s, h), Fraction(c, h)))
    radius = Fraction(5, 3) if d == 2 else Fraction(3, 7)
    circle = sorted({(radius * (c * c - s * s), radius * 2 * s * c) for s, c in halves})
    if d == 2:
        return circle
    return [(x, y, Fraction(0)) for x, y in circle] + [
        (Fraction(0), Fraction(0), Fraction(h, 7)) for h in (-4, 0, 4)]


def exact_report_corpus(seed=0):
    """Seeded rational inputs for the exact-path digest.

    Returns ``(d, p, q, lengths, cases)`` tuples: points ``p`` with
    ``Fraction`` coordinates of assorted denominators in d = 1, 2 and 3, their
    image ``q`` under a non-diagonal rational map and a rational shift,
    ``lengths`` over the pairs with rational length on both sides, and
    ``cases``, a list of ``(label, lengths, z, z_prime, alpha)``: the planted
    assignment, one free entry negated and one times 3/2 on one side, alpha
    off by 1e-12, and one vertex of ``q`` mirrored across a facet hyperplane
    of the base simplex that ``find_base_simplex`` picks on ``p``.
    """
    from affeq.cmdet import SquaredDistanceMatrix
    from affeq.errors import NoBaseSimplexError
    from affeq.system import find_base_simplex

    rng = np.random.default_rng(seed)
    out = []
    for d, maps in _EXACT_MAPS.items():
        pool = _exact_pool(d)
        for A in maps:
            det = cofactor_det(A)
            shift = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(2, 8)))
                     for _ in range(d)]
            for n in (d + 3, d + 5):
                while True:
                    p = [pool[k] for k in rng.choice(len(pool), size=n, replace=False)]
                    try:
                        base = find_base_simplex(
                            SquaredDistanceMatrix(squared_distance_rows(p)), d)
                    except NoBaseSimplexError:
                        continue
                    break
                q = [tuple(sum(A[r][m] * x[m] for m in range(d)) + shift[r]
                           for r in range(d)) for x in p]
                lengths = _exact_lengths(rng, p, q, 0.9)
                z, zp = squared_distance_rows(p), squared_distance_rows(q)
                alpha = det * det
                free = [(i, j) for i in range(n) for j in range(i + 1, n)
                        if (i, j) not in lengths]
                cases = [("planted", lengths, z, zp, alpha)]
                for label, factor in (("negated", -1), ("times 3/2", Fraction(3, 2))):
                    if not free:
                        break
                    i, j = free[rng.integers(len(free))]
                    pair = [z, zp]
                    side = int(rng.integers(2))
                    pair[side] = [list(row) for row in pair[side]]
                    pair[side][i][j] = pair[side][j][i] = factor * pair[side][i][j]
                    cases.append((label, lengths, *pair, alpha))
                cases.append(("alpha", lengths, z, zp, alpha + Fraction(1, 10**12)))
                j = next(v for v in range(n) if v not in base)
                face = base[1:]
                qm = _mirrored(q, j, face)
                cases.append(("mirrored", _exact_lengths(rng, p, qm, 0.9), z,
                              squared_distance_rows(qm), alpha))
                out.append((d, p, q, lengths, cases))
    return out
