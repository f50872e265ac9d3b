"""Correctness checks made without affeq.

Every function here re-derives the property an answer must have from the
benchmark's own numpy or exact integer arithmetic; none imports affeq.  The
certificate and text checks return ``None`` when the answer holds and a
short reason string when not; the deciders return the expected answer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Relative tolerances for float answers.  A certificate the solver accepts
# meets 1e-6 relative to the diameter; anything wrong is off by far more.
CERT_TOL = 1e-5
# A centred Gram eigenvalue beyond this share of the largest one is real.
GRAM_TOL = 1e-7


# -- float certificates ------------------------------------------------------


def float_certificate(edges, lam, lam_prime, d, p, q, matrix, shift):
    """Edge lengths on both sides, map residual and affine rank of a YES."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    B = np.asarray(matrix, dtype=float)
    b = np.asarray(shift, dtype=float)
    if p.shape != q.shape or p.shape[1] != d or B.shape != (d, d):
        return "certificate has the wrong shape"
    for pts, lengths, side in ((p, lam, "first"), (q, lam_prime, "second")):
        diam = _diameter(pts)
        ii, jj = np.asarray(edges).T
        got = np.linalg.norm(pts[ii] - pts[jj], axis=1)
        gap = np.abs(got - np.asarray(lengths, dtype=float)).max(initial=0.0)
        if not gap <= CERT_TOL * diam:
            return f"{side} framework misses an edge length by {gap:.3g}"
    diam_q = _diameter(q)
    residual = np.linalg.norm(p @ B.T + b - q, axis=1).max()
    if not residual <= CERT_TOL * diam_q:
        return f"map residual {residual:.3g}"
    for pts, side in ((p, "first"), (q, "second")):
        sv = np.linalg.svd(pts - pts[0], compute_uv=False)
        if len(sv) < d or not sv[d - 1] > 1e-8 * max(sv[0], 1e-300):
            return f"{side} framework does not span dimension {d}"
    return None


def _diameter(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2).max()))


def _centred_gram(z):
    n = len(z)
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    return -0.5 * J @ np.asarray(z, dtype=float) @ J


def float_embeds(z, d):
    """True when z embeds in R^d (Schoenberg): the centred Gram matrix
    -J z J / 2 is positive semidefinite of rank at most d, up to GRAM_TOL."""
    w = np.linalg.eigvalsh(_centred_gram(z))[::-1]
    top = max(w[0], 1e-300)
    beyond = w[d:] if len(w) > d else np.zeros(1)
    return bool(w[-1] >= -GRAM_TOL * top and beyond.max() <= GRAM_TOL * top)


def float_assignment_feasible(z, z_prime, edges, lam, lam_prime, alpha, d):
    """True when the assignment is realized by frameworks in R^d related by
    an affine map with det**2 = alpha: both sides embed, edges carry the
    prescribed squared lengths, and the affine fit between the two classical
    embeddings is exact."""
    z = np.asarray(z, dtype=float)
    zp = np.asarray(z_prime, dtype=float)
    for mat, lengths in ((z, lam), (zp, lam_prime)):
        if not float_embeds(mat, d):
            return False
        for (i, j), length in zip(edges, lengths):
            if abs(mat[i, j] - length * length) > 1e-9 * mat.max():
                return False
    p, q = _classical_embedding(z, d), _classical_embedding(zp, d)
    design = np.hstack([p, np.ones((len(p), 1))])
    coef, *_ = np.linalg.lstsq(design, q, rcond=None)
    if np.linalg.norm(design @ coef - q, axis=1).max() > 1e-6 * _diameter(q):
        return False
    det2 = float(np.linalg.det(coef[:d])) ** 2
    return abs(det2 - float(alpha)) <= 1e-6 * abs(float(alpha))


def _classical_embedding(z, d):
    w, v = np.linalg.eigh(_centred_gram(z))
    w, v = w[::-1][:d], v[:, ::-1][:, :d]
    return v * np.sqrt(np.clip(w, 0.0, None))


# -- exact arithmetic --------------------------------------------------------


def exact_inertia(rows):
    """(rank, has_negative) of a symmetric rational matrix.

    Symmetric elimination on diagonal pivots; by Sylvester's law the pivot
    signs are the eigenvalue signs.  A zero diagonal beside a nonzero entry
    of its row makes the matrix indefinite.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    live = list(range(len(a)))
    rank = 0
    while live:
        piv = next((i for i in live if a[i][i] != 0), None)
        if piv is None:
            return rank, any(a[i][j] != 0 for i in live for j in live)
        if a[piv][piv] < 0:
            return rank, True
        live.remove(piv)
        for i in live:
            f = a[i][piv] / a[piv][piv]
            if f:
                for j in live:
                    a[i][j] -= f * a[piv][j]
        rank += 1
    return rank, False


def exact_centred_gram(z):
    n = len(z)
    row = [sum(Fraction(x) for x in r) / n for r in z]
    total = sum(row) / n
    return [[-(Fraction(z[i][j]) - row[i] - row[j] + total) / 2 for j in range(n)]
            for i in range(n)]


def exact_embeds(z, d):
    """Exact Schoenberg test: centred Gram PSD with rank at most d."""
    rank, negative = exact_inertia(exact_centred_gram(z))
    return not negative and rank <= d


def exact_certificate(edges, lam, lam_prime, d, p, q, matrix, shift):
    """Exact re-check of a YES on rational input."""
    if len(p) != len(q) or any(len(pt) != d for pt in p + q):
        return "certificate has the wrong shape"
    for pts, lengths, side in ((p, lam, "first"), (q, lam_prime, "second")):
        for (i, j), length in zip(edges, lengths):
            if sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])) != length * length:
                return f"{side} framework misses edge ({i}, {j})"
    for pt, image in zip(p, q):
        mapped = [sum(m * x for m, x in zip(row, pt)) + s for row, s in zip(matrix, shift)]
        if mapped != list(image):
            return "map does not send the first framework onto the second"
    if exact_rank([[a - b for a, b in zip(pt, p[0])] for pt in p]) != d:
        return f"first framework does not span dimension {d}"
    return None


def exact_det(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def exact_rank(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    rank, col, ncol = 0, 0, len(a[0]) if a else 0
    while rank < len(a) and col < ncol:
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def line_feasible(n, edges, lam, lam_prime):
    """Brute-force decision of a d = 1 instance.

    An affine map of the line scales every length by one factor, so the
    ratios lam_prime/lam must agree; and the first lengths must be placeable
    on the line, found by trying both orientations of every spanning-tree
    edge of every component.
    """
    if len({Fraction(b) / Fraction(a) for a, b in zip(lam, lam_prime)}) > 1:
        return False
    length = {e: Fraction(v) for e, v in zip(edges, lam)}
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = set()
    for root in range(n):
        if root in seen:
            continue
        tree, order = [], [root]
        seen.add(root)
        for i in order:
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    order.append(j)
                    tree.append((i, j))
        comp = set(order)
        comp_edges = [e for e in edges if e[0] in comp]
        for signs in itertools.product((1, -1), repeat=len(tree)):
            x = {root: Fraction(0)}
            for (i, j), s in zip(tree, signs):
                x[j] = x[i] + s * length[(min(i, j), max(i, j))]
            if all(abs(x[i] - x[j]) == length[(i, j)] for i, j in comp_edges):
                break
        else:
            return False
    return True


def smt_counts(n, d, n_edges):
    """Declared constants and assertions export-smt must emit."""
    free = math.comb(n, 2) - n_edges
    declares = 2 * free + 1
    asserts = 2 * free + 1
    asserts += sum(2 * math.comb(n, s) for s in range(3, min(d + 1, n) + 1))
    if n >= d + 2:
        asserts += 2 * math.comb(n, d + 2)
    asserts += math.comb(n, d + 1) + 1
    return declares, asserts


def smt_text(text, n, d, n_edges):
    """Balanced s-expressions and the declaration and assertion counts."""
    depth = 0
    declares = asserts = 0
    for line in text.splitlines():
        if line.startswith(";"):
            continue
        declares += line.startswith("(declare-const ")
        asserts += line.startswith("(assert ")
        for ch in line:
            depth += (ch == "(") - (ch == ")")
            if depth < 0:
                return "unbalanced parentheses"
    if depth:
        return "unbalanced parentheses"
    want = smt_counts(n, d, n_edges)
    if (declares, asserts) != want:
        return f"{declares} declarations and {asserts} assertions, want {want}"
    return None
