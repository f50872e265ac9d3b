"""Export of the feasibility system as quantifier-free nonlinear real
arithmetic (SMT-LIB 2, logic QF_NRA).

Pinned squared lengths are substituted as rational constants, so the
exported problem ranges only over the free (non-edge) squared distances of
both sides plus the ratio ``alpha``.  Bordered determinants are expanded
symbolically into polynomials over those variables; each constraint family
member becomes one assertion:

  * nonnegativity of every free variable and positivity of ``alpha``;
  * the alternating sign rule on subsets of at most d+1 vertices;
  * flatness of every subset of d+2 vertices;
  * the common-ratio equation per (d+1)-subset;
  * one disjunction over candidate base simplices, each disjunct combining
    strict nondegeneracy with the matched side-classification sign tests
    (``false`` when fewer than d+1 vertices leave no candidate).

The subsets are the checker's own, from :func:`affeq.cmdet._subsets`, and
the side tests those of :func:`affeq.system._side_checks`.  Each side is an
n x n table whose entries are rational constants (pinned squared lengths)
or variable names (free pairs).  The bordered determinant of k generic
points, laid out by :func:`affeq.linalg.bordered_stack` as for the numeric
kernels, is expanded once per size k, and every k-subset's polynomial is
that expansion with the side's table entries substituted in.  A side
test's linear form is twice the cofactor of the tested entry in the
bordered matrix, the same identity the checker evaluates numerically; it
too is expanded once per size and entry position and substituted per
subset.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .cmdet import _subsets
from .errors import InputError
from .linalg import bordered_stack, to_fraction
from .system import Instance, _side_checks


def variable_name(side: str, i: int, j: int) -> str:
    """SMT variable for the squared distance of a free pair."""
    if side not in ("z", "z_prime"):
        raise InputError("side must be 'z' or 'z_prime'")
    i, j = min(i, j), max(i, j)
    prefix = "z" if side == "z" else "zp"
    return f"{prefix}_{i}_{j}"


# -- polynomials as {monomial tuple: int or Fraction} ------------------------


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        c = out.get(mono, 0) + coeff
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)
    return out


def _pmul_entry(p: dict, entry) -> dict:
    """``p`` times a table entry: a variable name or a nonzero constant."""
    if isinstance(entry, str):
        return {tuple(sorted(mono + (entry,))): coeff for mono, coeff in p.items()}
    return {mono: coeff * entry for mono, coeff in p.items()}


def _pneg(p: dict) -> dict:
    return {mono: -coeff for mono, coeff in p.items()}


def _det(rows) -> dict:
    """Determinant of a matrix of rational constants and variable names, by
    first-row expansion with memoized minors."""
    size = len(rows)
    memo = {}

    def minor(r, cols):
        if r == size:
            return {(): 1}
        key = (r, cols)
        if key in memo:
            return memo[key]
        total = {}
        for idx, c in enumerate(cols):
            entry = rows[r][c]
            if not isinstance(entry, str) and entry == 0:
                continue
            term = _pmul_entry(minor(r + 1, cols[:idx] + cols[idx + 1:]), entry)
            total = _padd(total, _pneg(term) if idx % 2 else term)
        memo[key] = total
        return total

    return minor(0, tuple(range(size)))


@functools.lru_cache(maxsize=None)
def _template(k: int, pair=None) -> tuple:
    """The bordered determinant of k generic points, expanded once.

    Each of the k(k-1)/2 symmetric entries of the point block is a symbol,
    numbered in ``itertools.combinations(range(k), 2)`` order, and the
    expansion is stored as ``(coeff, positions)`` terms, where ``positions``
    lists the number of each factor's entry.  With ``pair = (a, b)``,
    ``a < b``, the terms are those of the derivative in that entry: twice
    its cofactor, since the entry sits at two symmetric places.
    """
    pairs = itertools.combinations(range(k), 2)
    symbols = {f"{a} {b}": p for p, (a, b) in enumerate(pairs)}
    generic = [[f"{min(a, b)} {max(a, b)}" if a != b else 0 for b in range(k)]
               for a in range(k)]
    rows = bordered_stack(np.array(generic, dtype=object), [range(k)])[0].tolist()
    sign = 1
    if pair is not None:
        a, b = pair[0] + 1, pair[1] + 1
        rows = [row[:b] + row[b + 1:] for r, row in enumerate(rows) if r != a]
        sign = 2 * (-1) ** (a + b)
    return tuple((sign * coeff, tuple(symbols[s] for s in mono))
                 for mono, coeff in _det(rows).items())


def _substitute(template, subset, table) -> dict:
    """A template's polynomial on ``subset``: constant entries of the table
    are multiplied into each coefficient and variable names collected into
    its monomial."""
    entries = [table[i][j] for i, j in itertools.combinations(subset, 2)]
    # Constants are scaled to ints over one common denominator, so a term
    # costs int products only; every term has the template's degree, so a
    # monomial with m constant factors is divided by den**m once, at the end.
    den = math.lcm(*(e.denominator for e in entries if not isinstance(e, str)))
    if den != 1:
        entries = [e if isinstance(e, str) else int(e * den) for e in entries]
    out = {}
    for coeff, positions in template:
        names = []
        for p in positions:
            entry = entries[p]
            if isinstance(entry, str):
                names.append(entry)
            else:
                coeff *= entry
        mono = tuple(sorted(names))
        out[mono] = out.get(mono, 0) + coeff
    if den == 1:
        return {mono: coeff for mono, coeff in out.items() if coeff}
    degree = len(template[0][1])
    return {mono: Fraction(coeff, den ** (degree - len(mono)))
            for mono, coeff in out.items() if coeff}


def _cmd_poly(subset, table) -> dict:
    """Bordered determinant of the subset as a polynomial."""
    return _substitute(_template(len(subset)), subset, table)


def _linear_form(subset, pair, table) -> dict:
    """Derivative of the subset's bordered determinant in the entry of
    ``pair``: twice that entry's cofactor, as in ``cmdet._linear_forms``."""
    a, b = sorted((subset.index(pair[0]), subset.index(pair[1])))
    return _substitute(_template(len(subset), (a, b)), subset, table)


def _coeff_text(c) -> str:
    mag = (str(abs(c.numerator)) if c.denominator == 1
           else f"(/ {abs(c.numerator)} {c.denominator})")
    return f"(- {mag})" if c < 0 else mag


def _poly_text(p: dict) -> str:
    terms = []
    for mono in sorted(p):
        coeff = p[mono]
        if coeff == 0:
            continue
        factors = list(mono)
        if not factors:
            terms.append(_coeff_text(coeff))
            continue
        if abs(coeff) != 1:
            factors = [_coeff_text(abs(coeff))] + factors
        body = factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")"
        terms.append(f"(- {body})" if coeff < 0 else body)
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


# -- system emission ----------------------------------------------------------


def export_smt(inst: Instance) -> str:
    """SMT-LIB 2 text whose models are exactly the passing assignments."""
    if not isinstance(inst, Instance):
        raise InputError("export_smt expects an Instance")
    n, d = inst.n, inst.d

    def subsets(size):
        return [tuple(s) for s in _subsets(n, size).tolist()]

    def table(side, lengths):
        # Exact binary squares of float lengths; ints where they are
        # integral, so integer data stays in int arithmetic.
        tab = [[variable_name(side, i, j) if i != j else 0 for j in range(n)]
               for i in range(n)]
        for (i, j), v in zip(inst.edges, lengths):
            c = to_fraction(v) ** 2
            tab[i][j] = tab[j][i] = c.numerator if c.denominator == 1 else c
        return tab

    free_pairs = [pair for pair in subsets(2) if pair not in inst.edge_set]
    simplices = subsets(d + 1)
    sides = (("z", table("z", inst.lam)),
             ("z_prime", table("z_prime", inst.lam_prime)))
    # Each (d+1)-subset determinant serves the sign rule, the ratio
    # equation and the base disjuncts; its text and that of its signed form
    # (negated for an odd size, as the sign rule wants) are printed once.
    simplex = {}
    for name, tab in sides:
        for s in simplices:
            poly = _cmd_poly(s, tab)
            text = _poly_text(poly)
            simplex[name, s] = text, _poly_text(_pneg(poly)) if (d + 1) % 2 else text
    out = [
        "(set-logic QF_NRA)",
        f"; squared-distance feasibility system: n={n}, d={d}, "
        f"{len(free_pairs)} free pairs per side",
        "; pinned entries are substituted as rational constants",
    ]
    for i, j in free_pairs:
        out.append(f"(declare-const {variable_name('z', i, j)} Real)")
        out.append(f"(declare-const {variable_name('z_prime', i, j)} Real)")
    out.append("(declare-const alpha Real)")

    out.append("; nonnegativity of free squared distances, positivity of alpha")
    for i, j in free_pairs:
        out.append(f"(assert (>= {variable_name('z', i, j)} 0))")
        out.append(f"(assert (>= {variable_name('z_prime', i, j)} 0))")
    out.append("(assert (> alpha 0))")

    # Sizes 1 and 2 are left out: there the sign rule is nonnegativity.
    for size in range(3, min(d + 1, n) + 1):
        out.append(f"; sign rule on subsets of {size} vertices")
        for subset in subsets(size):
            for name, tab in sides:
                if size == d + 1:
                    text = simplex[name, subset][1]
                else:
                    poly = _cmd_poly(subset, tab)
                    text = _poly_text(_pneg(poly) if size % 2 else poly)
                out.append(f"; subset {subset}, side {name}")
                out.append(f"(assert (>= {text} 0))")

    if n >= d + 2:
        out.append(f"; flatness of subsets of {d + 2} vertices")
        for subset in subsets(d + 2):
            for name, tab in sides:
                out.append(f"; subset {subset}, side {name}")
                out.append(f"(assert (= {_poly_text(_cmd_poly(subset, tab))} 0))")

    out.append("; common determinant ratio on subsets of d+1 vertices")
    for subset in simplices:
        lhs, rhs = simplex["z_prime", subset][0], simplex["z", subset][0]
        out.append(f"; subset {subset}")
        out.append(f"(assert (= {lhs} (* alpha {rhs})))")

    # Each side-test form once per side: the two bases that leave out either
    # end of a pair give the same subset and pair, and the bordered matrix is
    # symmetric, so the form does not depend on the pair's order.
    forms = {}

    def form_text(name, tab, subset, pair):
        key = (name, subset, frozenset(pair))
        if key not in forms:
            forms[key] = _poly_text(_linear_form(subset, pair, tab))
        return forms[key]

    out.append("; some base simplex is nondegenerate and matches all side tests")
    disjuncts = []
    for base in simplices:
        clauses = [f"(> {simplex['z', base][1]} 0)"]
        for _, _, subset, pair in _side_checks(n, base):
            lz, lp = (form_text(name, tab, subset, pair) for name, tab in sides)
            clauses.append(f"(and (= (> {lz} 0) (> {lp} 0)) "
                           f"(= (< {lz} 0) (< {lp} 0)))")
        disjuncts.append("(and " + " ".join(clauses) + ")" if len(clauses) > 1
                         else clauses[0])
    if not disjuncts:
        # Fewer than d+1 vertices: no base simplex, and core `or` needs two
        # arguments, so the empty disjunction is written as false.
        out.append("(assert false)")
    elif len(disjuncts) == 1:
        out.append(f"(assert {disjuncts[0]})")
    else:
        out.append("(assert (or " + " ".join(disjuncts) + "))")

    out.append("(check-sat)")
    out.append("(get-model)")
    return "\n".join(out) + "\n"
