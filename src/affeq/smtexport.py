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
    strict nondegeneracy with the matched side-classification sign tests.

The subsets and side tests are those of :func:`affeq.system.build_system`.
A side test's linear form is twice the cofactor of the tested entry in the
bordered matrix, the same identity the checker evaluates numerically.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InputError
from .linalg import to_fraction
from .system import Instance, build_system

_CONST_ZERO = ("const", Fraction(0))
_CONST_ONE = ("const", Fraction(1))


def variable_name(side: str, i: int, j: int) -> str:
    """SMT variable for the squared distance of a free pair."""
    if side not in ("z", "z_prime"):
        raise InputError("side must be 'z' or 'z_prime'")
    i, j = min(i, j), max(i, j)
    prefix = "z" if side == "z" else "zp"
    return f"{prefix}_{i}_{j}"


# -- polynomials as {monomial tuple: Fraction} -------------------------------


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        c = out.get(mono, Fraction(0)) + coeff
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)
    return out


def _pmul_entry(p: dict, entry) -> dict:
    kind, payload = entry
    out = {}
    if kind == "const":
        if payload == 0:
            return out
        for mono, coeff in p.items():
            out[mono] = coeff * payload
        return out
    for mono, coeff in p.items():
        out[tuple(sorted(mono + (payload,)))] = coeff
    return out


def _pneg(p: dict) -> dict:
    return {mono: -coeff for mono, coeff in p.items()}


def _det(rows) -> dict:
    """Determinant of a matrix of ('const', Fraction) / ('var', name)
    entries, by first-row expansion with memoized minors."""
    size = len(rows)
    memo = {}

    def minor(r, cols):
        if r == size:
            return {(): Fraction(1)}
        key = (r, cols)
        if key in memo:
            return memo[key]
        total = {}
        for idx, c in enumerate(cols):
            entry = rows[r][c]
            if entry[0] == "const" and entry[1] == 0:
                continue
            term = _pmul_entry(minor(r + 1, cols[:idx] + cols[idx + 1:]), entry)
            total = _padd(total, _pneg(term) if idx % 2 else term)
        memo[key] = total
        return total

    return minor(0, tuple(range(size)))


def _bordered_rows(subset, entry_fn):
    k = len(subset)
    rows = [[_CONST_ZERO] + [_CONST_ONE] * k]
    for a, i in enumerate(subset):
        row = [_CONST_ONE]
        for b, j in enumerate(subset):
            row.append(_CONST_ZERO if a == b else entry_fn(i, j))
        rows.append(row)
    return rows


def _cmd_poly(subset, entry_fn) -> dict:
    """Bordered determinant of the subset as a polynomial."""
    return _det(_bordered_rows(subset, entry_fn))


def _linear_form(subset, pair, entry_fn) -> dict:
    """Derivative of the subset's bordered determinant in the entry of
    ``pair``: twice that entry's cofactor, as in ``cmdet._linear_forms``."""
    a, b = subset.index(pair[0]) + 1, subset.index(pair[1]) + 1
    minor = [row[:b] + row[b + 1:]
             for k, row in enumerate(_bordered_rows(subset, entry_fn)) if k != a]
    sign = 2 * (-1) ** (a + b)
    return {mono: sign * coeff for mono, coeff in _det(minor).items()}


def _coeff_text(c: Fraction) -> str:
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
    desc = build_system(inst)

    def entries(side, lengths):
        # Exact binary squares of float lengths, unlike desc.pinned.
        pinned = {e: to_fraction(v) ** 2 for e, v in zip(inst.edges, lengths)}

        def entry(i, j):
            key = (min(i, j), max(i, j))
            if key in pinned:
                return ("const", pinned[key])
            return ("var", variable_name(side, i, j))
        return entry

    sides = (("z", entries("z", inst.lam)),
             ("z_prime", entries("z_prime", inst.lam_prime)))
    # Each (d+1)-subset determinant serves the sign rule, the ratio
    # equation and the base disjuncts.
    simplex = {name: {s: _cmd_poly(s, fn) for s in desc.simplex_subsets}
               for name, fn in sides}
    out = [
        "(set-logic QF_NRA)",
        f"; squared-distance feasibility system: n={n}, d={d}, "
        f"{len(desc.free_pairs)} free pairs per side",
        "; pinned entries are substituted as rational constants",
    ]
    for i, j in desc.free_pairs:
        out.append(f"(declare-const {variable_name('z', i, j)} Real)")
        out.append(f"(declare-const {variable_name('z_prime', i, j)} Real)")
    out.append("(declare-const alpha Real)")

    out.append("; nonnegativity of free squared distances, positivity of alpha")
    for i, j in desc.free_pairs:
        out.append(f"(assert (>= {variable_name('z', i, j)} 0))")
        out.append(f"(assert (>= {variable_name('z_prime', i, j)} 0))")
    out.append("(assert (> alpha 0))")

    for size, subsets in itertools.groupby(desc.sign_subsets, len):
        out.append(f"; sign rule on subsets of {size} vertices")
        for subset in subsets:
            for name, fn in sides:
                poly = simplex[name][subset] if size == d + 1 else _cmd_poly(subset, fn)
                if size % 2:
                    poly = _pneg(poly)
                out.append(f"; subset {subset}, side {name}")
                out.append(f"(assert (>= {_poly_text(poly)} 0))")

    if desc.vanish_subsets:
        out.append(f"; flatness of subsets of {d + 2} vertices")
        for subset in desc.vanish_subsets:
            for name, fn in sides:
                out.append(f"; subset {subset}, side {name}")
                out.append(f"(assert (= {_poly_text(_cmd_poly(subset, fn))} 0))")

    out.append("; common determinant ratio on subsets of d+1 vertices")
    for subset in desc.simplex_subsets:
        lhs = _poly_text(simplex["z_prime"][subset])
        rhs = _poly_text(simplex["z"][subset])
        out.append(f"; subset {subset}")
        out.append(f"(assert (= {lhs} (* alpha {rhs})))")

    out.append("; some base simplex is nondegenerate and matches all side tests")
    disjuncts = []
    for base in desc.simplex_subsets:
        poly = simplex["z"][base]
        clauses = [f"(> {_poly_text(_pneg(poly) if (d + 1) % 2 else poly)} 0)"]
        for _, _, subset, pair in desc.side_checks(base):
            lz, lp = (_poly_text(_linear_form(subset, pair, fn)) for _, fn in sides)
            clauses.append(f"(and (= (> {lz} 0) (> {lp} 0)) "
                           f"(= (< {lz} 0) (< {lp} 0)))")
        disjuncts.append("(and " + " ".join(clauses) + ")" if len(clauses) > 1
                         else clauses[0])
    if len(disjuncts) == 1:
        out.append(f"(assert {disjuncts[0]})")
    else:
        out.append("(assert (or " + " ".join(disjuncts) + "))")

    out.append("(check-sat)")
    out.append("(get-model)")
    return "\n".join(out) + "\n"
