"""Feasibility system for pairs of edge-length assignments.

Given a graph with prescribed edge lengths ``lam`` and ``lam_prime`` and a
candidate assignment of squared distances ``(z, z_prime)`` together with a
ratio ``alpha``, this module enumerates and checks the constraint families
that characterize the existence of two affinely equivalent frameworks with
those edge lengths.  The families are numbered 6 through 12 throughout the
package:

    (6)  every squared distance is nonnegative,
    (7)  squared distances on edges equal the prescribed squared lengths,
    (8)  bordered determinants carry the legal sign on every subset of at
         most d+1 vertices,
    (9)  some (d+1)-subset (the base simplex) has a nonvanishing determinant
         on ``z``; family 11 carries it over to ``z_prime``,
    (10) bordered determinants vanish on every (d+2)-subset,
    (11) the determinant ratio between the two sides is the common constant
         alpha on every (d+1)-subset,
    (12) for every vertex outside the base simplex, the two sides classify
         the vertex against each face hyperplane identically.

Checking never raises on a failing condition; failures are reported with a
worst witness and a residual in the units of the original instance.

Arithmetic follows the package rule (see :mod:`affeq.cmdet`).  Each side is
rescaled by a prescribed squared length and evaluated in the type of the
result, so a rational assignment is evaluated exactly only when the
instance's lengths are rational too.  A side is decided exactly when its
assignment and the instance's lengths are rational; otherwise every test
follows :class:`Tolerances`.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .cmdet import (
    SquaredDistanceMatrix,
    _defects,
    _evaluate,
    _linear_forms,
    _floats,
    _Rule,
    _subset_max,
    _subsets,
    _value,
    cmd,
    subset_scale,
)
from .errors import InputError, NoBaseSimplexError, PreconditionError, RatioSignError
from .linalg import is_exact_value

CONDITION_KEYS = ("6", "7", "8", "9", "10", "11", "12")

CONDITION_LABELS = {
    "6": "nonnegativity",
    "7": "edge pinning",
    "8": "subset sign rule",
    "9": "base simplex",
    "10": "flatness beyond dimension",
    "11": "common determinant ratio",
    "12": "matched side classification",
}


def _canonical_edge(i, j):
    if not isinstance(i, int) or not isinstance(j, int):
        raise InputError("vertex indices must be integers")
    if i == j:
        raise InputError(f"self-loop at vertex {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Instance:
    """A graph with two finite, positive length prescriptions on its edges.

    ``lam[k]`` and ``lam_prime[k]`` are the lengths of ``edges[k]``.  Edges
    are stored with the smaller endpoint first; bar endpoints must be
    distinct, so lengths must be strictly positive.
    """

    n: int
    d: int
    edges: tuple
    lam: tuple
    lam_prime: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError("vertex count must be a positive integer")
        if not isinstance(self.d, int) or self.d < 1:
            raise InputError("dimension must be a positive integer")
        edges = tuple(_canonical_edge(i, j) for i, j in self.edges)
        for i, j in edges:
            if not 0 <= i < self.n or not 0 <= j < self.n:
                raise InputError(f"edge ({i}, {j}) out of range for n={self.n}")
        if len(set(edges)) != len(edges):
            raise InputError("duplicate edge")
        lam = tuple(self.lam)
        lam_prime = tuple(self.lam_prime)
        if len(lam) != len(edges) or len(lam_prime) != len(edges):
            raise InputError("length lists must match the edge list")
        for value in lam + lam_prime:
            # math.isfinite would overflow on a huge int.
            if not (is_exact_value(value) or math.isfinite(value)):
                raise InputError("edge lengths must be finite")
            if not value > 0:
                raise InputError("edge lengths must be positive")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam_prime", lam_prime)

    @classmethod
    def from_lengths(cls, n, d, lengths):
        """Build from a mapping {(i, j): (lam, lam_prime)}."""
        edges, lam, lam_prime = [], [], []
        for (i, j), (a, b) in sorted(lengths.items()):
            edges.append((i, j))
            lam.append(a)
            lam_prime.append(b)
        return cls(n, d, tuple(edges), tuple(lam), tuple(lam_prime))

    @property
    def exact(self) -> bool:
        return all(is_exact_value(v) for v in self.lam + self.lam_prime)

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def lam_sq(self) -> dict:
        return {e: v * v for e, v in zip(self.edges, self.lam)}

    def lam_prime_sq(self) -> dict:
        return {e: v * v for e, v in zip(self.edges, self.lam_prime)}

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2


@dataclass(frozen=True)
class Assignment:
    """Candidate values: two squared-distance matrices and a finite, positive
    ratio."""

    z: SquaredDistanceMatrix
    z_prime: SquaredDistanceMatrix
    alpha: object

    def __post_init__(self):
        if self.z.n != self.z_prime.n:
            raise InputError("the two matrices must have the same size")
        # math.isfinite would overflow on a huge int.
        if not (is_exact_value(self.alpha) or math.isfinite(self.alpha)):
            raise InputError("alpha must be finite")
        if not self.alpha > 0:
            raise InputError("alpha must be positive")

    @property
    def exact(self) -> bool:
        return self.z.exact and self.z_prime.exact and is_exact_value(self.alpha)


# Relative deviation of a subset's determinant ratio from alpha that is forgiven.
ALPHA_REL = 1e-6
# Normalized size below which a determinant counts as vanishing for the ratio
# and side tests.
VANISH_CUTOFF = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Floating-point comparison policy.

    ``rel_eps`` scales every zero and sign test by the subset magnitude
    M^degree, where M is the largest entry over the subset involved.  The
    ratio and side tests also use the fixed ``ALPHA_REL`` and
    ``VANISH_CUTOFF``.  A side decided exactly (rational assignment and
    rational lengths) ignores all three; every other side follows them.
    """

    rel_eps: float = 1e-9

    def __post_init__(self):
        if not 0 < self.rel_eps < math.inf:
            raise InputError("rel_eps must be positive and finite")


def _side_checks(n, base):
    """Condition (12)'s tests over a base simplex, as ``(j, r, subset, pair)``
    tuples: for each vertex j outside the base (ascending) and each base
    vertex ``base[r]``, the sorted (d+2)-subset ``base + (j,)`` and the pair
    ``(base[r], j)`` whose entry the side test varies."""
    base = tuple(base)
    return tuple((j, r, tuple(sorted(base + (j,))), (i_r, j))
                 for j in range(n) if j not in base for r, i_r in enumerate(base))


def find_base_simplex(z: SquaredDistanceMatrix, d: int, rel_eps: float = 1e-9):
    """The (d+1)-subset with the largest normalized determinant magnitude.

    Normalization divides by M^d with M the largest entry over the subset,
    which makes the choice invariant under rescaling all distances.
    Candidates whose margin is within relative 1e-6 of the maximum count as
    tied, and the lexicographically first tied subset wins; this keeps the
    choice stable when several simplices are equally good up to roundoff.

    The nonvanishing test compares exactly against zero when ``z`` is exact
    and against ``rel_eps`` times the subset magnitude otherwise.
    """
    rule = _Rule(z.exact, rel_eps)
    subsets = _subsets(z.n, d + 1)
    return _pick_base(z, d, rule, subsets, *_evaluate(z, subsets))


def _pick_base(z, d, rule, subsets, dets, scales, power):
    """Base simplex from ``_evaluate`` on the (d+1)-subsets; see find_base_simplex."""
    if z.n < d + 1:
        raise NoBaseSimplexError(f"need at least {d + 1} vertices, have {z.n}")
    candidates = np.flatnonzero(rule.signs(dets, scales, power=power) != 0)
    if not candidates.size:
        raise NoBaseSimplexError(
            f"every {d + 1}-subset has a vanishing determinant"
        )
    margins = np.abs(_floats(dets[candidates], power)) / scales[candidates]
    # As Python's max: a NaN first margin stays the maximum, later NaNs never win.
    top = margins[0] if np.isnan(margins[0]) else np.nanmax(margins)
    tied = np.flatnonzero(margins >= top * (1.0 - 1e-6))
    return tuple(subsets[candidates[tied[0] if tied.size else 0]].tolist())


def estimate_alpha(z, z_prime, base, rel_eps: float = 1e-9):
    """Determinant ratio of the primed to the unprimed side over a base."""
    rule = _Rule(z.exact and z_prime.exact, rel_eps)
    u = cmd(z, base)
    v = cmd(z_prime, base)
    if rule.sign(u, subset_scale(z, base)) == 0:
        raise PreconditionError("base simplex determinant vanishes")
    ratio = v / u
    if not ratio > 0:
        raise RatioSignError(
            f"determinant ratio over base {tuple(base)} is {ratio}, not positive"
        )
    return ratio


@dataclass(frozen=True)
class ConditionEntry:
    key: str
    passed: bool
    witness: Optional[dict] = field(default=None, hash=False)
    residual: object = 0
    note: Optional[str] = None

    @property
    def label(self) -> str:
        return CONDITION_LABELS[self.key]

    def to_dict(self) -> dict:
        return {
            "condition": self.key,
            "label": self.label,
            "passed": self.passed,
            "witness": _jsonable(self.witness),
            "residual": _jsonable(self.residual),
            "note": self.note,
        }


@dataclass(frozen=True)
class ConditionReport:
    entries: tuple
    base_simplex: Optional[tuple]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, key: str) -> ConditionEntry:
        for e in self.entries:
            if e.key == key:
                return e
        raise KeyError(key)

    def first_failure(self) -> Optional[ConditionEntry]:
        for e in self.entries:
            if not e.passed:
                return e
        return None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "base_simplex": list(self.base_simplex) if self.base_simplex else None,
            "conditions": [e.to_dict() for e in self.entries],
        }


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return value
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    return str(value)


class _Family:
    """Collects the worst violation of one condition family.

    Violations are ranked by a scale-free magnitude; magnitudes within
    relative ``tie`` of the worst so far count as tied, and ties keep the
    first (lexicographically earliest) witness, so reports do not depend on
    roundoff or enumeration implementation details.
    """

    def __init__(self, key, tie):
        self.key = key
        self.tie = tie
        self.worst = None
        self.witness = None
        self.residual = 0
        self.note = None

    def fail(self, magnitude, witness, residual):
        magnitude = float(magnitude)
        if self.worst is None or magnitude > self.worst * (1.0 + self.tie):
            self.worst = magnitude
            self.witness = witness
            self.residual = residual

    def fail_subsets(self, name, idx, dets, scales, power, flagged, c):
        """:meth:`fail` for each flagged row of ``idx`` in order, with magnitude
        ``|value| / scale`` and residual ``|value| * c**(|I|-1)``, value = det / power."""
        for k in np.flatnonzero(flagged):
            value = _value(dets.item(k), power)
            self.fail(abs(float(value)) / scales.item(k),
                      {"matrix": name, "subset": idx[k].tolist()},
                      abs(value) * c ** (idx.shape[1] - 1))

    def entry(self) -> ConditionEntry:
        return ConditionEntry(
            key=self.key,
            passed=self.worst is None,
            witness=self.witness,
            residual=self.residual,
            note=self.note,
        )


def check_assignment(inst: Instance, a: Assignment, tol: Tolerances = Tolerances()):
    """Evaluate every condition family and report per-family worst witnesses.

    Distances are rescaled internally so the largest prescribed squared
    length on each side becomes 1 (the ratio alpha is corrected by the
    scale factor to the d-th power); residuals and ratios are reported in
    the units of the original input.

    A side is decided exactly when its assignment and the instance's
    lengths are all rational, and anything else follows ``tol``.  A float
    length makes the rescaling factor a float: a rational assignment on such
    an instance is then evaluated in floats and decided with ``tol``.
    """
    if a.z.n != inst.n:
        raise InputError(
            f"assignment has {a.z.n} vertices, instance has {inst.n}"
        )
    n, d = inst.n, inst.d
    index = {size: _subsets(n, size) for size in range(min(3, d + 1), d + 3)}

    sides = []
    for name, orig, pins in (("z", a.z, inst.lam_sq()),
                             ("z_prime", a.z_prime, inst.lam_prime_sq())):
        c = max(pins.values(), default=1)
        scaled = orig.scaled(_inverse(c, orig.exact))
        rule = _Rule(inst.exact and orig.exact, tol.rel_eps)
        dets = {size: _evaluate(scaled, idx) for size, idx in index.items()}
        sides.append((name, orig, scaled, c, pins, rule, dets))
    (_, _, zs, cz, _, rule_z, dets_z), (_, _, zps, czp, _, rule_zp, dets_zp) = sides

    entries = []

    fam6 = _Family("6", tol.rel_eps)
    pairs = _subsets(n, 2)
    for name, orig, scaled, c, _, rule, _ in sides:
        m = max(1.0, scaled.max_over(range(n)))
        signs = rule.signs(scaled._num[tuple(pairs.T)], m, power=scaled._den)
        for i, j in pairs[signs < 0].tolist():
            fam6.fail(-float(scaled.as_array()[i, j]) / m,
                      {"matrix": name, "pair": [i, j]}, -orig.entry(i, j))
    entries.append(fam6.entry())

    fam7 = _Family("7", tol.rel_eps)
    for name, orig, scaled, c, pins, rule, _ in sides:
        for (i, j), want in pins.items():
            got = orig.entry(i, j)
            diff = got - want
            scale = max(float(want), abs(float(got)))
            if rule.sign(diff, scale) != 0:
                fam7.fail(
                    abs(float(diff)) / scale,
                    {"matrix": name, "edge": [i, j]},
                    abs(diff),
                )
    entries.append(fam7.entry())

    fam8 = _Family("8", tol.rel_eps)
    for name, orig, scaled, c, _, rule, dets in sides:
        for size in range(3, d + 2):
            fam8.fail_subsets(name, index[size], *dets[size],
                              _defects(rule, d, size, *dets[size]), c)
    entries.append(fam8.entry())

    fam9 = _Family("9", tol.rel_eps)
    base = None
    try:
        base = _pick_base(zs, d, rule_z, index[d + 1], *dets_z[d + 1])
    except NoBaseSimplexError as exc:
        nums, _, power = dets_z[d + 1]
        best = max((abs(_value(v, power)) * cz ** d for v in nums.tolist()), default=0)
        fam9.note = str(exc)
        fam9.fail(float("inf"), None, best)
    entries.append(fam9.entry())

    fam10 = _Family("10", tol.rel_eps)
    for name, orig, scaled, c, _, rule, dets in sides:
        fam10.fail_subsets(name, index[d + 2], *dets[d + 2],
                           _defects(rule, d, d + 2, *dets[d + 2]), c)
    entries.append(fam10.entry())

    fam11 = _Family("11", tol.rel_eps)
    fam12 = _Family("12", tol.rel_eps)
    if base is None:
        fam11.note = "not evaluated: no base simplex"
        fam12.note = "not evaluated: no base simplex"
    else:
        # Tests that combine both sides are exact only when both sides are,
        # and the ratio test also needs a rational alpha.
        pair_rule = _Rule(rule_z.exact and rule_zp.exact, tol.rel_eps)
        ratio_rule = _Rule(pair_rule.exact and is_exact_value(a.alpha))
        unit_ratio = _ratio_unit(czp, cz, d)
        alpha_scaled = a.alpha / unit_ratio
        af = float(alpha_scaled)
        # The ratio condition is checked in equation form v = alpha*u, which
        # needs no case split for vanishing determinants: a pair of
        # degenerate simplices satisfies it with residual zero, and a
        # determinant vanishing on one side only leaves the whole other
        # determinant as the residual.  Only failing subsets are revisited.
        (us, sus, pu), (vs, svs, pv) = dets_z[d + 1], dets_zp[d + 1]
        if ratio_rule.exact:
            # v - alpha*u times the positive q * pu * pv, for alpha = p/q.
            off = ratio_rule.signs(alpha_scaled.denominator * pu * vs
                                   - alpha_scaled.numerator * pv * us, svs)
        else:
            uv, vv = _value(us, pu), _value(vs, pv)
            vf, uf = np.abs(vv.astype(float)), np.abs(af * uv.astype(float))
            bound = (ALPHA_REL * np.where(uf > vf, uf, vf)  # max(vf, uf): a NaN vf stays
                     + VANISH_CUTOFF * (svs + af * sus))
            off = ratio_rule.signs(vv - alpha_scaled * uv, bound, 1.0)
        for k in np.flatnonzero(off):
            subset = index[d + 1][k].tolist()
            u, su = _value(us.item(k), pu), sus.item(k)
            v, sv = _value(vs.item(k), pv), svs.item(k)
            lin = v - alpha_scaled * u
            big = max(abs(float(v)), abs(af * float(u)))
            floor = VANISH_CUTOFF * (sv + af * su)
            if pair_rule.sign(u, su, VANISH_CUTOFF) != 0:
                ratio_orig = v / u * unit_ratio
                witness = {
                    "subset": subset,
                    "ratio": ratio_orig,
                    "expected_alpha": a.alpha,
                }
                residual = abs(ratio_orig - a.alpha)
            else:
                witness = {
                    "subset": subset,
                    "note": "determinant vanishes on one side only",
                }
                residual = abs(v) * czp ** d
            fam11.fail(abs(float(lin)) / max(big, floor), witness, residual)

        # A slice's U = -cmd(face) depends only on the base face the check
        # leaves out, not on the outside vertex.
        faces = [tuple(i for i in base if i != i_r) for i_r in base]
        face_dets = [_evaluate(z, faces) for z in (zs, zps)]
        checks = _side_checks(n, base)
        rs = [r for _, r, _, _ in checks]
        idx = np.asarray([subset for _, _, subset, _ in checks],
                         dtype=np.intp).reshape(len(checks), d + 2)
        slice_pairs = [pair for _, _, _, pair in checks]
        (ln, pl), (lnp, plp) = (_linear_forms(z, idx, slice_pairs) for z in (zs, zps))
        # Python's max and pow on each check, as one gather of subset maxima.
        mz, mzp = _subset_max(zs, idx).tolist(), _subset_max(zps, idx).tolist()
        face_scale = [max(m, mp, 1.0) ** (d - 1) for m, mp in zip(mz, mzp)]
        scale_l, scale_lp = ([max(m, 1.0) ** d for m in ms] for ms in (mz, mzp))
        skip = np.any([pair_rule.signs(f[rs], face_scale, VANISH_CUTOFF, power) == 0
                       for f, _, power in face_dets], axis=0)
        # A side's sign is settled when the value is clearly zero (within
        # lo) or clearly nonzero (beyond hi); a value in between could be
        # either.  Only two settled, different signs refute.  On exact data
        # every sign is settled, so this is plain sign equality.
        lo = tol.rel_eps
        hi = max(VANISH_CUTOFF, 1e3 * tol.rel_eps)
        s_lo, s_hi = (pair_rule.signs(ln, scale_l, eps, pl) for eps in (lo, hi))
        p_lo, p_hi = (pair_rule.signs(lnp, scale_lp, eps, plp) for eps in (lo, hi))
        refuted = ~skip & (s_lo == s_hi) & (p_lo == p_hi) & (s_hi != p_hi)
        for k in np.flatnonzero(refuted):
            (j, r, subset, pair) = checks[k]
            l, lp = _value(ln.item(k), pl), _value(lnp.item(k), plp)
            fam12.fail(abs(float(l)) / scale_l[k] + abs(float(lp)) / scale_lp[k],
                       {"vertex": j, "r": r, "pair": list(pair), "subset": list(subset)},
                       abs(l) * cz ** d + abs(lp) * czp ** d)
        if skip.any():
            fam12.note = f"{skip.sum()} face checks skipped (degenerate face)"
    entries.append(fam11.entry())
    entries.append(fam12.entry())
    return ConditionReport(entries=tuple(entries), base_simplex=base)


def _inverse(c, exact):
    if exact and is_exact_value(c):
        return Fraction(1) / Fraction(c)
    return 1.0 / float(c)


def _ratio_unit(czp, cz, d):
    """Factor converting a scaled-unit determinant ratio to original units."""
    if is_exact_value(czp) and is_exact_value(cz):
        return (Fraction(czp) / Fraction(cz)) ** d
    return (float(czp) / float(cz)) ** d
