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
    (9)  some (d+1)-subset (the base simplex) has a nonvanishing determinant,
    (10) bordered determinants vanish on every (d+2)-subset,
    (11) the determinant ratio between the two sides is the common constant
         alpha on every (d+1)-subset,
    (12) for every vertex outside the base simplex, the two sides classify
         the vertex against each face hyperplane identically.

Checking never raises on a failing condition; failures are reported with a
worst witness and a residual in the units of the original instance.

Arithmetic follows the package rule (see :mod:`affeq.cmdet`): values are
evaluated in the data's own type, and each side is decided exactly only when
the policy is ``"auto"``, that side's assignment is rational and the
instance's lengths are rational; otherwise every test follows
:class:`Tolerances`.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .cmdet import (
    SquaredDistanceMatrix,
    _evaluate,
    _linear_forms,
    _Rule,
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
    """A graph with two positive length prescriptions on its edges.

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
    """Candidate values: two squared-distance matrices and a positive ratio."""

    z: SquaredDistanceMatrix
    z_prime: SquaredDistanceMatrix
    alpha: object

    def __post_init__(self):
        if self.z.n != self.z_prime.n:
            raise InputError("the two matrices must have the same size")
        if not self.alpha > 0:
            raise InputError("alpha must be positive")

    @property
    def exact(self) -> bool:
        return self.z.exact and self.z_prime.exact and is_exact_value(self.alpha)


@dataclass(frozen=True)
class Tolerances:
    """Floating-point comparison policy.

    ``rel_eps`` scales every zero and sign test by the subset magnitude
    M^degree, where M is the largest entry over the subset involved;
    ``alpha_rel`` bounds the relative deviation between per-subset ratios
    and the assignment's alpha; ``vanish_cutoff`` is the normalized size
    below which a determinant is treated as vanishing when deciding whether
    a ratio or side test is applicable.  A side decided exactly (rational
    assignment, rational lengths, ``decisions="auto"``) ignores all three;
    every other side, rational or not, follows them.
    """

    rel_eps: float = 1e-9
    alpha_rel: float = 1e-6
    vanish_cutoff: float = 1e-9

    def __post_init__(self):
        for name in ("rel_eps", "alpha_rel", "vanish_cutoff"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive")


@dataclass(frozen=True)
class SystemDescription:
    """Enumerated constraint families for one instance.

    ``free_pairs`` are the non-edge vertex pairs (one unknown per side per
    pair); ``pinned`` maps each edge to its prescribed squared lengths.
    Subsets of sizes 1 and 2 are omitted from ``sign_subsets`` because the
    sign rule there reduces to nonnegativity, already condition (6).
    """

    n: int
    d: int
    free_pairs: tuple
    pinned: dict = field(hash=False)
    sign_subsets: tuple
    simplex_subsets: tuple
    vanish_subsets: tuple

    def side_checks(self, base):
        """(vertex, r, subset, pair) tuples for condition (12) over a base."""
        base = tuple(base)
        checks = []
        for j in range(self.n):
            if j in base:
                continue
            subset = tuple(sorted(base + (j,)))
            for r, i_r in enumerate(base):
                checks.append((j, r, subset, (i_r, j)))
        return tuple(checks)


def build_system(inst: Instance) -> SystemDescription:
    """Enumerate free variables, pinned entries and all constraint subsets."""
    edges = inst.edge_set
    free_pairs = tuple(
        (i, j)
        for i, j in combinations(range(inst.n), 2)
        if (i, j) not in edges
    )
    lam_sq = inst.lam_sq()
    lam_prime_sq = inst.lam_prime_sq()
    pinned = {e: (lam_sq[e], lam_prime_sq[e]) for e in inst.edges}
    sign_subsets = tuple(
        subset
        for size in range(3, min(inst.d + 1, inst.n) + 1)
        for subset in combinations(range(inst.n), size)
    )
    simplex_subsets = tuple(combinations(range(inst.n), inst.d + 1))
    vanish_subsets = tuple(combinations(range(inst.n), inst.d + 2))
    return SystemDescription(
        n=inst.n,
        d=inst.d,
        free_pairs=free_pairs,
        pinned=pinned,
        sign_subsets=sign_subsets,
        simplex_subsets=simplex_subsets,
        vanish_subsets=vanish_subsets,
    )


def find_base_simplex(z: SquaredDistanceMatrix, d: int, rel_eps: float = 1e-9,
                      strict: Optional[bool] = None):
    """The (d+1)-subset with the largest normalized determinant magnitude.

    Normalization divides by M^d with M the largest entry over the subset,
    which makes the choice invariant under rescaling all distances.
    Candidates whose margin is within relative 1e-6 of the maximum count as
    tied, and the lexicographically first tied subset wins; this keeps the
    choice stable when several simplices are equally good up to roundoff.

    ``strict`` controls the nonvanishing test: exact comparison against zero
    when true, ``rel_eps`` times the subset magnitude when false.  The
    default follows the exactness of ``z``, and inexact data is never
    compared exactly.
    """
    rule = _Rule(bool(z.exact and (strict is None or strict)), rel_eps)
    subsets = list(combinations(range(z.n), d + 1))
    return _pick_base(z, d, rule, subsets, *_evaluate(z, subsets))


def _pick_base(z, d, rule, subsets, dets, scales):
    """Base simplex from the evaluated (d+1)-subsets; see find_base_simplex."""
    if z.n < d + 1:
        raise NoBaseSimplexError(f"need at least {d + 1} vertices, have {z.n}")
    candidates = [
        (subset, abs(float(value)) / scale)
        for subset, value, scale in zip(subsets, dets, scales)
        if rule.sign(value, scale) != 0
    ]
    if not candidates:
        raise NoBaseSimplexError(
            f"every {d + 1}-subset has a vanishing determinant"
        )
    top = max(margin for _, margin in candidates)
    for subset, margin in candidates:
        if margin >= top * (1.0 - 1e-6):
            return subset
    return candidates[0][0]


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
    witness: Optional[dict] = None
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

    def entry(self) -> ConditionEntry:
        return ConditionEntry(
            key=self.key,
            passed=self.worst is None,
            witness=self.witness,
            residual=self.residual,
            note=self.note,
        )


def check_assignment(inst: Instance, a: Assignment, tol: Tolerances = Tolerances(),
                     decisions: str = "auto"):
    """Evaluate every condition family and report per-family worst witnesses.

    Distances are rescaled internally so the largest prescribed squared
    length on each side becomes 1 (the ratio alpha is corrected by the
    scale factor to the d-th power); residuals and ratios are reported in
    the units of the original input.

    ``decisions`` selects the comparison policy.  Under ``"auto"`` a side
    is decided exactly when its assignment and the instance's lengths are
    all rational, and anything else follows ``tol``.  Under ``"tolerant"``
    every comparison follows ``tol`` even on rational data; evaluation stays
    exact, so a reported violation on rational data is a rigorous fact about
    the instance, not roundoff.
    """
    if a.z.n != inst.n:
        raise InputError(
            f"assignment has {a.z.n} vertices, instance has {inst.n}"
        )
    if decisions not in ("auto", "tolerant"):
        raise InputError("decisions must be 'auto' or 'tolerant'")
    strict = decisions == "auto"
    n, d = inst.n, inst.d
    desc = build_system(inst)
    by_size = {d + 1: desc.simplex_subsets, d + 2: desc.vanish_subsets}
    for size in range(3, d + 1):
        by_size[size] = [s for s in desc.sign_subsets if len(s) == size]

    sides = []
    for name, orig, pins in (("z", a.z, inst.lam_sq()),
                             ("z_prime", a.z_prime, inst.lam_prime_sq())):
        c = max(pins.values(), default=1)
        scaled = orig.scaled(_inverse(c, orig.exact))
        rule = _Rule(strict and inst.exact and orig.exact, tol.rel_eps)
        dets = {size: _evaluate(scaled, subsets) for size, subsets in by_size.items()}
        sides.append((name, orig, scaled, c, pins, rule, dets))
    (_, _, zs, cz, _, rule_z, dets_z), (_, _, zps, czp, _, rule_zp, dets_zp) = sides

    entries = []

    fam6 = _Family("6", tol.rel_eps)
    for name, orig, scaled, c, _, rule, _ in sides:
        m = max(1.0, scaled.max_over(range(n)))
        for i, j in combinations(range(n), 2):
            value = scaled.entry(i, j)
            if rule.sign(value, m) < 0:
                fam6.fail(
                    -float(value) / m,
                    {"matrix": name, "pair": [i, j]},
                    -orig.entry(i, j),
                )
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
            for subset, det, scale in zip(by_size[size], *dets[size]):
                value = (-1) ** size * det
                if rule.sign(value, scale) < 0:
                    fam8.fail(
                        -float(value) / scale,
                        {"matrix": name, "subset": list(subset)},
                        abs(value) * c ** (size - 1),
                    )
    entries.append(fam8.entry())

    fam9 = _Family("9", tol.rel_eps)
    base = None
    try:
        base = _pick_base(zs, d, rule_z, desc.simplex_subsets, *dets_z[d + 1])
    except NoBaseSimplexError as exc:
        best = max((abs(value) * cz ** d for value in dets_z[d + 1][0]), default=0)
        fam9.note = str(exc)
        fam9.fail(float("inf"), None, best)
    entries.append(fam9.entry())

    fam10 = _Family("10", tol.rel_eps)
    for name, orig, scaled, c, _, rule, dets in sides:
        for subset, value, scale in zip(desc.vanish_subsets, *dets[d + 2]):
            if rule.sign(value, scale) != 0:
                fam10.fail(
                    abs(float(value)) / scale,
                    {"matrix": name, "subset": list(subset)},
                    abs(value) * c ** (d + 1),
                )
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
        for subset, u, su, v, sv in zip(desc.simplex_subsets, *dets_z[d + 1],
                                         *dets_zp[d + 1]):
            # The ratio condition is checked in equation form v = alpha*u,
            # which needs no case split for vanishing determinants: a pair
            # of degenerate simplices satisfies it with residual zero, and
            # a determinant vanishing on one side only leaves the whole
            # other determinant as the residual.
            lin = v - alpha_scaled * u
            big = max(abs(float(v)), abs(af * float(u)))
            floor = tol.vanish_cutoff * (sv + af * su)
            if ratio_rule.sign(lin, tol.alpha_rel * big + floor, 1.0) == 0:
                continue
            if pair_rule.sign(u, su, tol.vanish_cutoff) != 0:
                ratio_orig = v / u * unit_ratio
                witness = {
                    "subset": list(subset),
                    "ratio": ratio_orig,
                    "expected_alpha": a.alpha,
                }
                residual = abs(ratio_orig - a.alpha)
            else:
                witness = {
                    "subset": list(subset),
                    "note": "determinant vanishes on one side only",
                }
                residual = abs(v) * czp ** d
            fam11.fail(abs(float(lin)) / max(big, floor), witness, residual)

        # A slice's U = -cmd(face) depends only on the base face the check
        # leaves out, not on the outside vertex.
        faces = [tuple(i for i in base if i != i_r) for i_r in base]
        face_dets = _evaluate(zs, faces)[0], _evaluate(zps, faces)[0]
        checks = desc.side_checks(base)
        subsets = [subset for _, _, subset, _ in checks]
        pairs = [pair for _, _, _, pair in checks]
        lo = tol.rel_eps
        hi = max(tol.vanish_cutoff, 1e3 * tol.rel_eps)
        skipped = 0
        for (j, r, subset, pair), ln, lnp in zip(
                checks, _linear_forms(zs, subsets, pairs), _linear_forms(zps, subsets, pairs)):
            face_scale = max(zs.max_over(subset), zps.max_over(subset), 1.0) ** (d - 1)
            if any(pair_rule.sign(f[r], face_scale, tol.vanish_cutoff) == 0 for f in face_dets):
                skipped += 1
                continue
            scale_l = max(zs.max_over(subset), 1.0) ** d
            scale_lp = max(zps.max_over(subset), 1.0) ** d
            # A side's sign is settled when the value is clearly zero (within
            # lo) or clearly nonzero (beyond hi); a value in between could be
            # either.  Only two settled, different signs refute.  On exact
            # data every sign is settled, so this is plain sign equality.
            s_lo, s_hi = (pair_rule.sign(ln, scale_l, eps) for eps in (lo, hi))
            p_lo, p_hi = (pair_rule.sign(lnp, scale_lp, eps) for eps in (lo, hi))
            if s_lo == s_hi and p_lo == p_hi and s_hi != p_hi:
                fam12.fail(
                    abs(float(ln)) / scale_l + abs(float(lnp)) / scale_lp,
                    {
                        "vertex": j,
                        "r": r,
                        "pair": list(pair),
                        "subset": list(subset),
                    },
                    abs(ln) * cz ** d + abs(lnp) * czp ** d,
                )
        if skipped:
            fam12.note = f"{skipped} face checks skipped (degenerate face)"
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
