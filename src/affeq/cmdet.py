"""Bordered squared-distance determinants and what they decide.

The bordered determinant of a finite point set's squared distances encodes,
through its sign and vanishing pattern, whether the distances embed
isometrically in Euclidean d-space, the simplex volume they span, and on
which side of a facet hyperplane two points lie.  Everything here is a pure
function of a :class:`SquaredDistanceMatrix`; no coordinates are needed.

One rule governs arithmetic throughout the package.  Evaluation follows the
type of the matrix at hand: determinants of an all-rational matrix are exact,
anything else is evaluated in double precision.  A rational matrix scaled by
a float factor is a float matrix, which is what
:func:`affeq.system.check_assignment` evaluates for a rational assignment on
an instance with float lengths.  An exact :class:`SquaredDistanceMatrix`
holds the ints ``L * z``, ``L`` a common denominator of the entries, and
:meth:`~SquaredDistanceMatrix.scaled` carries them over.  Each batch of
same-size subsets on one side is one stacked Bareiss elimination on them,
:func:`affeq.linalg.bareiss_stack`: determinants on the rooted Gram form
(:func:`affeq.linalg.bordered_det_batch`), cofactor minors on the bordered
form.  A bordered determinant over ``m`` points is homogeneous of degree
``m - 1`` in the entries, and the cofactor minor of one entry of degree
``m - 2``, so its value is the int determinant over the shared positive
power ``L**(m-1)`` or ``L**(m-2)``.  The evaluators return those int
numerators and the power, exact sign tests read the numerators, and
``_value`` builds a ``Fraction`` only for a value that is reported or
returned, such as a residual, a ratio or :func:`cmd`.  Decisions follow
the data too.  Exact data is judged by a value's true sign; for the
two-sided tests of :mod:`affeq.system` this also needs rational lengths.
Any other data is judged relative to the scale ``M**(|I|-1)``, where
``M`` is the largest entry magnitude over the subset (the determinant's
homogeneity degree): a value within ``rel_eps`` times that scale counts as
zero.

``menger_check``, the checker of :mod:`affeq.system` and the solver's
pinned-subsystem scan share one subset enumeration, ``_subsets``, and one
test of the Cayley-Menger sign and flatness conditions, ``_defects``.
:func:`affeq.smtexport.export_smt` writes its assertions over the same
``_subsets``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .errors import InputError, PreconditionError
from .linalg import (
    bareiss_stack,
    bordered_det_batch,
    bordered_stack,
    clear_denominators,
    is_exact_value,
)

DEFAULT_REL_EPS = 1e-9


class SquaredDistanceMatrix:
    """Symmetric matrix of squared distances over all vertex pairs.

    Entries may be floats or exact rationals; ``exact`` is true when every
    entry is rational, which switches all downstream determinant work to
    exact arithmetic.  Instances are immutable and safe to share between
    threads.

    ``allow_negative`` exists for candidate assignments that still have to be
    *checked* for nonnegativity rather than rejected at construction.
    """

    __slots__ = ("n", "exact", "_rows", "_zf", "_num", "_den")

    def __init__(self, z, *, allow_negative=False):
        rows = [tuple(row) for row in z]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("squared-distance matrix must be square")
        for i in range(n):
            if rows[i][i] != 0:
                raise InputError(f"diagonal entry ({i},{i}) must be zero")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InputError(f"matrix not symmetric at ({i},{j})")
                if not allow_negative and rows[i][j] < 0:
                    raise InputError(f"negative squared distance at ({i},{j})")
        self.n = n
        self._rows = rows
        self.exact = all(is_exact_value(x) for row in rows for x in row)
        zf = np.asarray([[float(x) for x in row] for row in rows])
        zf.setflags(write=False)
        self._zf = zf
        # The kernels' input: on exact data the entries times ``_den`` as
        # Python ints, otherwise the float view with ``_den`` None.
        self._num, self._den = zf, None
        if self.exact:
            zi, self._den = clear_denominators(rows)
            self._num = np.array(zi, dtype=object).reshape(n, n)

    @classmethod
    def from_pairs(cls, n, pairs, *, allow_negative=False):
        """Build from a ``{(i, j): value}`` mapping over unordered pairs."""
        z = [[0] * n for _ in range(n)]
        for (i, j), v in pairs.items():
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise InputError(f"bad pair ({i},{j}) for n={n}")
            z[i][j] = z[j][i] = v
        return cls(z, allow_negative=allow_negative)

    @property
    def z(self):
        """The rows of entries; a scaled copy builds them on first use."""
        if self._rows is None:
            self._rows = [tuple(Fraction(v, self._den) for v in row)
                          for row in self._num.tolist()]
        return self._rows

    def as_array(self) -> np.ndarray:
        """Read-only float view of the matrix."""
        return self._zf

    def entry(self, i, j):
        return self.z[i][j]

    def max_over(self, index_set) -> float:
        """Largest entry magnitude over a subset (float, for scaling)."""
        if len(index_set) < 2:
            return 0.0
        return float(max(abs(self._zf[a, b]) for a, b in combinations(index_set, 2)))

    def scaled(self, factor) -> "SquaredDistanceMatrix":
        """Entrywise multiple; exactness is preserved for rational factors.

        Exact data times a ``Fraction`` ``p/q`` is not validated again: its ints
        are multiplied by ``p`` and ``_den`` by ``q``.  Int true division rounds
        correctly, so the float view is that of the multiplied rows, bitwise.
        """
        if not (self.exact and isinstance(factor, Fraction)):
            return SquaredDistanceMatrix(
                [[x * factor for x in row] for row in self.z], allow_negative=True
            )
        out = object.__new__(SquaredDistanceMatrix)
        out.n, out.exact, out._rows = self.n, True, None
        out._num, out._den = self._num * factor.numerator, self._den * factor.denominator
        out._zf = (out._num / out._den).astype(float)
        out._zf.setflags(write=False)
        return out

    def __eq__(self, other):
        return isinstance(other, SquaredDistanceMatrix) and self.z == other.z

    def __hash__(self):
        return hash(tuple(self.z))

    def __repr__(self):
        return f"SquaredDistanceMatrix(n={self.n}, exact={self.exact})"


@dataclass(frozen=True)
class QuadraticSlice:
    """Coefficients of the bordered determinant as a quadratic in one entry."""

    U: object
    V: object
    W: object

    def evaluate(self, t):
        return self.U * t * t + self.V * t + self.W

    def linear_form(self, t):
        """Derivative ``2*U*t + V``; its sign is the side classifier."""
        return 2 * self.U * t + self.V


@dataclass(frozen=True)
class EmbeddabilityReport:
    """Outcome of the four embeddability conditions.

    ``first_failed_condition`` is one of ``"i" | "ii" | "iii" | "iv" | "none"``;
    ``residual`` is the raw violation magnitude in determinant units.
    """

    passes: bool
    first_failed_condition: str
    witness_subset: tuple | None
    residual: float


class Side(enum.Enum):
    """Relative position of two points w.r.t. a facet hyperplane."""

    SAME_SIDE = "SameSide"
    ON_HYPERPLANE = "OnHyperplane"
    OPPOSITE_SIDE = "OppositeSide"


def _check_subset(D, index_set):
    seen = set()
    for i in index_set:
        if not isinstance(i, (int, np.integer)) or not 0 <= i < D.n:
            raise InputError(f"index {i} out of range for n={D.n}")
        if i in seen:
            raise InputError(f"duplicate index {i} in subset")
        seen.add(int(i))


def subset_scale(D: SquaredDistanceMatrix, index_set) -> float:
    """Relative comparison scale ``M**(|I|-1)``, 1.0 for an all-zero block."""
    return float(_scales(D, np.asarray([index_set], dtype=np.intp))[0])


def cmd(D: SquaredDistanceMatrix, index_set):
    """Bordered squared-distance determinant over a vertex subset.

    Exact (``Fraction``) when the matrix is exact, float otherwise.  A single
    index gives -1, a pair gives twice its squared distance.
    """
    index_set = tuple(index_set)
    if not index_set:
        raise InputError("index set must be nonempty")
    _check_subset(D, index_set)
    dets, _, power = _evaluate(D, [index_set])
    return _value(dets.item(0), power)


def simplex_volume_sq(D: SquaredDistanceMatrix, index_set):
    """Squared k-volume of the simplex on ``k+1`` vertices from distances only.

    Uses the normalization ``(-1)**(k+1) / (2**k * (k!)**2)`` on the bordered
    determinant; the exact-input path returns a ``Fraction``.
    """
    index_set = tuple(index_set)
    if len(index_set) < 2:
        raise InputError("simplex volume needs at least two vertices")
    k = len(index_set) - 1
    return Fraction((-1) ** (k + 1), 2**k * math.factorial(k) ** 2) * cmd(D, index_set)


@dataclass(frozen=True)
class _Rule:
    """How the determinant tests on one side's data are decided.

    ``exact`` means true signs: it holds only for all-rational data.
    Otherwise a value within ``eps * scale`` of zero counts as zero, ``eps``
    defaulting to the rule's own relative tolerance.
    """

    exact: bool
    eps: float = DEFAULT_REL_EPS

    def sign(self, value, scale=1.0, eps=None) -> int:
        """Sign of ``value`` as -1, 0 or +1; tolerant rules return 0 within
        ``eps * scale``."""
        if self.exact:
            return (value > 0) - (value < 0)
        value = float(value)
        if abs(value) <= (self.eps if eps is None else eps) * scale:
            return 0
        return 1 if value > 0 else -1

    def signs(self, values, scales, eps=None, power=None) -> np.ndarray:
        """:meth:`sign` element by element of ``values`` (over ``power`` if one is
        given), as an int array.  A NaN gives -1 under a tolerant rule."""
        if self.exact:
            values = np.asarray(values)
            return (values > 0).astype(int) - (values < 0)
        values = _floats(values, power)
        bound = (self.eps if eps is None else eps) * np.asarray(scales, dtype=float)
        return np.where(np.abs(values) <= bound, 0, np.where(values > 0, 1, -1))


@lru_cache
def _subsets(n: int, size: int) -> np.ndarray:
    """``combinations(range(n), size)`` as a read-only ``(count, size)`` index
    array, one subset per row in the same order."""
    count = math.comb(n, size)
    idx = np.fromiter(chain.from_iterable(combinations(range(n), size)),
                      np.intp, count * size).reshape(count, size)
    idx.setflags(write=False)
    return idx


def _defects(rule: _Rule, d: int, size: int, dets, scales, power=None) -> np.ndarray:
    """Mask of the same-size subsets that break embeddability in R^d: a sign
    other than ``(-1)**size`` or zero up to d+1 points, a nonzero value on d+2
    points.  A NaN fails either test.  Arguments as :func:`_evaluate` returns."""
    dets = np.asarray(dets)
    if size == d + 2:
        return rule.signs(dets, scales, power=power) != 0
    # Negate the values, not the signs: a NaN's sign is -1 either way.
    return rule.signs(dets if size % 2 == 0 else -dets, scales, power=power) < 0


def _subset_max(D: SquaredDistanceMatrix, idx) -> np.ndarray:
    """:meth:`SquaredDistanceMatrix.max_over` for each row of an index array."""
    a, b = _subsets(idx.shape[1], 2).T
    return np.abs(D.as_array()[idx[:, a], idx[:, b]]).max(axis=1, initial=0.0)


def _scales(D: SquaredDistanceMatrix, idx) -> np.ndarray:
    """:func:`subset_scale` for each row of a 2-D index array."""
    # Python's pow, so each scale is the float M**(|I|-1) of one subset;
    # taken once per distinct maximum, since many subsets share one.
    maxima, inverse = np.unique(_subset_max(D, idx), return_inverse=True)
    powers = np.array([m ** (idx.shape[1] - 1) if m != 0.0 else 1.0
                       for m in maxima.tolist()])
    return powers[inverse]


def _value(num, power):
    """The value(s) ``num / power`` of evaluated determinants: ``Fraction`` on
    exact data, ``num`` itself when ``power`` is None (float data)."""
    return num if power is None else num * Fraction(1, power)


def _floats(nums, power=None) -> np.ndarray:
    """Float array of ``nums / power``, ``nums`` if ``power`` is None.  Int true
    division rounds correctly: each is ``float(_value(num, power))``."""
    return np.asarray(nums if power is None else np.asarray(nums) / power, dtype=float)


def _evaluate(D: SquaredDistanceMatrix, subsets):
    """Bordered determinants over same-size subsets, with their scales.

    ``subsets`` is a sequence of index tuples or a 2-D index array.  Returns
    ``(dets, scales, power)``.  On exact data ``dets`` holds int numerators
    from one stacked Bareiss elimination over the batch's rooted Gram
    matrices, over the shared positive ``power = L**(|I|-1)`` (the degree in
    the entries).  Otherwise ``dets`` is a float array from a single batched
    LAPACK call and ``power`` is None, as for an empty batch.  ``scales`` is
    a float array of ``M**(|I|-1)`` as in :func:`subset_scale`, with ``M``
    the largest entry magnitude over the subset.  Subsets are not validated.
    """
    if not len(subsets):
        return np.empty(0), np.empty(0), None
    idx = np.asarray(subsets, dtype=np.intp)
    power = None if D._den is None else D._den ** max(idx.shape[1] - 1, 0)
    return bordered_det_batch(D._num, idx), _scales(D, idx), power


def _linear_forms(D: SquaredDistanceMatrix, subsets, pairs):
    """Derivative of each subset's bordered determinant in the entry ``z[pair]``.

    The entry sits symmetrically at two places of the bordered matrix, so the
    derivative is twice its cofactor: one minor per subset, all taken from
    the batch's bordered stack, with one stacked int Bareiss elimination on
    exact data and one batched LAPACK call otherwise.  Returns ``(forms,
    power)`` as :func:`_evaluate` does; an m-point subset's minor has degree
    m-2 in the entries, so exact data has ``power = L**(m-2)``.
    """
    if not len(subsets):
        return np.empty(0), None
    idx = np.asarray(subsets, dtype=np.intp)
    count, m = idx.shape
    # Bordered rows a and columns b of each pair's entry; the minor drops both.
    a, b = (np.argmax(idx == np.asarray(pairs)[:, k, None], axis=1) + 1 for k in (0, 1))
    signs = 2 * (-1) ** (a + b)
    keep = np.arange(m)
    rows, cols = (keep + (keep >= x[:, None]) for x in (a, b))
    minors = bordered_stack(D._num, idx)[
        np.arange(count)[:, None, None], rows[:, :, None], cols[:, None, :]]
    if D.exact:
        return signs * bareiss_stack(minors), D._den ** (m - 2)
    return signs * np.linalg.det(minors), None


def menger_check(D: SquaredDistanceMatrix, d: int,
                 rel_eps: float = DEFAULT_REL_EPS) -> EmbeddabilityReport:
    """Decide isometric embeddability into R^d with full affine hull.

    Checks, in order: (i) at least d+1 points; (ii) the alternating sign rule
    on every subset of at most d+1 points; (iii) some (d+1)-subset spans,
    i.e. has a determinant of the full-rank sign; (iv) every (d+2)-subset has
    a vanishing determinant.  The first violated condition is reported with a
    witness subset.
    """
    if d < 1:
        raise InputError("dimension must be >= 1")
    n = D.n
    if n < d + 1:
        return EmbeddabilityReport(False, "i", None, float(d + 1 - n))
    rule = _Rule(D.exact, rel_eps)

    # (ii): sizes 1 and 2 reduce to -1 and 2z; only entry signs can fail.
    pairs = _subsets(n, 2)
    for i, j in pairs[D._num[tuple(pairs.T)] < 0][:1].tolist():
        return EmbeddabilityReport(False, "ii", (i, j), abs(2.0 * float(D._zf[i, j])))
    # For d = 1 the first size is the pairs, whose sign the entry test above
    # has already settled.
    for size in range(min(3, d + 1), d + 3):
        idx = _subsets(n, size)
        dets, scales, power = _evaluate(D, idx)
        bad = _defects(rule, d, size, dets, scales, power)
        if size <= d + 1:
            # A NaN determinant is left to (iii) and (iv) here.
            bad &= dets == dets
        if bad.any():
            k = np.flatnonzero(bad)[0]
            return EmbeddabilityReport(False, "ii" if size <= d + 1 else "iv",
                                       tuple(idx[k].tolist()),
                                       float(abs(_value(dets.item(k), power))))
        if size == d + 1:
            # (iii): a full-rank (d+1)-subset must exist.  The residual is
            # the largest positive margin over its scale, 0.0 if there is none.
            margins = (-1) ** (d + 1) * dets
            if not (rule.signs(margins, scales, power=power) > 0).any():
                ratios = _floats(margins, power) / scales
                best = float(np.max(ratios, where=ratios > 0, initial=0.0))
                return EmbeddabilityReport(False, "iii", None, best)

    return EmbeddabilityReport(True, "none", None, 0.0)


def quadratic_slice(D: SquaredDistanceMatrix, index_set, pair) -> QuadraticSlice:
    """View the determinant over ``index_set`` as a quadratic in one entry.

    The selected entry ``z[pair]`` appears (symmetrically) twice in the
    bordered matrix, so the determinant is a quadratic ``U*t**2 + V*t + W`` in
    its value ``t``.  The coefficients come in closed form: ``U`` is minus the
    determinant over ``index_set`` minus the pair, the derivative ``2*U*t + V``
    at the current entry is twice the entry's cofactor, and ``W`` follows from
    the determinant itself.  On exact input the result is exact.
    """
    index_set = tuple(index_set)
    r, s = pair
    if r == s:
        raise InputError("slice pair must be two distinct indices")
    if r not in index_set or s not in index_set:
        raise InputError("slice pair must lie inside the index set")
    _check_subset(D, index_set)
    face = tuple(i for i in index_set if i != r and i != s)
    full, face_det, slope = (_value(v.item(0), power) for v, *_, power in (
        _evaluate(D, [index_set]), _evaluate(D, [face]),
        _linear_forms(D, [index_set], [pair])))
    t = D.entry(r, s)
    U = -face_det
    V = slope - 2 * U * t
    return QuadraticSlice(U, V, full - U * t * t - V * t)


_SIDES = {1: Side.SAME_SIDE, 0: Side.ON_HYPERPLANE, -1: Side.OPPOSITE_SIDE}


def side_classify(D: SquaredDistanceMatrix, index_set, pair, d: int,
                  rel_eps: float = DEFAULT_REL_EPS) -> Side:
    """Classify two points of a flat (d+2)-subset against a facet hyperplane.

    ``index_set`` must have d+2 vertices whose determinant vanishes (the set
    embeds in R^d) and the d remaining vertices ``index_set - pair`` must span
    a nondegenerate (d-1)-flat.  The sign of ``(-1)**d * (2*U*t + V)`` with
    ``t = z[pair]`` then separates the three cases; the zero case means at
    least one of the two points lies on the hyperplane.
    """
    index_set = tuple(index_set)
    if len(index_set) != d + 2:
        raise InputError(f"index set must have {d + 2} vertices for d={d}")
    r, s = pair
    delta = tuple(i for i in index_set if i != r and i != s)
    if len(delta) != d:
        raise InputError("slice pair must be two distinct members of the subset")
    _check_subset(D, index_set)

    rule = _Rule(D.exact, rel_eps)
    (full,), (full_scale,), power = _evaluate(D, [index_set])
    if rule.sign(full, full_scale) != 0:
        raise PreconditionError(
            f"subset determinant must vanish, got {_value(full, power)}")
    (face,), (face_scale,), _ = _evaluate(D, [delta])
    if rule.sign(face, face_scale) == 0:
        raise PreconditionError("facet is degenerate (zero determinant)")

    (slope,), _ = _linear_forms(D, [index_set], [pair])
    m = D.max_over(index_set)
    return _SIDES[rule.sign((-1) ** d * slope, m**d if m > 0 else 1.0)]
