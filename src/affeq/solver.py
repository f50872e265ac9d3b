"""Decision procedure: certificate search plus sound infeasibility tests.

A YES verdict always carries an explicit certificate (assignment, framework
pair, affine map) that has passed the condition checker and the equivalence
verifier.  A NO verdict rests only on facts that hold for every candidate
assignment.  When the numeric search merely fails to find a certificate the
verdict is UNKNOWN, never NO.

``solve`` runs one tuple of stages and returns the first verdict.  Each stage
takes ``(inst, budget, tol, fixed_left)`` and returns a verdict or None:

- ``_structure``: NO when too few vertices span the dimension;
- ``_pinned_scan``: NO when a subset whose pairs are all edges is already
  contradictory, by the checker's own subset enumeration and sign and
  flatness test on the pinned lengths;
- ``_complete_decision``: on a complete graph every length is pinned, so the
  checker decides NO and a pass is reconstructed into a YES;
- ``_fixed_left_precheck``: NO when the fixed framework spans too little;
- ``_line_decision``: in dimension 1, YES or NO by orientation enumeration;
- ``_numeric``: YES from the numeric search, else UNKNOWN.

The default tuple ``_STAGES`` is structure, pinned scan, line decision,
numeric, and ``line_oracle`` always runs it.  On a complete graph ``solve``
puts the complete decision in place of the pinned scan; with ``fixed_left``
it puts the fixed-left precheck in place of the line decision.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .cmdet import SquaredDistanceMatrix, _defects, _evaluate, _Rule, _subsets, _value
from .embedding import Configuration, distances_of
from .errors import (
    AffeqError,
    InputError,
    InternalInconsistencyError,
    NoBaseSimplexError,
    PreconditionError,
    RatioSignError,
    ReconstructionError,
)
from .linalg import to_fraction
from .reconstruct import AffineMap, reconstruct, verify_problem1
from .system import (
    ALPHA_REL,
    Assignment,
    ConditionEntry,
    ConditionReport,
    Instance,
    Tolerances,
    _jsonable,
    check_assignment,
    estimate_alpha,
    find_base_simplex,
)

YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"

# Smallest |det| of the searched map's linear part that the numeric
# search accepts.
DET_BARRIER = 1e-3
# Residual evaluations allowed to one restart of the numeric search.
_ITERATIONS = 300
# least_squares returns once an accepted step lowers the squared residual by
# less than this fraction of it.  Every restart that reaches _TARGET keeps
# every accepted step's relative decrease above 6e-10 on the solve-planted
# rounds, so this cuts only restarts stalled at a nonzero-residual minimum.
_FTOL = 1e-12
# Largest per-edge relative squared-length residual a restart may leave and
# still be handed to full verification.
_TARGET = 1e-8
# Largest number of same-size subsets the pinned-subsystem scan will visit.
_CLIQUE_SCAN_CAP = 20000
# Components with more spanning-tree edges than this are not enumerated.
_LINE_ENUM_CAP = 18
# Orientation defect (relative to the largest length) below which a line
# placement is trusted to back a certificate, and above which no assignment
# could pass the checker's pinning and flatness tolerances.
_LINE_ACCEPT = 1e-12
_LINE_REJECT = 1e-6
# Normalized determinant size treated as decisively nonzero by the scan.
_DECISIVE = 1e-6


@dataclass(frozen=True)
class SearchBudget:
    """Multistart budget for the numeric search: ``restarts`` seeded starts
    from ``seed``.  Each restart runs at most ``_ITERATIONS`` residual
    evaluations and must reach ``_TARGET``."""

    restarts: int = 40
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.restarts, int) or self.restarts < 1:
            raise InputError("restarts must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InputError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class Certificate:
    """Explicit solution: an assignment plus frameworks realizing it."""

    assignment: Assignment
    p: Configuration
    p_prime: Configuration
    amap: AffineMap

    @property
    def alpha(self):
        return self.assignment.alpha

    def to_dict(self) -> dict:
        return {
            "alpha": _jsonable(self.alpha),
            "points": _jsonable([list(pt) for pt in self.p.points]),
            "points_prime": _jsonable([list(pt) for pt in self.p_prime.points]),
            "map": {
                "matrix": _jsonable([list(row) for row in self.amap.matrix]),
                "shift": _jsonable(list(self.amap.shift)),
            },
            "z": _jsonable([list(row) for row in self.assignment.z.z]),
            "z_prime": _jsonable([list(row) for row in self.assignment.z_prime.z]),
        }


@dataclass(frozen=True)
class InfeasibilityWitness:
    """Provenance of a NO: which sound test failed, with its report."""

    source: str
    report: ConditionReport

    def to_dict(self) -> dict:
        return {"source": self.source, "report": self.report.to_dict()}


@dataclass(frozen=True)
class Verdict:
    """Outcome of ``solve``: YES with certificate, NO with witness, or
    UNKNOWN with search diagnostics."""

    kind: str
    certificate: Optional[Certificate] = None
    witness: Optional[InfeasibilityWitness] = None
    diagnostics: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.kind not in (YES, NO, UNKNOWN):
            raise InputError(f"unknown verdict kind {self.kind!r}")
        if self.kind == YES and self.certificate is None:
            raise InputError("a YES verdict must carry a certificate")
        if self.kind == NO and self.witness is None:
            raise InputError("a NO verdict must carry a witness")

    def to_dict(self) -> dict:
        return {
            "verdict": self.kind,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "witness": self.witness.to_dict() if self.witness else None,
            "diagnostics": _jsonable(self.diagnostics),
        }


@dataclass(frozen=True)
class LeastSquaresResult:
    """End point of ``least_squares`` with its residual and Jacobian
    evaluation counts."""

    x: np.ndarray
    nfev: int
    njev: int


# Initial damping relative to the largest diagonal entry of J^T J.  Larger
# values (1e-3 is the textbook choice) strand more restarts in local minima.
_LM_TAU = 1e-6
_TINY = float(np.finfo(float).tiny)


def least_squares(fun, x0, *, jac, xtol: float, max_nfev: int) -> LeastSquaresResult:
    """Minimize ``|fun(x)|^2`` from ``x0`` by dense Levenberg-Marquardt.

    Each step solves the damped normal equations ``(J^T J + mu I) h = -J^T r``
    with ``J = jac(x)``.  The damping follows Nielsen's update (Madsen,
    Nielsen & Tingleff, IMM-REP-1999-05; More 1978): an improving step
    shrinks ``mu`` by the gain ratio, a failing one grows it geometrically.
    Stops after ``max_nfev`` residual evaluations (the start included), when
    ``|h| <= xtol * (|x| + xtol)``, when the squared residual falls to 1e-30,
    or when the residual or gradient is non-finite or the gradient vanishes.
    It also stops, keeping the step, once an accepted step lowers the
    squared residual ``F`` by less than ``_FTOL * F``: a relative
    actual-decrease stop after More's ``ftol`` test, which also bounds the
    predicted decrease and the gain ratio.
    Works for any number of rows, fewer than unknowns included.
    """
    x = np.array(x0, dtype=float)
    r = fun(x)
    cost = float(r @ r)
    nfev, njev = 1, 0
    eye = np.eye(x.size)
    mu, nu, fresh = None, 2.0, True
    while nfev < max_nfev and math.isfinite(cost) and cost > 1e-30:
        if fresh:
            J = jac(x)
            njev += 1
            A = J.T @ J
            g = J.T @ r
            gg = float(g @ g)
            if not (math.isfinite(gg) and gg > 0):
                break
            if mu is None:
                mu = _LM_TAU * float(A.diagonal().max())
        try:
            h = np.linalg.solve(A + mu * eye, -g)
        except np.linalg.LinAlgError:
            # the floor keeps an underflowed mu from failing forever
            mu, nu, fresh = nu * max(mu, _TINY), 2.0 * nu, False
            continue
        hh = float(h @ h)
        if not (math.isfinite(hh)
                and math.sqrt(hh) > xtol * (math.sqrt(float(x @ x)) + xtol)):
            break
        x_new = x + h
        r_new = fun(x_new)
        nfev += 1
        cost_new = float(r_new @ r_new)
        # predicted decrease h^T (mu h - g) > 0; numpy division, so an
        # underflow to 0 gives inf or nan instead of raising
        rho = (cost - cost_new) / (h @ (mu * h - g))
        fresh = rho > 0
        if fresh:
            stalled = cost - cost_new < _FTOL * cost
            x, r, cost = x_new, r_new, cost_new
            if stalled:
                break
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
    return LeastSquaresResult(x, nfev, njev)


def solve(inst: Instance, budget: Optional[SearchBudget] = None,
          tol: Tolerances = Tolerances(),
          fixed_left: Optional[Configuration] = None) -> Verdict:
    """Decide whether the instance admits an equivalent framework pair.

    ``fixed_left`` pins the first framework to a given placement (all its
    squared distances become prescribed) and searches only for the map; the
    placement must agree with the instance's first lengths.
    """
    if not isinstance(inst, Instance):
        raise InputError("solve expects an Instance")
    budget = _checked_budget(budget)
    if fixed_left is not None:
        _validate_fixed_left(inst, fixed_left, tol)
        stages = (_structure, _pinned_scan, _fixed_left_precheck, _numeric)
    elif inst.is_complete():
        stages = (_structure, _complete_decision, _line_decision, _numeric)
    else:
        stages = _STAGES
    return _decide(stages, inst, budget, tol, fixed_left)


def line_oracle(inst: Instance, tol: Tolerances = Tolerances(),
                budget: Optional[SearchBudget] = None) -> Verdict:
    """Decide a one-dimensional instance by orientation enumeration.

    Places every connected component on the line by choosing a direction for
    each spanning-tree edge and checking the remaining edges, then requires a
    single positive scale between the two length prescriptions.  Components
    with more tree edges than the enumeration cap fall back to the numeric
    search, which cannot return NO.  Runs the stages ``solve`` runs on a
    graph that is not complete, whatever the graph.
    """
    if not isinstance(inst, Instance):
        raise InputError("line_oracle expects an Instance")
    if inst.d != 1:
        raise InputError("the line oracle only handles dimension 1")
    return _decide(_STAGES, inst, _checked_budget(budget), tol)


def _checked_budget(budget) -> SearchBudget:
    budget = SearchBudget() if budget is None else budget
    if not isinstance(budget, SearchBudget):
        raise InputError("budget must be a SearchBudget")
    return budget


def _decide(stages, inst, budget, tol, fixed_left=None) -> Verdict:
    for stage in stages:
        verdict = stage(inst, budget, tol, fixed_left)
        if verdict is not None:
            return verdict


def _refuted(stage: str, source: str, report) -> Verdict:
    """NO from the sound test ``source``; ``report`` is the checker's report
    or the single failed entry that refutes every assignment."""
    if isinstance(report, ConditionEntry):
        report = ConditionReport(entries=(report,), base_simplex=None)
    return Verdict(NO, witness=InfeasibilityWitness(source, report),
                   diagnostics={"stage": stage})


def _numeric(inst, budget, tol, fixed_left) -> Verdict:
    cert, diag = numeric_search(inst, budget, tol, fixed_left=fixed_left)
    if cert is None:
        return Verdict(UNKNOWN, diagnostics=diag)
    return Verdict(YES, certificate=cert, diagnostics=diag)


def numeric_search(inst: Instance, budget: Optional[SearchBudget] = None,
                   tol: Tolerances = Tolerances(),
                   fixed_left: Optional[Configuration] = None):
    """Multistart least-squares search for an explicit certificate.

    Unknowns are the first framework's points (none with ``fixed_left``)
    and the linear part ``B`` of the affine map; residuals are the
    squared-length gaps on both sides.  The map's shift is zero: no length
    depends on it.  Each restart runs ``least_squares`` (Levenberg-Marquardt)
    from a seeded random start for at most ``_ITERATIONS`` residual
    evaluations, and stops it early once an accepted step lowers the squared
    residual by less than ``_FTOL`` of itself (a restart stalled at a
    nonzero-residual minimum).  A restart is accepted only if every gap is
    within ``_TARGET`` and ``|det B| >= DET_BARRIER``.  Returns
    ``(certificate, diagnostics)`` with ``certificate`` None when no restart
    produced a solution that re-passed the checker and verifier.  Never
    decides infeasibility.
    """
    budget = SearchBudget() if budget is None else budget
    n, d = inst.n, inst.d
    k = len(inst.edges)
    diag = {"stage": "numeric", "restarts_used": 0, "best_residual": math.inf}
    if n < d + 1:
        diag.update(best_residual=None, note="too few vertices")
        return None, diag
    if k == 0 and fixed_left is None:
        cert = _spread_certificate(inst)
        diag["best_residual"] = 0.0
        return (cert if _verified(inst, cert, tol) else None), diag

    lam = np.asarray([float(v) for v in inst.lam])
    lamp = np.asarray([float(v) for v in inst.lam_prime])
    c = float(lam.max()) if k else 1.0
    cp = float(lamp.max()) if k else 1.0
    lam2 = (lam / c) ** 2
    lamp2 = (lamp / cp) ** 2
    ii = np.asarray([e[0] for e in inst.edges], dtype=int)
    jj = np.asarray([e[1] for e in inst.edges], dtype=int)
    fixed = None if fixed_left is None else fixed_left.as_array() / c
    npos = 0 if fixed is not None else n * d
    nvar = npos + d * d
    # Jacobian layout: edge a's endpoints own columns ci[a] and cj[a]; its
    # residuals are rows rows1[a] (first side, absent when the first
    # framework is fixed) and rows2[a].
    ci = ii[:, None] * d + np.arange(d)
    cj = jj[:, None] * d + np.arange(d)
    off = 0 if fixed is not None else k
    rows1 = np.arange(k)[:, None]
    rows2 = rows1 + off

    def split(theta):
        p = fixed if fixed is not None else theta[:npos].reshape(n, d)
        return p, theta[npos:].reshape(d, d)

    def residuals(theta):
        p, B = split(theta)
        u = p[ii] - p[jj]
        w = u @ B.T
        r2 = (w * w).sum(axis=1) - lamp2
        if fixed is not None:
            return r2
        return np.concatenate([(u * u).sum(axis=1) - lam2, r2])

    def jacobian(theta):
        p, B = split(theta)
        u = p[ii] - p[jj]
        w = u @ B.T
        J = np.zeros((off + k, nvar))
        J[off:, npos:] = 2.0 * (w[:, :, None] * u[:, None, :]).reshape(k, d * d)
        if fixed is None:
            g = 2.0 * u
            J[rows1, ci] = g
            J[rows1, cj] = -g
            g = 2.0 * (w @ B)
            J[rows2, ci] = g
            J[rows2, cj] = -g
        return J

    for index in range(budget.restarts):
        rng = np.random.default_rng([int(budget.seed), index])
        parts = []
        if fixed is None:
            parts.append(rng.normal(size=n * d))
        parts.append((np.eye(d) + 0.5 * rng.normal(size=(d, d))).ravel())
        # infeasible instances drive the optimizer into degenerate regions;
        # non-finite intermediates are expected there and the acceptance
        # gate below rejects them, so keep the numeric noise quiet
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            result = least_squares(residuals, np.concatenate(parts), jac=jacobian,
                                   xtol=1e-15, max_nfev=_ITERATIONS)
        diag["restarts_used"] = index + 1
        if not np.all(np.isfinite(result.x)):
            continue
        p, B = split(result.x)
        u = p[ii] - p[jj]
        w = u @ B.T
        g1 = np.abs((u * u).sum(axis=1) - lam2) / np.maximum(lam2, 1e-30)
        g2 = np.abs((w * w).sum(axis=1) - lamp2) / np.maximum(lamp2, 1e-30)
        worst = float(max(g1.max(initial=0.0), g2.max(initial=0.0)))
        diag["best_residual"] = min(diag["best_residual"], worst)
        det = float(np.linalg.det(B))
        if worst > _TARGET or abs(det) < DET_BARRIER:
            continue
        p_orig = fixed_left.as_array() if fixed is not None else p * c
        if np.linalg.matrix_rank(p_orig - p_orig[0]) < d:
            continue
        cert = _certificate_from_arrays(inst, p_orig, (cp / c) * B, np.zeros(d))
        if _verified(inst, cert, tol):
            return cert, diag
    return None, diag


def random_instance(seed: int, n: int, d: int, edge_density: float = 0.5):
    """Sample a feasible instance with a planted ground truth.

    Draws well-spread points, an invertible matrix, and an edge set that
    contains a spanning tree; lengths are read off the two frameworks.
    Returns ``(instance, certificate)`` where the certificate is the planted
    solution.  Deterministic in all arguments.
    """
    if not isinstance(n, int) or not isinstance(d, int) or d < 1 or n < d + 1:
        raise InputError("need integers n >= d + 1 and d >= 1")
    if not 0.0 <= edge_density <= 1.0:
        raise InputError("edge_density must lie in [0, 1]")
    rng = np.random.default_rng([int(seed), n, d, int(round(edge_density * 1024))])
    for _ in range(512):
        pts = rng.normal(size=(n, d))
        dist2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        off = dist2[np.triu_indices(n, 1)]
        # closest pair at least one percent of the farthest; tighter ratios
        # are unreachable for many points on a line
        if off.min() < 1e-4 * off.max():
            continue
        try:
            find_base_simplex(distances_of(Configuration.from_array(pts)),
                              d, rel_eps=1e-4)
        except NoBaseSimplexError:
            continue
        break
    else:
        raise InternalInconsistencyError("failed to sample a spread configuration")
    for _ in range(256):
        B = np.eye(d) + 0.5 * rng.normal(size=(d, d))
        if 0.3 <= abs(float(np.linalg.det(B))) <= 30.0:
            break
    else:
        raise InternalInconsistencyError("failed to sample an invertible matrix")
    b = rng.normal(size=d)
    q = pts @ B.T + b

    perm = [int(v) for v in rng.permutation(n)]
    edges = set()
    for t in range(1, n):
        parent = perm[int(rng.integers(0, t))]
        edges.add(tuple(sorted((perm[t], parent))))
    for pair in itertools.combinations(range(n), 2):
        if pair not in edges and rng.random() < edge_density:
            edges.add(pair)
    lengths = {e: (math.dist(pts[e[0]], pts[e[1]]), math.dist(q[e[0]], q[e[1]]))
               for e in sorted(edges)}
    inst = Instance.from_lengths(n, d, lengths)
    return inst, _certificate_from_arrays(inst, pts, B, b)


# -- sound NO tests ---------------------------------------------------------


def _structure(inst, budget, tol, fixed_left) -> Optional[Verdict]:
    """Fewer than d+1 vertices cannot span dimension d."""
    if inst.n >= inst.d + 1:
        return None
    noun = "vertex" if inst.n == 1 else "vertices"
    return _refuted("structure", "structure", ConditionEntry(
        "9", False, None, float(inst.d + 1 - inst.n),
        note=f"{inst.n} {noun} cannot affinely span dimension {inst.d}"))


def _pinned_squares(inst: Instance):
    """Both sides' prescribed squared lengths, exact on rational input."""
    num = to_fraction if inst.exact else float
    return tuple({e: num(v) ** 2 for e, v in zip(inst.edges, lengths)}
                 for lengths in (inst.lam, inst.lam_prime))


def _pinned_scan(inst, budget, tol, fixed_left) -> Optional[Verdict]:
    """Look for a subset all of whose pairs are edges that is already
    contradictory: wrong determinant sign, missing flatness, or ratios no
    single alpha can serve.  Exact lengths are decided exactly.  On floats
    the sign and flatness tests use the checker's own ``tol.rel_eps``; only
    the ratio test waits for violations beyond decisive margins."""
    n, d = inst.n, inst.d
    if not inst.edges:
        return None
    rule = _Rule(inst.exact, tol.rel_eps)
    sides = [SquaredDistanceMatrix.from_pairs(n, table) for table in _pinned_squares(inst)]
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[tuple(np.asarray(inst.edges).T)] = True
    ratio_data, powers = [], ()
    for size in range(min(3, d + 1), d + 3):
        if math.comb(n, size) > _CLIQUE_SCAN_CAP:
            continue
        idx = _subsets(n, size)
        a, b = _subsets(size, 2).T
        cliques = idx[adjacent[idx[:, a], idx[:, b]].all(axis=1)]
        (u, su, pu), (v, sv, pv) = evaluated = [_evaluate(z, cliques) for z in sides]
        bad_z, bad_zp = (_defects(rule, d, size, *side) for side in evaluated)
        bad = np.flatnonzero(bad_z | bad_zp)
        if bad.size:
            k = bad[0]
            name, value = (("z", _value(u.item(k), pu)) if bad_z[k] else
                           ("z_prime", _value(v.item(k), pv)))
            key, note = (("8", "fully pinned subset violates the sign rule")
                         if size <= d + 1 else
                         ("10", "fully pinned subset of d+2 vertices is not flat"))
            return _refuted("pinned-scan", "pinned-subsystem", ConditionEntry(
                key, False, {"matrix": name, "subset": cliques[k].tolist()},
                residual=abs(value), note=note))
        if size == d + 1:
            ratio_data, powers = list(zip(cliques.tolist(), u.tolist(), v.tolist(),
                                          su.tolist(), sv.tolist())), (pu, pv)
    entry = _ratio_consistency(ratio_data, *powers)
    return None if entry is None else _refuted("pinned-scan", "pinned-subsystem", entry)


def _ratio_consistency(ratio_data, pu=None, pv=None) -> Optional[ConditionEntry]:
    """All fully pinned (d+1)-subsets must admit one common positive ratio, and
    no determinant may vanish on one side alone.  Exact u, v are over pu, pv."""
    if not ratio_data:
        return None
    if pu is not None:
        for subset, u, v, _, _ in ratio_data:
            if (u == 0) != (v == 0):
                return ConditionEntry(
                    "11", False,
                    {"subset": list(subset),
                     "matrix": "z" if u == 0 else "z_prime"},
                    residual=abs(_value(u, pu)) + abs(_value(v, pv)),
                    note="determinant vanishes on one side of a pinned subset only")
        anchored = [(s, u, v) for s, u, v, _, _ in ratio_data if u != 0]
        if len(anchored) >= 2:
            s0, u0, v0 = anchored[0]
            for subset, u, v in anchored[1:]:
                if v0 * u != v * u0:
                    ratio, other = (_value(y, pv) / _value(x, pu)
                                    for x, y in ((u, v), (u0, v0)))
                    return ConditionEntry(
                        "11", False,
                        {"subset": list(subset), "ratio": ratio,
                         "other_subset": list(s0), "other_ratio": other},
                        residual=abs(ratio - other),
                        note="pinned subsets demand incompatible ratios")
        return None
    if len(ratio_data) < 2:
        return None
    decisive = []
    for subset, u, v, su, sv in ratio_data:
        if abs(float(u)) / su > _DECISIVE and abs(float(v)) / sv > _DECISIVE:
            decisive.append((float(v) / float(u), subset))
    if len(decisive) >= 2:
        lo = min(decisive)
        hi = max(decisive)
        if hi[0] - lo[0] > 3.0 * ALPHA_REL * max(abs(hi[0]), abs(lo[0])):
            return ConditionEntry(
                "11", False,
                {"subset": list(hi[1]), "ratio": hi[0],
                 "other_subset": list(lo[1]), "other_ratio": lo[0]},
                residual=hi[0] - lo[0],
                note="pinned subsets demand incompatible ratios")
    return None


def _complete_decision(inst, budget, tol, fixed_left) -> Optional[Verdict]:
    """On a complete graph the assignment is fully pinned, so the checker
    decides; a pass is upgraded to YES by reconstruction.

    Exact lengths stay exact end to end; float lengths stay float so the
    downstream embedding applies tolerance rather than exact flatness tests.
    """
    lam2, lamp2 = _pinned_squares(inst)
    z = SquaredDistanceMatrix.from_pairs(inst.n, lam2)
    z_prime = SquaredDistanceMatrix.from_pairs(inst.n, lamp2)
    alpha = Fraction(1) if inst.exact else 1.0  # placeholder if no ratio is estimable
    try:
        base = find_base_simplex(z, inst.d, rel_eps=tol.rel_eps)
        alpha = estimate_alpha(z, z_prime, base, rel_eps=tol.rel_eps)
    except NoBaseSimplexError:
        if inst.exact:
            return _refuted("complete", "complete-pinned", ConditionEntry(
                "9", False, None, 0,
                note="every subset of d+1 vertices is degenerate under the pinned lengths"))
        # float data: let the checker report the degeneracy with margins
    except RatioSignError:
        pass  # the checker localizes the sign or vanishing defect
    assignment = Assignment(z, z_prime, alpha)
    try:
        p, p_prime, amap = reconstruct(inst, assignment, tol)
    except PreconditionError as err:
        # reconstruct checks the assignment first and raises this, with the
        # checker's report, when that check fails.  The pinned assignment is
        # the only candidate, so the failure is a NO.  An error from inside
        # the checker carries no report, so the check runs again for one.
        report = err.report
        if report is None:
            report = check_assignment(inst, assignment, tol)
        return _refuted("complete", "complete-pinned", report)
    except ReconstructionError:
        return None
    cert = Certificate(assignment, p, p_prime, amap)
    if not verify_problem1(inst, p, p_prime, amap).passed:
        return None
    return Verdict(YES, certificate=cert, diagnostics={"stage": "complete"})


def _validate_fixed_left(inst: Instance, config: Configuration, tol: Tolerances):
    if not isinstance(config, Configuration):
        raise InputError("fixed_left must be a Configuration")
    if config.dim != inst.d or config.n != inst.n:
        raise InputError("fixed framework shape disagrees with the instance")
    z = distances_of(config)
    rule = _Rule(inst.exact and config.exact, tol.rel_eps)
    for e, lam in zip(inst.edges, inst.lam):
        have, want = z.entry(*e), lam * lam
        if rule.sign(have - want, max(abs(float(have)), float(want))) != 0:
            raise InputError(
                f"fixed framework violates the pinned length on edge {e}")


def _fixed_left_precheck(inst, budget, tol, fixed_left) -> Optional[Verdict]:
    """With the first framework pinned, its distance data must still admit a
    spanning base simplex; decided exactly on the given coordinates."""
    z = distances_of(fixed_left)
    exact_rows = [[to_fraction(v) for v in row] for row in z.z]
    try:
        find_base_simplex(SquaredDistanceMatrix(exact_rows), inst.d)
    except NoBaseSimplexError:
        return _refuted("fixed-left", "fixed-left", ConditionEntry(
            "9", False, {"matrix": "z"}, 0,
            note="the fixed framework does not affinely span the dimension"))
    return None


# -- one-dimensional oracle -------------------------------------------------


def _line_decision(inst, budget, tol, fixed_left) -> Optional[Verdict]:
    """Enumerate per-component edge orientations on the line.

    Returns a verdict only when decisive: YES when every component places
    with (near-)zero defect and the length ratio is (near-)constant, NO when
    the best placement of some component is far outside any assignment the
    checker could accept.  Returns None when a component is too large to
    enumerate or the defect lands in the undecidable gray band, and in any
    dimension other than 1.
    """
    if inst.d != 1:
        return None
    n = inst.n
    rule = _Rule(inst.exact)
    lam = {e: to_fraction(v) for e, v in zip(inst.edges, inst.lam)}
    lam_prime = {e: to_fraction(v) for e, v in zip(inst.edges, inst.lam_prime)}
    scale = max((float(v) for v in lam.values()), default=1.0)
    # Placements run on ints: every length times the lcm of their
    # denominators.  Int true division rounds correctly, so a defect's
    # float equals float() of its Fraction.
    den = math.lcm(*(v.denominator for v in lam.values()))
    ilam = {e: v.numerator * (den // v.denominator) for e, v in lam.items()}

    adj = {i: [] for i in range(n)}
    for i, j in inst.edges:
        adj[i].append(j)
        adj[j].append(i)

    positions = [Fraction(0)] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp, tree, queue = [root], [], deque([root])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    tree.append((j, i))
                    comp.append(j)
                    queue.append(j)
        if len(tree) > _LINE_ENUM_CAP:
            return None
        compset = set(comp)
        treeset = {tuple(sorted(t)) for t in tree}
        nontree = [(e, ilam[e]) for e in inst.edges
                   if e[0] in compset and e[1] in compset and e not in treeset]
        steps = [(child, parent, ilam[tuple(sorted((child, parent)))])
                 for child, parent in tree]
        best = None
        for signs in itertools.product((1, -1), repeat=len(tree)):
            x = {root: 0}
            for (child, parent, length), sign in zip(steps, signs):
                x[child] = x[parent] + sign * length
            worst, worst_edge = 0, None
            for e, length in nontree:
                gap = abs(abs(x[e[0]] - x[e[1]]) - length)
                if gap > worst:
                    worst, worst_edge = gap, e
            wf = worst / den
            if best is None or wf < best[0]:
                best = (wf, x, worst_edge)
            if rule.sign(wf, scale, _LINE_ACCEPT) == 0:
                break
        defect, x, worst_edge = best
        if rule.sign(defect, scale, _LINE_ACCEPT) != 0:
            if rule.sign(defect, scale, _LINE_REJECT) != 0:
                return _refuted("line-oracle", "line-oracle", ConditionEntry(
                    "10", False,
                    {"matrix": "z", "component": sorted(comp),
                     "edge": list(worst_edge) if worst_edge else None},
                    residual=defect,
                    note="no placement of the component on a line meets every pinned length"))
            return None  # gray band: leave to the numeric search
        for i, value in x.items():
            positions[i] = Fraction(value, den)

    if inst.edges:
        ref = max(range(len(inst.edges)), key=lambda t: float(inst.lam[t]))
        s = lam_prime[inst.edges[ref]] / lam[inst.edges[ref]]
        ratios = [(lam_prime[e] / lam[e]) ** 2 for e in inst.edges]
        if rule.sign(max(ratios) - min(ratios), max(ratios), 0.05 * tol.rel_eps) != 0:
            return None  # ratio drift too close to the checker's limits
    else:
        s = Fraction(1)
        positions = [Fraction(i) for i in range(n)]

    cert = _line_certificate(inst, positions, s, lam, lam_prime)
    if not _verified(inst, cert, tol):
        raise InternalInconsistencyError(
            "line placement found but its certificate failed verification")
    return Verdict(YES, certificate=cert, diagnostics={"stage": "line-oracle"})


_STAGES = (_structure, _pinned_scan, _line_decision, _numeric)


def _line_certificate(inst: Instance, positions, s, lam, lam_prime) -> Certificate:
    n = inst.n
    eset = inst.edge_set
    s2 = s * s
    z_rows = [[Fraction(0)] * n for _ in range(n)]
    zp_rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in eset:
                a, b = lam[(i, j)] ** 2, lam_prime[(i, j)] ** 2
            else:
                gap = (positions[i] - positions[j]) ** 2
                a, b = gap, s2 * gap
            z_rows[i][j] = z_rows[j][i] = a
            zp_rows[i][j] = zp_rows[j][i] = b
    assignment = Assignment(SquaredDistanceMatrix(z_rows),
                            SquaredDistanceMatrix(zp_rows), s2)
    p = Configuration(1, [(x,) for x in positions])
    p_prime = Configuration(1, [(s * x,) for x in positions])
    amap = AffineMap(((s,),), (Fraction(0),))
    return Certificate(assignment, p, p_prime, amap)


# -- certificate assembly and verification ----------------------------------


def _spread_certificate(inst: Instance) -> Certificate:
    """Any full-hull placement works when nothing is pinned."""
    n, d = inst.n, inst.d
    pts = [[0] * d for _ in range(n)]
    for i in range(1, n):
        if i <= d:
            pts[i][i - 1] = 1
        else:
            pts[i][0] = i - d + 1
    p = Configuration(d, [tuple(row) for row in pts])
    z = distances_of(p)
    return Certificate(Assignment(z, z, 1), p, p, AffineMap.identity(d))


def _certificate_from_arrays(inst: Instance, p_arr, B, b) -> Certificate:
    q_arr = p_arr @ B.T + b
    p = Configuration.from_array(p_arr)
    p_prime = Configuration.from_array(q_arr)
    amap = AffineMap(tuple(tuple(float(x) for x in row) for row in B),
                     tuple(float(x) for x in b))
    alpha = float(np.linalg.det(B)) ** 2
    return Certificate(Assignment(distances_of(p), distances_of(p_prime), alpha),
                       p, p_prime, amap)


def _verified(inst: Instance, cert: Certificate, tol: Tolerances) -> bool:
    try:
        report = check_assignment(inst, cert.assignment, tol)
        if not report.passed:
            return False
        return verify_problem1(inst, cert.p, cert.p_prime, cert.amap).passed
    except AffeqError:
        return False
