"""Verdict invariants: changes that cannot change the answer never turn a YES
into a NO.

Relabelling the vertices, scaling either side uniformly and swapping the two
sides map a planted (feasible) instance to another feasible one, so none may
be refuted.  Running a rational instance exactly and in floats may differ
only between a decision and UNKNOWN, never YES against NO.  All randomness is
seeded; every case states its seed on failure.
"""

import math

import numpy as np

from affeq.solver import NO, YES, SearchBudget, random_instance, solve
from affeq.system import Instance

from test_acceptance import _random_line_instance

BUDGET = SearchBudget(restarts=2)


def transformed(inst, perm, scale, scale_prime, swap):
    """``inst`` with vertex v renamed perm[v], each side scaled, and the
    sides exchanged when ``swap`` is set."""
    lengths = {}
    for (i, j), a, b in zip(inst.edges, inst.lam, inst.lam_prime):
        a, b = a * scale, b * scale_prime
        lengths[(min(perm[i], perm[j]), max(perm[i], perm[j]))] = (b, a) if swap else (a, b)
    return Instance.from_lengths(inst.n, inst.d, lengths)


def planted_cases():
    rng = np.random.default_rng(1100)
    for seed in range(40):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(max(3, d + 1), 9))
        density = float(rng.choice([0.2, 0.4, 0.6, 0.8, 1.0]))
        inst, _ = random_instance(1100 + seed, n, d, density)
        yield seed, "planted", inst
        for variant in range(5):
            perm = [int(v) for v in rng.permutation(n)]
            k, k_prime = (int(v) for v in rng.integers(-6, 7, size=2))
            swap = bool(rng.integers(0, 2))
            label = f"perm {perm}, 10^{k} and 10^{k_prime}, swap {swap}"
            yield seed, label, transformed(inst, perm, 10.0 ** k, 10.0 ** k_prime, swap)


def test_planted_instances_are_never_refuted():
    kinds = []
    for seed, label, inst in planted_cases():
        v = solve(inst, BUDGET)
        assert v.kind != NO, (seed, label, v.witness.to_dict())
        kinds.append(v.kind)
    assert len(kinds) == 240
    assert kinds.count(YES) >= 200


def lattice_instance(seed):
    """Integer points and an integer map whose lengths stay integers: in
    d = 1 any map; in d = 2 either a scaled signed permutation, keeping every
    pair at an integer distance, or a signed permutation of an axis scaling,
    keeping the axis-parallel pairs.  The graph holds the pairs that keep
    integer lengths on both sides, thinned at random, and odd seeds add one
    to a second-side length."""
    rng = np.random.default_rng([1200, seed])
    d = 1 + seed // 2 % 2
    n = int(rng.integers(d + 1, 7))
    pts = rng.choice(7 ** d, size=n, replace=False)
    pts = np.stack([pts // 7 ** k % 7 for k in range(d)], axis=1) - 3
    P = np.eye(d, dtype=int)[rng.permutation(d)] * rng.choice([-1, 1], size=d)
    similar = d == 1 or bool(rng.integers(0, 2))
    scales = rng.integers(1, 4, size=d)
    B = P * (scales[0] if similar else scales)
    lengths = {}
    for i in range(n):
        for j in range(i + 1, n):
            u = pts[i] - pts[j]
            a2, b2 = int(u @ u), int((B @ u) @ (B @ u))
            a, b = math.isqrt(a2), math.isqrt(b2)
            if a * a == a2 and b * b == b2 and rng.random() < 0.7:
                lengths[(i, j)] = (a, b)
    if seed % 2 and lengths:
        e = sorted(lengths)[int(rng.integers(0, len(lengths)))]
        lengths[e] = (lengths[e][0], lengths[e][1] + 1)
    return Instance.from_lengths(n, d, lengths)


def floated(inst):
    return Instance(inst.n, inst.d, inst.edges,
                    tuple(float(v) for v in inst.lam),
                    tuple(float(v) for v in inst.lam_prime))


def test_exact_and_float_runs_never_contradict():
    line = [inst for inst in map(_random_line_instance, range(120)) if inst.exact]
    lattice = [lattice_instance(seed) for seed in range(120)]
    decided = 0
    for k, inst in enumerate(line + lattice):
        assert inst.exact
        kinds = {solve(inst, BUDGET).kind, solve(floated(inst), BUDGET).kind}
        assert kinds != {YES, NO}, (k, inst)
        decided += kinds in ({YES}, {NO})
    assert decided >= 150
