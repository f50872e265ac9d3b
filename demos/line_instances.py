"""
Exact verdicts on the line
==========================

Dimension one admits a complete decision procedure: each connected
component is placed by choosing a sign for every spanning-tree edge, the
remaining edges are checked exactly, and both length prescriptions must
agree on a single scale.
"""

from fractions import Fraction

from affeq import Instance, line_oracle

# A path with lengths 3, 4 against 6, 8: any path embeds on a line, and
# the uniform doubling gives alpha = 4.
path = Instance.from_lengths(3, 1, {(0, 1): (3, 6), (1, 2): (4, 8)})
verdict = line_oracle(path)
print("path:", verdict.kind, "| alpha:", verdict.certificate.alpha)
print("positions:", verdict.certificate.p.points)

# A triangle of equal lengths cannot lie on a line: three points with
# pairwise equal distances need two dimensions.
triangle = Instance.from_lengths(
    3, 1, {(0, 1): (1, 1), (1, 2): (1, 1), (0, 2): (1, 1)})
verdict = line_oracle(triangle)
failure = verdict.witness.report.first_failure()
print("\nequilateral triangle:", verdict.kind,
      "| condition:", f"({failure.key})", failure.label)

# Two edges whose length ratios disagree: every map of the line scales all
# distances by the same factor, so (3 -> 6) and (4 -> 7) are incompatible.
mismatch = Instance.from_lengths(3, 1, {(0, 1): (3, 6), (1, 2): (4, 7)})
verdict = line_oracle(mismatch)
failure = verdict.witness.report.first_failure()
print("mismatched ratios:", verdict.kind,
      "| witness:", failure.witness)

# A four-cycle closes on the line only if some signed combination of the
# lengths cancels: 1, 1, 1, 3 closes (1 + 1 + 1 = 3)...
closed = Instance.from_lengths(4, 1, {
    (0, 1): (1, 2), (1, 2): (1, 2), (2, 3): (1, 2), (0, 3): (3, 6)})
verdict = line_oracle(closed)
print("\nclosable cycle:", verdict.kind,
      "| positions:", verdict.certificate.p.points)

# ...but 1, 1, 1, 7/2 cannot: the best orientation still leaves a gap of
# 1/2, reported exactly.  Only enumeration can see this; no pinned subset
# exists because the cycle has no triangles.
open_cycle = Instance.from_lengths(4, 1, {
    (0, 1): (1, 2), (1, 2): (1, 2), (2, 3): (1, 2),
    (0, 3): (Fraction(7, 2), 7)})
verdict = line_oracle(open_cycle)
failure = verdict.witness.report.first_failure()
print("unclosable cycle:", verdict.kind,
      "| residual:", failure.residual,
      "| component:", failure.witness["component"])
